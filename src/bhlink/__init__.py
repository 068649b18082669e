"""Exact topology of weighted-homogeneous hypersurface links and their duals.

The package computes, in exact arbitrary-precision arithmetic, the middle
Betti number, torsion and Milnor number of the link of an invertible
weighted-homogeneous singularity, enumerates its invertible-polynomial
representations, applies the Berglund-Hubsch transpose to produce dual links,
detects twins and certifies Sasaki-Einstein metrics via the index inequality.
"""

from .divisor import CyclotomicDivisor, expand_link_divisor
from .duality import (
    ClosedFormPrediction,
    DualReport,
    SasakiVerdict,
    Verdict,
    bh_dual,
    chain_cycle_closed_forms,
    is_twin,
    pipeline,
    se_certificate,
    swap_twin,
)
from .errors import (
    BhlinkError,
    CrossCheckFailed,
    NoRepresentation,
    NoSplit,
    NonIntegralExpansion,
    NonIntegralMilnor,
    NonIntegralOrder,
    NonPositiveWeights,
    PoleAtT,
    PreconditionFailed,
    SingularSystem,
)
from .invariants import (
    DiffeoType,
    HomologyProfile,
    TorsionWorksheet,
    betti_subset_sum,
    branched_cover,
    homology_profile,
    link_divisor,
    milnor_number,
    orlik_torsion,
)
from .polynomial import Block, BlockKind, InvertiblePolynomial, classify
from .representation import enumerate_representations, find_chain_cycle, has_invertible_representation
from .weights import (
    ReducedWeights,
    SplitDecomposition,
    WeightSystem,
    solve_weights,
    wellformed_space,
)

__version__ = "0.1.0"
