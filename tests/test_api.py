"""The package's public surface, pinned so that any growth shows as a diff."""

from types import ModuleType

import bhlink

PUBLIC = {
    # weights and polynomials
    "WeightSystem", "ReducedWeights", "SplitDecomposition", "solve_weights", "wellformed_space",
    "Block", "BlockKind", "InvertiblePolynomial", "classify",
    "enumerate_representations", "find_chain_cycle", "has_invertible_representation",
    # homology
    "CyclotomicDivisor", "expand_link_divisor", "link_divisor", "milnor_number",
    "betti_subset_sum", "orlik_torsion", "homology_profile", "HomologyProfile",
    "TorsionWorksheet", "branched_cover", "DiffeoType",
    # duality
    "bh_dual", "chain_cycle_closed_forms", "ClosedFormPrediction", "is_twin", "swap_twin",
    "pipeline", "DualReport", "se_certificate", "SasakiVerdict", "Verdict",
    # errors
    "BhlinkError", "CrossCheckFailed", "NoRepresentation", "NoSplit",
    "NonIntegralExpansion", "NonIntegralMilnor", "NonIntegralOrder", "NonPositiveWeights",
    "PoleAtT", "PreconditionFailed", "SingularSystem",
}


def test_public_names_are_pinned():
    # submodules become attributes as they are imported, so they are left out
    names = {
        name for name, value in vars(bhlink).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert names == PUBLIC


def test_divisor_members_are_pinned():
    # perfbench/layers.py wraps the three evaluators by name and reads .terms;
    # the divisor is a value with evaluators, not a ring
    members = {name for name in dir(bhlink.CyclotomicDivisor) if not name.startswith("_")}
    assert members == {"terms", "coefficient_sum", "root_count", "delta_order_at_one", "delta_eval"}
    for operator in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        assert not hasattr(bhlink.CyclotomicDivisor, operator)


def test_chain_cycle_search_takes_no_grouping():
    from inspect import signature

    import bhlink.representation

    assert list(signature(bhlink.find_chain_cycle).parameters) == ["ws"]
    # the closed forms read the grouping off the polynomial they predict
    assert list(signature(bhlink.chain_cycle_closed_forms).parameters) == ["poly", "ws"]
    assert not hasattr(bhlink.representation, "pick_chain_cycle")
