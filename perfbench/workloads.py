"""The three seeded workloads: which systems each bhlink command receives.

A workload is a list of batch rows (five-variable systems, written as
batch CSV files) plus the systems sent one by one to ``analyze`` and to
``pipeline``.  ``verify-table`` needs no input and runs in every workload.
All inputs come from in-repo sources: the golden table
(``bhlink.fixture.ROWS``) and the generators of the test suite
(``tests/generators.py``).  The same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import gcd

System = tuple[tuple[int, ...], int]

NAMES = ("survey", "duals", "stress")

SURVEY_ROWS = 1000
DUALS_SAMPLE = 425
# the survey catalog is drawn from this generator seed for every run
CATALOG_SEED = 1

# Named stress inputs, at sizes that finish within seconds.  All-equal weights give
# 780 representations with 7 distinct duals; the (2,2,2,2,w; 2w) family has
# torsion depth r = 6,517 (w = 20) and r = 57,837 (w = 40).  The wide
# systems are draws of generators.random_weight_system with 6, 7 and 8
# variables (40, 108 and 132 representations).
ALL_EQUAL: tuple[System, ...] = tuple(((1,) * 5, d) for d in (3, 4, 5))
LARGE_DEGREE: tuple[System, ...] = tuple(((2, 2, 2, 2, w), 2 * w) for w in (20, 40))
WIDE: tuple[System, ...] = (
    ((12, 12, 14, 21, 21, 24), 84),
    ((44, 60, 12, 33, 88, 44, 44), 132),
    ((22, 14, 11, 66, 21, 55, 11, 11), 77),
)


@dataclass
class Workload:
    name: str
    seed: int
    batch_rows: list[System]
    analyze: list[System]
    pipeline: list[System]
    # the client cuts each list into this many slices; a round sends one
    # slice of every list, and a pass is as many rounds as the largest count
    slices: dict[str, int]
    # systems whose pipeline report must contain a twin (twin theorem)
    twin_expected: set[System] = field(default_factory=set)

    def systems(self) -> list[System]:
        """The corpus: every batch row, then each other system sent once."""
        rows = set(self.batch_rows)
        others = [s for s in dict.fromkeys(self.analyze + self.pipeline) if s not in rows]
        return self.batch_rows + others

    def sha256(self) -> str:
        payload = json.dumps(
            {"batch": self.batch_rows, "analyze": self.analyze, "pipeline": self.pipeline}
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def normalized(system: System) -> System:
    weights, degree = system
    g = gcd(degree, *weights)
    return tuple(w // g for w in weights), degree // g


def canonical(system: System) -> System:
    """Primitive weights in sorted order: the link does not see coordinate order."""
    weights, degree = normalized(system)
    return tuple(sorted(weights)), degree


def _golden() -> list[System]:
    from bhlink.fixture import ROWS

    return [(row.source, row.source_degree) for row in ROWS]


def _permuted(rng: random.Random, system: System) -> System:
    weights, degree = system
    return tuple(rng.sample(weights, len(weights))), degree


def survey(seed: int) -> Workload:
    """The catalog scan: the 75 golden sources plus 925 random rows.

    The random rows are fixed draws of generators.random_weight_system; the
    seed sets their coordinate order and the order of all rows.  Drawn per
    seed instead, the catalog's heavy tail (rows with up to 780
    representations) moves row p99 latency by a third from seed to seed.
    ``analyze`` runs on every row.  ``pipeline`` runs on the golden sources,
    every round: over all 1000 rows it would take about 27 s, most of it on
    the tail that ``stress`` measures by name.
    """
    import generators

    golden = _golden()
    draws = random.Random(CATALOG_SEED)
    drawn: list[System] = []
    while len(golden) + len(drawn) < SURVEY_ROWS:
        found = generators.random_weight_system(draws)
        if found is not None:
            drawn.append((found[1].weights, found[1].degree))
    rng = random.Random(seed)
    rows = golden + [_permuted(rng, system) for system in drawn]
    rng.shuffle(rows)
    slices = {"batch_rows": 10, "analyze": 10, "pipeline": 1}
    return Workload("survey", seed, rows, list(rows), golden, slices)


def duals(seed: int) -> Workload:
    """Transpose duality on realistic data: the golden sources plus a seeded
    sample of the twin-theorem population."""
    import generators

    population = generators.theorem_population()
    rng = random.Random(seed)
    drawn = [(ws.weights, ws.degree) for _, ws in rng.sample(population, DUALS_SAMPLE)]
    systems = _golden() + drawn
    rng.shuffle(systems)
    slices = {"batch_rows": 5, "analyze": 5, "pipeline": 5}
    return Workload("duals", seed, systems, list(systems), list(systems), slices, set(drawn))


def stress(seed: int) -> Workload:
    """The named stress inputs; the seed sets the coordinate order of the
    wide systems.

    The (2,2,2,2,w; 2w) rows keep their order: which dual ``batch`` reports
    depends on where w sits, and that moves the row's cost by half.
    """
    rng = random.Random(seed)
    wide = [_permuted(rng, s) for s in WIDE]
    all_equal, large = list(ALL_EQUAL), list(LARGE_DEGREE)
    slices = {"batch_rows": 1, "analyze": 1, "pipeline": 1}
    return Workload("stress", seed, all_equal + large, large + wide, all_equal + wide, slices)


def build(name: str, seed: int) -> Workload:
    return {"survey": survey, "duals": duals, "stress": stress}[name](seed)
