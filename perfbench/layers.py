"""Spans around calls into each bhlink module, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules at every
place it is bound (``homology_profile`` lives in ``bhlink.invariants`` and is
also bound in ``bhlink.duality``, ``bhlink.cli`` and the package), plus a
few methods on their classes.  Each call appends one span: name, start, end,
the index of its parent span and an optional payload read from the
arguments or the result.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("weights", "divisor", "polynomial", "representation", "invariants", "duality", "cli")
# cli has no __all__: its public functions are listed here
CLI_PUBLIC = (
    "cmd_analyze", "cmd_pipeline", "process_batch_row", "cmd_batch",
    "verify_row", "cmd_verify_table", "build_parser", "main",
)
METHODS = (
    ("polynomial", "InvertiblePolynomial", "validate"),
    ("divisor", "CyclotomicDivisor", "coefficient_sum"),
    ("divisor", "CyclotomicDivisor", "root_count"),
    ("divisor", "CyclotomicDivisor", "delta_order_at_one"),
)
EVALUATORS = ("divisor.coefficient_sum", "divisor.root_count", "divisor.delta_order_at_one")

# payload kept per span, read after the call returns
PAYLOADS = {
    "invariants.orlik_torsion": lambda args, out: (len(out[0].c), out[0].r),
    "divisor.expand_link_divisor": lambda args, out: len(out.terms),
    "representation.enumerate_representations": lambda args, out: len(out),
    "invariants.homology_profile": lambda args, out: args[0],
}

NAME, START, END, PARENT, PAYLOAD = range(5)


def _public_functions(module) -> list[str]:
    names = CLI_PUBLIC if module.__name__ == "bhlink.cli" else module.__all__
    return [
        n for n in names
        if callable(getattr(module, n)) and not isinstance(getattr(module, n), type)
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, payload = self.spans, self._stack, PAYLOADS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if payload is not None:
                span[PAYLOAD] = payload(args, out)
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"bhlink.{layer}"]
            for fname in _public_functions(module):
                fn = getattr(module, fname)
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "bhlink" and not module_name.startswith("bhlink."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"bhlink.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{method}", original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def leftover_wrappers() -> list[str]:
    """Names of bhlink attributes that are still tracing wrappers."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "bhlink" and not module_name.startswith("bhlink."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module_name}.{attr}")
            if isinstance(value, type):
                for meth, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append(f"{module_name}.{attr}.{meth}")
    return found


def _dual_key(ws) -> tuple:
    red = ws.reduced()
    return tuple(sorted(zip(red.u, red.v))), ws.degree


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times (ms) from one traced pass."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    for span, children in zip(spans, child_time):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + (span[END] - span[START] - children) * 1e3

    def payloads(name):
        return [s[PAYLOAD] for s in spans if s[NAME] == name]

    def parent_name(span):
        return spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None

    torsion = payloads("invariants.orlik_torsion")
    reps = sum(payloads("representation.enumerate_representations"))
    validate_under_enumerate = sum(
        1 for s in spans
        if s[NAME] == "polynomial.validate"
        and parent_name(s) == "representation.enumerate_representations"
    )
    profile_keys: dict[int, list] = {}
    for s in spans:
        if s[NAME] == "invariants.homology_profile" and parent_name(s) == "duality.pipeline":
            profile_keys.setdefault(s[PARENT], []).append(_dual_key(s[PAYLOAD]))
    profiled = sum(len(keys) for keys in profile_keys.values())
    distinct = sum(len(set(keys)) for keys in profile_keys.values())

    out: dict[str, float] = {}
    for name in (
        "invariants.orlik_torsion", "invariants.homology_profile",
        "divisor.expand_link_divisor", "representation.enumerate_representations",
        "polynomial.validate", "duality.pipeline", "weights.solve_weights",
        "duality.chain_cycle_closed_forms",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "invariants.orlik_torsion", "invariants.betti_subset_sum", "invariants.milnor_number",
        "invariants.homology_profile", "divisor.expand_link_divisor",
        "representation.enumerate_representations", "polynomial.validate",
        "representation.find_chain_cycle", "duality.pipeline", "duality.bh_dual",
        "weights.solve_weights", "duality.chain_cycle_closed_forms", "duality.se_certificate",
        "cli.process_batch_row", "cli.verify_row",
    ):
        out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    # argument parsing, reading, formatting and writing: main and the cmd_* bodies
    out["cli.main.self_ms"] = sum(
        ms for name, ms in self_ms.items()
        if name in ("cli.main", "cli.build_parser") or name.startswith("cli.cmd_")
    )
    out["invariants.subsets"] = sum(subsets for subsets, _ in torsion)
    out["invariants.torsion_r"] = sum(r for _, r in torsion)
    out["divisor.terms"] = sum(payloads("divisor.expand_link_divisor"))
    out["divisor.evaluate.self_ms"] = sum(self_ms.get(name, 0.0) for name in EVALUATORS)
    out["representation.reps"] = reps
    out["representation.accept_ratio"] = reps / validate_under_enumerate if validate_under_enumerate else 0.0
    out["duality.dual_profile_distinct_ratio"] = distinct / profiled if profiled else 0.0
    return out
