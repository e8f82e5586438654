"""Per-layer tracing, installed from outside the program.

The tracer replaces selected public functions of solnorm's modules with
wrappers that record a span (calls, inclusive and self time, the caller
span) or only count calls.  A wrapper is installed in every solnorm module
namespace that binds the function, and in module-level lists that hold it
(oracle's check lists), so calls made through any import see it.  Nothing
inside src/ records anything.

A census run makes millions of calls, so spans are aggregated in memory by
(caller, callee) rather than kept one by one; they are written out when the
run ends.  Self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, metric name) of functions traced with a span.
SPANS = [
    ("solnorm.cli", "main", "cli.main"),
    ("solnorm.cli", "render_bundle", "reports.render"),
    ("solnorm.cli", "render_semibundle", "reports.render"),
    ("solnorm.cli", "bundle_document", "reports.render"),
    ("solnorm.cli", "semibundle_document", "reports.render"),
    ("solnorm.cli", "to_canonical_json", "reports.render"),
    ("solnorm.cli", "census_row", "reports.render"),
    ("solnorm.bundle", "norm_table_bundle", "bundle.norm_table_bundle"),
    ("solnorm.bundle", "norm_multiset_bundle", "bundle.norm_multiset_bundle"),
    ("solnorm.bundle", "order", "bundle.order"),
    ("solnorm.semibundle", "norm_table_semi", "semibundle.norm_table_semi"),
    ("solnorm.semibundle", "norm_multiset_semi", "semibundle.norm_multiset_semi"),
    ("solnorm.tree_action", "translation_length_orbit", "tree_action.translation_length_orbit"),
    ("solnorm.tree_action", "translation_length_closed", "tree_action.translation_length_closed"),
    ("solnorm.curve_complex", "geodesic", "curve_complex.geodesic"),
    ("solnorm.curve_complex", "distance", "curve_complex.distance"),
    ("solnorm.curve_complex", "neighbors_bounded", "curve_complex.neighbors_bounded"),
    ("solnorm.arith", "bredon_wood", "arith.bredon_wood"),
    ("solnorm._kernels", "scan_meg_form", "kernels.scan_meg_form"),
    ("solnorm._kernels", "scan_conjugate_to", "kernels.scan_conjugate_to"),
] + [
    ("solnorm.oracle", name, f"oracle.{name}")
    for name in (
        "check_grid_agreement",
        "check_bw_parity",
        "check_lens_invariance",
        "check_closed_vs_orbit",
        "check_periodic_table",
        "check_nil_family",
        "check_semibundle",
        "check_conjugacy_criterion",
        "check_geodesics",
        "check_invariance",
        "check_h2_kernel",
    )
]

# (module, attribute, metric name) of functions whose calls are only counted.
COUNTS = [
    ("solnorm.curve_complex", "GL2Matrix.__matmul__", "curve_complex.matmul"),
    ("solnorm.tree_action", "parity_permutation", "tree_action.parity_permutation"),
    ("solnorm.bundle", "h2_structure", "bundle.h2_structure"),
]

GEODESIC = "curve_complex.geodesic"
DISTANCE = "curve_complex.distance"
# Metric names must start with a letter or digit, so the _kernels layer
# reports as "kernels".
SCANS = ("kernels.scan_meg_form", "kernels.scan_conjugate_to")


def cf_terms(p: int, q: int) -> int:
    """Euclid quotients in the continued fraction of |p|/|q| that
    bredon_wood expands: none when p is odd or zero."""
    if p % 2 or p == 0:
        return 0
    p, q, n = abs(p), abs(q), 0
    while q:
        p, q = q, p % q
        n += 1
    return n


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, child time in ns]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        stack, calls, total, own, edges = self._stack, self.calls, self.total_ns, self.self_ns, self.edges
        after = self._hooks().get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                parent = stack[-1] if stack else None
                calls[name] += 1
                total[name] += elapsed
                own[name] += elapsed - frame[1]
                edge = edges[(parent[0] if parent else "", name)]
                edge[0] += 1
                edge[1] += elapsed
                if parent is not None:
                    parent[1] += elapsed
            if after is not None:
                # counting work is tracer overhead: keep it out of the caller's self time
                start = perf_counter_ns()
                after(args, result, parent[0] if parent else "")
                if parent is not None:
                    parent[1] += perf_counter_ns() - start
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        """Work counters, updated after a span ends: {span name: hook}."""
        counters = self.counters

        def geodesic(args, result, parent):
            counters["geodesic.steps"] += len(result) - 1

        def distance(args, result, parent):
            if parent == GEODESIC:
                counters["geodesic.candidates"] += 1

        def bredon_wood(args, result, parent):
            counters["cf_terms"] += cf_terms(args[0], args[1])

        def scan(args, result, parent):
            counters["scan.hits"] += result is not None

        return {GEODESIC: geodesic, DISTANCE: distance, "arith.bredon_wood": bredon_wood,
                SCANS[0]: scan, SCANS[1]: scan}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever solnorm binds it.  A target
        the program no longer has is skipped; its metrics then read 0."""
        modules = [m for n, m in list(sys.modules.items()) if n == "solnorm" or n.startswith("solnorm.")]
        for targets, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module_name, attr, name in targets:
                owner = sys.modules.get(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    continue
                wrapper = make(name, original)
                if path:  # a method: patch the class
                    self._replace(owner, leaf, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, wrapper)
                        elif isinstance(value, list) and any(v is original for v in value):
                            self._saved.append((value, "list", list(value)))
                            value[:] = [wrapper if v is original else v for v in value]

    def _replace(self, owner, key: str, wrapper) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            if key == "list":
                owner[:] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}

        def calls(name):
            out[f"{name}.calls"] = (self.calls[name], "count")

        def self_ms(name):
            out[f"{name}.self_ms"] = (self.self_ns[name] / 1e6, "ms")

        for name in (GEODESIC, DISTANCE, "curve_complex.neighbors_bounded",
                     "tree_action.translation_length_orbit", "tree_action.translation_length_closed",
                     "bundle.order", "arith.bredon_wood", *SCANS):
            calls(name)
            self_ms(name)
        steps, candidates = self.counters["geodesic.steps"], self.counters["geodesic.candidates"]
        out[f"{GEODESIC}.steps"] = (steps, "count")
        out[f"{GEODESIC}.candidates"] = (candidates, "count")
        out[f"{GEODESIC}.steps_per_candidate"] = (steps / candidates if candidates else 0.0, "ratio")
        for name in ("curve_complex.matmul", "tree_action.parity_permutation", "bundle.h2_structure",
                     "cli.main"):
            calls(name)
        for name in ("bundle.norm_multiset_bundle", "semibundle.norm_multiset_semi",
                     "bundle.norm_table_bundle", "semibundle.norm_table_semi", "reports.render",
                     "cli.main"):
            self_ms(name)
        out["arith.cf_terms"] = (self.counters["cf_terms"], "count")
        scans = sum(self.calls[name] for name in SCANS)
        out["kernels.scan.hit_ratio"] = (self.counters["scan.hits"] / scans if scans else 0.0, "ratio")
        for module, name, metric in SPANS:
            if module == "solnorm.oracle":
                out[f"{metric}.ms"] = (self.total_ns[metric] / 1e6, "ms")
        return out

    def dump(self) -> dict:
        """Aggregated spans and counters, for the trace file."""
        return {
            "spans": {
                name: {"calls": self.calls[name], "total_ms": self.total_ns[name] / 1e6,
                       "self_ms": self.self_ns[name] / 1e6}
                for name in sorted(self.calls)
            },
            "edges": [
                {"caller": caller or None, "callee": callee, "calls": n, "total_ms": ns / 1e6}
                for (caller, callee), (n, ns) in sorted(self.edges.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }
