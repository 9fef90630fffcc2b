"""Per-layer tracing for the benchmark, built from the benchmark's own files.

The tracer wraps the public functions of each fockpath layer and records a
span for every call.  Spans are kept in memory as a call-path tree: a span's
parent is the innermost wrapped call active when it started, and the spans
that share a path (same name under the same parent node) are merged into
one node holding their call count and total duration.  Memory therefore
grows with the number of distinct call paths, not with the millions of
calls a workload makes.  A node's self time is its duration minus the
duration of its child nodes.

``from .x import f`` copies the binding, so every module attribute that is
the original function is patched (``fockspace.dominates`` as well as
``partitions.dominates``), and every class attribute that is the original
method (``__radd__`` is ``__add__``).  ``uninstall`` restores every binding
and checks that no wrapper is left before an untraced run.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

# Layer module -> wrapped functions, by qualified name inside the module.
LAYERS: dict[str, tuple[str, ...]] = {
    "sweeps": (
        "run_formula_sweep",
        "run_branching_sweep",
        "run_bijection_sweep",
        "run_construction_sweep",
        "run_consistency_sweep",
    ),
    "closedform": (
        "decomposition_polynomial",
        "decomposition_paths",
        "sign_sequence_of",
        "apply_move",
        "admissible_moves",
        "branching_coefficient",
    ),
    "bijection": ("build_bijection", "left_elements", "right_elements"),
    "latticepath": ("well_nested_collections", "latticed_paths", "path_profile"),
    "signseq": ("match_pairs", "SignSequence.restrict", "onto", "valley_set"),
    "fockspace": (
        "CanonicalBasisOracle.element",
        "apply_f",
        "apply_f_divided",
        "expand_in_canonical",
        "OracleCache.load",
        "OracleCache.store",
    ),
    "laurent": (
        "LaurentPolynomial.__add__",
        "LaurentPolynomial.__sub__",
        "LaurentPolynomial.__mul__",
        "LaurentPolynomial.symmetric_split",
        "exact_divide",
    ),
    "partitions": ("dominates", "boundary_nodes", "add_cell", "partitions_of"),
}

# The sweep drivers only report their inclusive time.
INCLUSIVE_ONLY = ("sweeps",)

WNC = "latticepath.well_nested_collections"
COUNTERS = (
    WNC + ".candidates",
    WNC + ".kept",
    "fockspace.cache.bytes_read",
    "fockspace.cache.bytes_written",
)

# Computed by run.py from a traced and an untraced repetition.
DERIVED = (
    "closedform.sign_sequence_of.calls_per_check",
    "trace.checks",
    "trace.overhead_s",
)

_MARK = "__fockbench_original__"


def span_names() -> list[str]:
    return [f"{mod}.{name}" for mod, names in LAYERS.items() for name in names]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for mod, names in LAYERS.items():
        for name in names:
            key = f"{mod}.{name}"
            if mod in INCLUSIVE_ONLY:
                out.append(key + ".s")
            else:
                out += [key + ".calls", key + ".s", key + ".self_s"]
        out.append(mod + ".self_s")
    out += list(COUNTERS)
    out.append(WNC + ".kept_ratio")
    return out + list(DERIVED)


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_ratio", "_per_check")):
        return "ratio"
    if "bytes" in metric:
        return "bytes"
    return "count"


def resolve(span: str):
    """(owner, attribute, original) for a span name; raises if it no longer
    resolves, so a rename in fockpath fails the benchmark loudly."""
    mod, _, qualname = span.partition(".")
    owner = importlib.import_module("fockpath." + mod)
    *classes, attr = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = vars(owner).get(attr) if classes else getattr(owner, attr, None)
    if not callable(original):
        raise LookupError(f"fockpath.{span} no longer resolves to a function")
    return owner, attr, original


class Node:
    __slots__ = ("name", "children", "calls", "total")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0

    def to_json(self) -> dict:
        child_total = sum(c.total for c in self.children.values())
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.total - child_total,
            "children": [c.to_json() for c in self.children.values()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Node":
        node = cls(data["name"])
        node.calls = data["calls"]
        node.total = data["total_s"]
        for child in data["children"]:
            node.children[child["name"]] = cls.from_json(child)
        return node


class Tracer:
    def __init__(self):
        self.root = Node("bench")
        self.current = self.root
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._products: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- hooks: counts taken where the work happens ---------------------

    def _before_wnc(self) -> None:
        self._products.append(1)

    def _after_wnc(self, args, result, parent) -> None:
        self.counters[WNC + ".candidates"] += self._products.pop()
        self.counters[WNC + ".kept"] += len(result)

    def _after_latticed_paths(self, args, result, parent) -> None:
        # The product in well_nested_collections runs over exactly the path
        # sets of its direct latticed_paths calls (self-pairs contribute 1).
        if parent.name == WNC:
            self._products[-1] *= len(result)

    def _after_load(self, args, result, parent) -> None:
        cache, e, n = args[:3]
        self.counters["fockspace.cache.bytes_read"] += os.path.getsize(cache.path(e, n))

    def _after_store(self, args, result, parent) -> None:
        self.counters["fockspace.cache.bytes_written"] += os.path.getsize(result)

    def _hooks(self, span: str):
        return {
            WNC: (self._before_wnc, self._after_wnc),
            "latticepath.latticed_paths": (None, self._after_latticed_paths),
            "fockspace.OracleCache.load": (None, self._after_load),
            "fockspace.OracleCache.store": (None, self._after_store),
        }.get(span, (None, None))

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span: str, fn):
        tracer = self
        before, after = self._hooks(span)

        def wrapper(*args, **kwargs):
            parent = tracer.current
            node = parent.children.get(span)
            if node is None:
                node = parent.children[span] = Node(span)
            tracer.current = node
            if before is not None:
                before()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += perf_counter() - t0
                node.calls += 1
                tracer.current = parent
            if after is not None:
                after(args, result, parent)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__qualname__ = getattr(fn, "__qualname__", span)
        return wrapper

    def install(self) -> None:
        resolved = [(span, *resolve(span)) for span in span_names()]
        modules = [m for m in _owners() if not isinstance(m, type)]
        for span, owner, attr, original in resolved:
            wrapper = self._wrap(span, original)
            for target in [owner] if isinstance(owner, type) else modules:
                for name, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, name, wrapper)
                        self._patched.append((target, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()
        leftover = [
            f"{target.__name__}.{name}"
            for target in _owners()
            for name, value in vars(target).items()
            if hasattr(value, _MARK)
        ]
        if leftover:
            raise RuntimeError(f"tracing wrappers left installed: {leftover}")


def _owners() -> list:
    """Every loaded fockpath module and every class defined in one."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name == "fockpath" or name.startswith("fockpath."):
            out.append(module)
            out += [v for v in vars(module).values()
                    if isinstance(v, type) and v.__module__.startswith("fockpath")]
    return out


def layer_metrics(root: Node, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from a span tree and the hook counters.

    ``.s`` counts a span only when no ancestor span has the same name, so a
    recursive layer's time is not counted twice; ``.self_s`` never overlaps.
    """
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}

    def walk(node: Node, active: frozenset[str]) -> None:
        for child in node.children.values():
            name = child.name
            calls[name] = calls.get(name, 0) + child.calls
            child_total = sum(c.total for c in child.children.values())
            self_s[name] = self_s.get(name, 0.0) + child.total - child_total
            if name not in active:
                inclusive[name] = inclusive.get(name, 0.0) + child.total
            walk(child, active | {name})

    walk(root, frozenset())
    out: dict[str, float] = {}
    for mod, names in LAYERS.items():
        layer_self = 0.0
        for name in names:
            key = f"{mod}.{name}"
            layer_self += self_s.get(key, 0.0)
            if mod in INCLUSIVE_ONLY:
                out[key + ".s"] = inclusive.get(key, 0.0)
            else:
                out[key + ".calls"] = calls.get(key, 0)
                out[key + ".s"] = inclusive.get(key, 0.0)
                out[key + ".self_s"] = self_s.get(key, 0.0)
        out[mod + ".self_s"] = layer_self
    out.update(counters)
    candidates = counters[WNC + ".candidates"]
    out[WNC + ".kept_ratio"] = counters[WNC + ".kept"] / candidates if candidates else 0.0
    return out
