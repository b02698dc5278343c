"""In-memory span tracer installed around the package's module functions.

The tracer replaces every traced function at each name that binds it: the
defining module, every package module that imported it by name, and the
package namespace.  A call through any binding therefore opens a span, so
spans nest across modules (``cli.main`` > ``intertwiner.end`` >
``intertwiner.hom`` > ``numerics.nullspace``) and recursion shows as nested
spans of one name (``structure.decompose``).  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import math
import time
import types
from contextlib import contextmanager

# Modules whose functions are traced; a span is named "<module>.<function>".
LAYER_MODULES = ("cli", "document", "intertwiner", "numerics", "structure",
                 "rep", "subspaces", "operators", "kronecker")

# Private functions that carry a layer metric of their own.
TRACED_PRIVATE = frozenset({"structure._splitting_idempotent", "cli._read_json"})


def _hom_size(a, b, *args, **kwargs):
    unknowns = sum(a.dims[v] * b.dims[v] for v in a.quiver.vertices)
    rows = sum(b.dims[arr.dst] * a.dims[arr.src] for arr in a.quiver.arrows)
    return {"unknowns": unknowns, "rows": rows}


def _nullspace_size(matrix, *args, **kwargs):
    rows, cols = matrix.shape
    return {"rows": rows, "cols": cols}


# Input sizes recorded on the spans of the functions whose scaling is fitted.
SIZERS = {
    "intertwiner.hom": _hom_size,
    "numerics.nullspace": _nullspace_size,
    "structure.generated_algebra": lambda rep, *a, **k: {"d": rep.total_dim},
    "subspaces.system_end": lambda system, *a, **k: {"d": system.ambient_dim},
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "size", "raised")

    def __init__(self, name, op, parent, size):
        self.name = name
        self.op = op
        self.parent = parent
        self.size = size
        self.child_s = 0.0
        self.raised = False
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects finished spans; ``op`` tags each span with the current op index."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, size=None) -> Span:
        span = Span(name, self.op, self._stack[-1] if self._stack else None, size)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name, fn):
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name, sizer(*args, **kwargs) if sizer else None)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                s.raised = True
                raise
            finally:
                self._close(s)

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        """Wrap the traced functions at every binding in the package."""
        modules = [getattr(package, m) for m in LAYER_MODULES]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"{package.__name__}.{owner}" or owner not in LAYER_MODULES:
                    continue
                name = f"{owner}.{obj.__name__}"
                if obj.__name__.startswith("_") and name not in TRACED_PRIVATE:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(name, obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


# ---------------------------------------------------------------------------
# aggregation

def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def busy_s(spans, *names) -> float:
    """Wall time inside any of ``names``, nested calls counted once."""
    return sum(s.duration for s in _outermost(spans, set(names)))


def loglog_slope(pairs) -> float:
    """Least-squares slope of log(time) on log(size); 0 with fewer than two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in pairs if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(spans: list[Span], n_ops: int, op_walls: dict[int, float],
                  io_bytes: int, overhead_share: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over ``n_ops`` ops, per op where a rate."""
    per_op = 1.0 / n_ops

    def named(name):
        return [s for s in spans if s.name == name]

    def calls(name):
        return len(named(name)) * per_op

    def layer_self(prefixes):
        return sum(s.self_s for s in spans if s.name.split(".", 1)[0] in prefixes) * per_op

    homs = named("intertwiner.hom")
    nulls = named("numerics.nullspace")
    null_busy = sum(s.duration for s in nulls)
    tall_busy = sum(s.duration for s in nulls if s.size["rows"] > s.size["cols"])
    attempts = len(named("structure.widest_two_group_split"))
    accepted = sum(1 for s in named("structure._splitting_idempotent") if not s.raised)

    # each op's spans should account for its wall time; the rest is harness glue
    covered: dict[int, float] = {}
    for s in spans:
        covered[s.op] = covered.get(s.op, 0.0) + s.self_s
    gaps = {op: (wall - covered.get(op, 0.0)) / wall for op, wall in op_walls.items() if wall > 0}

    m = {
        "structure.generated_algebra.calls": (calls("structure.generated_algebra"), "1/op"),
        "structure.generated_algebra.busy_s": (busy_s(spans, "structure.generated_algebra") * per_op, "s/op"),
        "structure.generated_algebra.exp_d": (loglog_slope(
            (s.size["d"], s.duration) for s in named("structure.generated_algebra")), "1"),
        "numerics.nullspace.calls": (calls("numerics.nullspace"), "1/op"),
        "numerics.nullspace.busy_s": (busy_s(spans, "numerics.nullspace") * per_op, "s/op"),
        "numerics.nullspace.u_mb": (max((s.size["rows"] ** 2 * 16 / 1e6 for s in nulls),
                                        default=0.0), "MB"),
        "numerics.nullspace.tall_share": (tall_busy / null_busy if null_busy else 0.0, "share"),
        "intertwiner.hom.calls": (calls("intertwiner.hom"), "1/op"),
        "intertwiner.hom.self_s": (sum(s.self_s for s in homs) * per_op, "s/op"),
        "intertwiner.hom.unknowns": (sum(s.size["unknowns"] for s in homs) / len(homs)
                                     if homs else 0.0, "count"),
        "intertwiner.hom.system_mb": (sum(s.size["rows"] * s.size["unknowns"] * 16 / 1e6
                                          for s in homs) / len(homs) if homs else 0.0, "MB"),
        "intertwiner.hom.exp_unknowns": (loglog_slope(
            (s.size["unknowns"], s.duration) for s in homs), "1"),
        "subspaces.system_end.calls": (calls("subspaces.system_end"), "1/op"),
        "subspaces.system_end.busy_s": (busy_s(spans, "subspaces.system_end") * per_op, "s/op"),
        "subspaces.system_end.exp_d": (loglog_slope(
            (s.size["d"], s.duration) for s in named("subspaces.system_end")), "1"),
        "structure.widest_two_group_split.calls": (calls("structure.widest_two_group_split"), "1/op"),
        "structure.widest_two_group_split.busy_s": (
            busy_s(spans, "structure.widest_two_group_split") * per_op, "s/op"),
        "structure.spectral_projector.calls": (calls("structure.spectral_projector"), "1/op"),
        "structure.spectral_projector.busy_s": (
            busy_s(spans, "structure.spectral_projector") * per_op, "s/op"),
        "structure.is_indecomposable.self_s": (
            sum(s.self_s for s in named("structure.is_indecomposable")) * per_op, "s/op"),
        "structure.split.useful_ratio": (accepted / attempts if attempts else 0.0, "share"),
        "rep.restrict.calls": (calls("rep.restrict"), "1/op"),
        "rep.restrict.busy_s": (busy_s(spans, "rep.restrict") * per_op, "s/op"),
        "structure.decompose.nodes": (calls("structure.decompose"), "1/op"),
        "structure.radical_dimension.busy_s": (
            busy_s(spans, "structure.radical_dimension") * per_op, "s/op"),
        "structure.star_closed_end_dim.busy_s": (
            busy_s(spans, "structure.star_closed_end_dim") * per_op, "s/op"),
        "operators.sweep_checks.busy_s": (busy_s(
            spans, "operators.end_recursion_check", "operators.cross_model_hom",
            "operators.perturbation_structure_residual") * per_op, "s/op"),
        "document.parse_s": (busy_s(spans, "cli._read_json", "document.rep_from_json",
                                    "document.system_from_json",
                                    "document.operator_from_json") * per_op, "s/op"),
        "document.dump_s": (busy_s(spans, "document.dumps", "document.rep_to_json",
                                   "document.system_to_json") * per_op, "s/op"),
        "document.bytes": (io_bytes * per_op, "B/op"),
        "bench.check_s": (layer_self({"bench"}), "s/op"),
        "trace.overhead_share": (overhead_share, "share"),
        "trace.unattributed_share": (sum(op_walls[o] * g for o, g in gaps.items())
                                     / sum(op_walls.values()), "share"),
        "trace.unattributed_max": (max(gaps.values(), default=0.0), "share"),
    }
    for layer in ("cli", "document", "intertwiner", "numerics", "structure", "rep", "subspaces"):
        m[f"{layer}.self_s"] = (layer_self({layer}), "s/op")
    m["operators.self_s"] = (layer_self({"operators", "kronecker"}), "s/op")
    return m
