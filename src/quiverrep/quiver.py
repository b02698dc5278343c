"""Immutable quiver data model: directed multigraphs with named vertices and arrows.

Vertex and arrow order is declaration order and is part of the data model;
matrix blocks elsewhere in the package are indexed by it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("vertex identifiers must be unique")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValidationError("arrow names must be unique")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.src not in vset:
                raise ValidationError(f"arrow {a.name!r}: unknown source vertex {a.src!r}")
            if a.dst not in vset:
                raise ValidationError(f"arrow {a.name!r}: unknown range vertex {a.dst!r}")

    def loops_at(self, vertex: str) -> tuple[Arrow, ...]:
        """Arrows with source and range both equal to ``vertex``, in declaration order."""
        if vertex not in self.vertices:
            raise ValidationError(f"unknown vertex {vertex!r}")
        return tuple(a for a in self.arrows if a.src == vertex and a.dst == vertex)

    def has_loops(self) -> bool:
        return any(a.src == a.dst for a in self.arrows)


CANONICAL_KINDS = ("loop", "kronecker", "subspace", "two_inclusions")


def build_canonical(kind: str, n: int | None = None) -> Quiver:
    """Build a named quiver with deterministic vertex/arrow naming.

    Kinds: ``loop(n)`` (one vertex, n loops), ``kronecker(n)`` (two vertices,
    n parallel arrows 1 -> 2), ``subspace(n)`` (n sources feeding the sink
    n+1), ``two_inclusions`` (alias for subspace(2)).  Vertices are named
    "1", "2", ...; arrows "a1", "a2", ....
    """
    if kind == "two_inclusions":
        if n not in (None, 2):
            raise ValidationError("two_inclusions takes no size parameter")
        return build_canonical("subspace", 2)
    if kind not in CANONICAL_KINDS:
        raise ValidationError(f"unknown canonical quiver kind {kind!r}; choose from {CANONICAL_KINDS}")
    if n is None or int(n) != n or n < 1:
        raise ValidationError(f"canonical quiver {kind!r} needs an integer size n >= 1, got {n!r}")
    n = int(n)
    if kind == "loop":
        return Quiver(("1",), tuple(Arrow(f"a{i + 1}", "1", "1") for i in range(n)))
    if kind == "kronecker":
        return Quiver(("1", "2"), tuple(Arrow(f"a{i + 1}", "1", "2") for i in range(n)))
    # subspace quiver: vertices 1..n feed the sink n+1
    sink = str(n + 1)
    vertices = tuple(str(i + 1) for i in range(n + 1))
    arrows = tuple(Arrow(f"a{i + 1}", str(i + 1), sink) for i in range(n))
    return Quiver(vertices, arrows)
