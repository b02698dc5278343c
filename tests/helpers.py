"""Shared builders and checks for the test suites (all seeded, all deterministic)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quiverrep import (DEFAULT_TOL, AlgebraBasis, Arrow, Quiver, Representation, SubspaceSystem,
                       Tolerances, direct_sum, end, hom, hrr_model, intertwining_residual,
                       jordan_block, kronecker_rep, loop_rep, system_to_rep)
from quiverrep.intertwiner import _solve, _spanning_forest, hom_scale
from quiverrep.numerics import check_unknowns, random_complex
from quiverrep.operators import _recursion_residual, hrr_log_w


def two_subspace_rep(theta: float) -> Representation:
    q = Quiver(("1", "2", "3"), (Arrow("a1", "1", "3"), Arrow("a2", "2", "3")))
    return Representation(
        q, {"1": 1, "2": 1, "3": 2},
        {"a1": np.array([[1.0], [0.0]], dtype=complex),
         "a2": np.array([[np.cos(theta)], [np.sin(theta)]], dtype=complex)})


def example6() -> Representation:
    q = Quiver(("1",), (Arrow("a1", "1", "1"), Arrow("a2", "1", "1")))
    return Representation(q, {"1": 2},
                          {"a1": np.array([[1, 0], [0, 0]], dtype=complex),
                           "a2": np.array([[0, 1], [0, 0]], dtype=complex)})


def example7() -> Representation:
    q = Quiver(("1",), (Arrow("a1", "1", "1"), Arrow("a2", "1", "1")))
    return Representation(q, {"1": 2},
                          {"a1": np.array([[1, 0], [0, 0]], dtype=complex),
                           "a2": np.ones((2, 2), dtype=complex)})


def random_quiver(rng: np.random.Generator, n_vertices: int | None = None,
                  n_arrows: int | None = None, allow_loops: bool = True) -> Quiver:
    nv = int(rng.integers(2, 4)) if n_vertices is None else n_vertices
    na = int(rng.integers(2, 6)) if n_arrows is None else n_arrows
    vertices = tuple(str(i + 1) for i in range(nv))
    arrows = []
    for k in range(na):
        src = str(int(rng.integers(1, nv + 1)))
        dst = str(int(rng.integers(1, nv + 1)))
        if not allow_loops:
            while dst == src:
                dst = str(int(rng.integers(1, nv + 1)))
        arrows.append(Arrow(f"a{k + 1}", src, dst))
    return Quiver(vertices, tuple(arrows))


def random_acyclic_quiver(rng: np.random.Generator) -> Quiver:
    nv = int(rng.integers(2, 5))
    na = int(rng.integers(1, 6))
    vertices = tuple(str(i + 1) for i in range(nv))
    arrows = []
    for k in range(na):
        # arrows only point to strictly larger vertex labels: no cycles
        src = int(rng.integers(1, nv))
        dst = int(rng.integers(src + 1, nv + 1))
        arrows.append(Arrow(f"a{k + 1}", str(src), str(dst)))
    return Quiver(vertices, tuple(arrows))


def random_rep(rng: np.random.Generator, quiver: Quiver,
               max_dim: int = 3, min_dim: int = 0) -> Representation:
    dims = {v: int(rng.integers(min_dim, max_dim + 1)) for v in quiver.vertices}
    if sum(dims.values()) == 0:
        dims[quiver.vertices[0]] = 1
    maps = {a.name: random_complex(rng, (dims[a.dst], dims[a.src]))
            for a in quiver.arrows}
    return Representation(quiver, dims, maps)


def conjugate(rep: Representation, rng: np.random.Generator) -> Representation:
    """Isomorphic copy through a random well-conditioned basis change."""
    phi = {}
    for v in rep.quiver.vertices:
        d = rep.dims[v]
        phi[v] = random_complex(rng, (d, d)) + 2.0 * np.eye(d)
    maps = {a.name: phi[a.dst] @ rep.maps[a.name] @ np.linalg.inv(phi[a.src])
            for a in rep.quiver.arrows}
    return Representation(rep.quiver, dict(rep.dims), maps)


def rotate(rep: Representation, rng: np.random.Generator) -> Representation:
    """Unitarily equivalent copy through a random unitary at each vertex."""
    u = {v: np.linalg.qr(random_complex(rng, (k, k)))[0] for v, k in rep.dims.items()}
    maps = {a.name: u[a.dst] @ rep.maps[a.name] @ u[a.src].conj().T for a in rep.quiver.arrows}
    return Representation(rep.quiver, dict(rep.dims), maps)


def random_decomposable(rng: np.random.Generator, quiver: Quiver,
                        max_dim: int = 2) -> Representation:
    a = random_rep(rng, quiver, max_dim=max_dim)
    b = random_rep(rng, quiver, max_dim=max_dim)
    return conjugate(direct_sum(a, b), rng)


def real_well_conditioned(rng: np.random.Generator, k: int) -> np.ndarray:
    """A random real k x k matrix of condition number 10, stored as complex."""
    left, right = (np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(2))
    return (left @ np.diag(np.logspace(0, 1, k)) @ right).astype(complex)


def conjugated_jordan(rng: np.random.Generator, blocks: list[tuple[complex, int]],
                      real: bool = False) -> tuple[np.ndarray, int]:
    """S J S^-1 for the Jordan matrix J with the given (eigenvalue, size) blocks
    and a random well-conditioned S, with the dimension of its commutant: the
    sum over pairs of blocks at one eigenvalue of the smaller size.  With
    ``real`` S is real (:func:`real_well_conditioned`), so for real
    eigenvalues the result is real."""
    k = sum(p for _, p in blocks)
    jordan = np.zeros((k, k), dtype=complex)
    pos = 0
    for lam, p in blocks:
        jordan[pos:pos + p, pos:pos + p] = jordan_block(lam, p)
        pos += p
    s = real_well_conditioned(rng, k) if real else random_complex(rng, (k, k)) + 2.0 * np.eye(k)
    commutant = sum(min(p, q) for lam, p in blocks for mu, q in blocks if lam == mu)
    return s @ jordan @ np.linalg.inv(s), commutant


def assert_stacked(a: Representation, b: Representation, basis) -> None:
    """A basis of Hom(a, b) holds one (dimension, b.dims[v], a.dims[v]) stack
    per vertex, and its batched residual is the largest per-element one."""
    for v in a.quiver.vertices:
        assert basis.stacks[v].shape == (basis.dimension, b.dims[v], a.dims[v])
    per_element = max((intertwining_residual(a, b, t) for t in basis), default=0.0)
    assert np.isclose(intertwining_residual(a, b, basis.stacks), per_element, rtol=1e-12, atol=0)


def forest_hom(a: Representation, b: Representation):
    """Hom(a, b) solved on its spanning forest alone, with no Krylov read and
    no dense fallback: the forest's own answer, asserted to pass both of
    hom's guards, a nullspace gap of at least elim_gap and every element's
    intertwining residual at most hom_tol(hom_scale), so hom would keep it."""
    basis = _solve(a, b, DEFAULT_TOL, _spanning_forest(a, b, DEFAULT_TOL))
    assert basis.gap >= DEFAULT_TOL.elim_gap()
    assert intertwining_residual(a, b, basis.stacks) <= DEFAULT_TOL.hom_tol(hom_scale(a, b))
    return basis


def rep_allclose(a: Representation, b: Representation, atol: float = 1e-12) -> bool:
    """Structural equality up to entrywise tolerance (same quiver and dims)."""
    if a.quiver != b.quiver or a.dims != b.dims:
        return False
    return all(np.allclose(a.maps[k], b.maps[k], atol=atol) for k in a.maps)


def relatively_prime(a: Representation, b: Representation,
                     tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff Hom(a, b) and Hom(b, a) are both zero."""
    return hom(a, b, tol).dimension == 0 and hom(b, a, tol).dimension == 0


def polynomial_model(t: np.ndarray, coeffs) -> Representation:
    """The Kronecker model (sum_k coeffs[k] T^k, T, T^2, ..., T^n) of T, n = len(coeffs) - 1."""
    t = np.asarray(t, dtype=complex)
    powers = [np.eye(t.shape[0], dtype=complex)]
    for _ in coeffs[1:]:
        powers.append(powers[-1] @ t)
    return kronecker_rep(sum(c * p for c, p in zip(coeffs, powers)), *powers[1:])


def bilateral_index(k: int, n: int) -> int:
    """Row/column position of the bilateral basis vector e_k, k in -n..n."""
    return k + n


def span_residual(alg: AlgebraBasis, matrix: np.ndarray) -> float:
    """Distance from ``matrix`` to the span of the orthonormal basis of ``alg``."""
    vec = matrix.reshape(-1)
    rows = alg.basis.reshape(alg.dimension, vec.size)
    return float(np.linalg.norm(vec - rows.T @ (rows.conj() @ vec)))


def system_end(system: SubspaceSystem, tol: Tolerances = DEFAULT_TOL) -> AlgebraBasis:
    """Orthonormal basis of the system's End: End of its subspace-quiver
    representation read at the sink, re-orthonormalized by one QR."""
    d = system.ambient_dim
    check_unknowns("subspace system", d * d)
    if d == 0 or not system.inclusions:
        return AlgebraBasis(d, np.eye(d * d, dtype=complex).reshape(d * d, d, d), d * d, 0.0)
    basis = end(system_to_rep(system, tol, check=False), tol)
    k = basis.dimension
    q, _ = np.linalg.qr(basis.stacks[str(system.n_subspaces + 1)].reshape(k, d * d).T)
    return AlgebraBasis(d, q.T.reshape(k, d, d), k, basis.cutoff, basis.gap)


@dataclass(frozen=True, eq=False)
class CrossHomReport:
    """Hom space between two bilateral-weight models with different bases."""

    n: int
    lam: float
    mu: float
    dimension: int
    recursion_passed: bool
    max_residual: float
    tolerance: float


def cross_model_hom(lam: float, mu: float, n: int,
                    tol: Tolerances = DEFAULT_TOL) -> CrossHomReport:
    """Hom(hrr_model(n, lam), hrr_model(n, mu)), checked against the cross-weight recursion."""
    rep_lam = hrr_model(n, lam, tol)
    rep_mu = hrr_model(n, mu, tol)
    basis = hom(rep_lam, rep_mu, tol)
    tau = tol.hom_tol(hom_scale(rep_lam, rep_mu))
    worst = float(np.max(_recursion_residual(basis.stacks["2"], hrr_log_w(n, mu),
                                             hrr_log_w(n, lam)), initial=0.0))
    return CrossHomReport(n, lam, mu, basis.dimension, worst <= tau, worst, tau)
