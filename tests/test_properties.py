"""Property tests with fixed seeds: hypothesis runs derandomized, so every run
draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverrep import (KroneckerFamily, Representation, are_isomorphic, build_family,
                       decompose, direct_sum, end, from_operator, hom, remove_loops,
                       rep_to_system, system_end, system_to_rep)
from quiverrep.kronecker import FAMILY_KINDS
from quiverrep.numerics import random_complex
from quiverrep.structure import widest_two_group_split

from helpers import conjugated_jordan, loop_rep
from oracles import agglomerative_two_group_split

# Jordan types of total size 1..5 with eigenvalues in a small set, so that
# blocks often share an eigenvalue
jordan_types = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, -2.0, 1.5j]), st.integers(1, 3)),
    min_size=1, max_size=4,
).filter(lambda blocks: sum(p for _, p in blocks) <= 5)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(blocks=jordan_types, seed=st.integers(0, 2**32 - 1))
def test_end_preserved_through_from_operator(blocks, seed):
    mat, commutant = conjugated_jordan(np.random.default_rng(seed), blocks)
    assert end(loop_rep(mat)).dimension == commutant
    assert system_end(from_operator(mat)).dimension == commutant


@settings(derandomize=True, deadline=None, max_examples=40)
@given(blocks=jordan_types, seed=st.integers(0, 2**32 - 1))
def test_end_preserved_through_rep_to_system_and_back(blocks, seed):
    mat, commutant = conjugated_jordan(np.random.default_rng(seed), blocks)
    system = rep_to_system(remove_loops(loop_rep(mat), check=False), check=False)
    assert system_end(system).dimension == commutant
    assert end(system_to_rep(system, check=False)).dimension == commutant


def _cross_gap(first, second):
    return min(abs(a - b) for a in first for b in second)


# values clustered around a few centres, offset by exact zeros (duplicates)
# and by distances on both sides of 1e-8
clustered_values = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, -2.0, 1.5j, 0.3 + 0.3j]),
              st.sampled_from([0.0, 0.0, 1e-12, 4e-9, 1e-8, 3e-8, 1e-6, 0.05])),
    min_size=0, max_size=10,
).map(lambda pts: np.array([c + o for c, o in pts], dtype=complex))
free_values = st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=10).map(
    lambda xs: np.array(xs, dtype=complex))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=st.one_of(clustered_values, free_values),
       threshold=st.sampled_from([0.0, 1e-12, 5e-9, 1e-8, 1e-6, 0.04, 0.5, 2.0]))
def test_widest_split_matches_agglomerative_reference(values, threshold):
    split = widest_two_group_split(values, threshold)
    reference = agglomerative_two_group_split(values, threshold)
    assert (split is None) == (reference is None)
    if split is not None:
        first, second = split
        assert len(first) + len(second) == len(values)
        assert values[0] in first
        assert _cross_gap(first, second) == _cross_gap(*reference)


def _sum(reps):
    total = reps[0]
    for part in reps[1:]:
        total = direct_sum(total, part)
    return total


families = st.builds(KroneckerFamily, st.sampled_from(FAMILY_KINDS), st.integers(1, 3),
                     st.sampled_from([0.0, 1.0]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(parts=st.lists(families, min_size=2, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_decompose_leaves_rebuild_a_hidden_kronecker_sum(parts, seed):
    reps = [build_family(f) for f in parts]
    total = _sum(reps)
    rng = np.random.default_rng(seed)
    unitary = {v: np.linalg.qr(random_complex(rng, (k, k)))[0] for v, k in total.dims.items()}
    rep = Representation(total.quiver, dict(total.dims),
                         {a.name: unitary[a.dst] @ total.maps[a.name] @ unitary[a.src].conj().T
                          for a in total.quiver.arrows})
    leaves = decompose(rep, seed=seed).leaf_reps()
    assert are_isomorphic(_sum(leaves), rep).verdict == "yes"
    assert (sorted(tuple(l.dims.values()) for l in leaves)
            == sorted(tuple(r.dims.values()) for r in reps))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(parts=st.lists(families, min_size=3, max_size=3))
def test_dim_hom_is_additive_over_direct_sums(parts):
    a, b, c = (build_family(f) for f in parts)
    ab = direct_sum(a, b)
    assert hom(ab, c).dimension == hom(a, c).dimension + hom(b, c).dimension
    assert hom(c, ab).dimension == hom(c, a).dimension + hom(c, b).dimension


@settings(derandomize=True, deadline=None, max_examples=60)
@given(parts=st.lists(families, min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_rep_is_isomorphic_to_its_conjugate(parts, seed):
    rep = _sum([build_family(f) for f in parts])
    rng = np.random.default_rng(seed)
    change = {v: random_complex(rng, (k, k)) + 2.0 * np.eye(k) for v, k in rep.dims.items()}
    conjugate = Representation(rep.quiver, dict(rep.dims),
                               {a.name: change[a.dst] @ rep.maps[a.name]
                                @ np.linalg.inv(change[a.src]) for a in rep.quiver.arrows})
    assert are_isomorphic(rep, conjugate).verdict == "yes"
