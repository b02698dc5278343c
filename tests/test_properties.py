"""Property tests with fixed seeds: hypothesis runs derandomized, so every run
draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverrep import end, from_operator, system_end

from helpers import conjugated_jordan, loop_rep

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
