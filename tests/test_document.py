import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverrep import (Arrow, Quiver, Representation, ValidationError, example_reps,
                       jordan_block, make_system)
from quiverrep.document import (detect_kind, dumps, matrix_from_json, matrix_to_json,
                                operator_from_json, operator_to_json,
                                quiver_from_json, quiver_to_json, rep_from_json,
                                rep_to_json, system_from_json, system_to_json)

from helpers import rep_allclose


def test_matrix_roundtrip():
    m = np.array([[1 + 2j, 0], [0.5, -1j]])
    data = matrix_to_json(m)
    assert data[0][0] == [1.0, 2.0]
    back = matrix_from_json(data, 2, 2, "m")
    assert np.allclose(back, m)


def test_matrix_zero_rows_and_columns():
    assert matrix_from_json([], 0, 3, "m").shape == (0, 3)
    assert matrix_from_json([[], []], 2, 0, "m").shape == (2, 0)


def test_matrix_positional_errors():
    with pytest.raises(ValidationError, match="expected 2 rows"):
        matrix_from_json([[[1, 0]]], 2, 1, "m")
    with pytest.raises(ValidationError, match="row 1"):
        matrix_from_json([[[1, 0], [2, 0]]], 1, 1, "m")
    with pytest.raises(ValidationError, match="row 1, column 1"):
        matrix_from_json([[[1, 0, 0]]], 1, 1, "m")
    with pytest.raises(ValidationError, match="row 1, column 1"):
        matrix_from_json([[["x", 0]]], 1, 1, "m")


@pytest.mark.parametrize("entry", [
    [True, False], [1.0, True],                       # booleans are not numbers
    [float("nan"), 0.0], [0.0, float("inf")], [float("-inf"), 1.0],
    [10 ** 400, 0],                                   # beyond the float range
])
def test_matrix_rejects_booleans_and_non_finite_entries(entry):
    with pytest.raises(ValidationError, match="row 2, column 1: .*finite"):
        matrix_from_json([[[1, 0]], [entry]], 2, 1, "m")


def test_non_finite_entries_rejected_in_every_document_kind():
    # json.loads reads the literals NaN and Infinity as floats
    sys_doc = system_to_json(make_system(2, [np.array([[1.0], [0.0]])]))
    sys_doc["inclusions"][0][1][0] = json.loads("[NaN, 0.0]")
    with pytest.raises(ValidationError, match=r"inclusions\[0\], row 2, column 1"):
        system_from_json(sys_doc)
    rep_doc = rep_to_json(example_reps("ex2", 2))
    rep_doc["maps"]["a1"][0][0] = [True, False]
    with pytest.raises(ValidationError, match=r"maps\['a1'\], row 1, column 1"):
        rep_from_json(rep_doc)
    with pytest.raises(ValidationError, match="matrix, row 1, column 1"):
        operator_from_json({"matrix": [[[float("inf"), 0.0]]]})


@pytest.mark.parametrize("inclusions", [[[1]], [[None]], [["row"]], [[[1, 0]]]])
def test_system_inclusion_rows_must_be_lists(inclusions):
    with pytest.raises(ValidationError, match=r"inclusions\[0\]"):
        system_from_json({"ambient_dim": 1, "inclusions": inclusions})


def test_quiver_roundtrip():
    rep = example_reps("ex4", 2)
    data = quiver_to_json(rep.quiver)
    assert quiver_from_json(data) == rep.quiver


def test_rep_roundtrip_with_meta():
    rep = example_reps("ex9", 3)
    doc = rep_to_json(rep, meta={"model": "ex9", "finite_truncation": True})
    back, meta = rep_from_json(doc)
    assert rep_allclose(back, rep)
    assert meta["model"] == "ex9"


def test_rep_document_missing_key():
    doc = rep_to_json(example_reps("ex2", 2))
    del doc["maps"]
    with pytest.raises(ValidationError, match="maps"):
        rep_from_json(doc)


def test_rep_document_shape_mismatch_names_arrow():
    doc = rep_to_json(example_reps("ex2", 2))
    doc["maps"]["a1"] = [[[0.0, 0.0]]]
    with pytest.raises(ValidationError, match="a1"):
        rep_from_json(doc)


def test_rep_document_bad_dims():
    doc = rep_to_json(example_reps("ex2", 2))
    doc["dims"]["1"] = -1
    with pytest.raises(ValidationError, match="dims"):
        rep_from_json(doc)


def test_system_roundtrip():
    sys1 = make_system(2, [np.array([[1.0], [0.0]]), np.eye(2)])
    doc = system_to_json(sys1)
    back, _ = system_from_json(doc)
    assert back.ambient_dim == 2
    assert back.subspace_dims() == (1, 2)


def test_operator_roundtrip():
    m = jordan_block(0.5, 3)
    back = operator_from_json(operator_to_json(m))
    assert np.allclose(back, m)


def test_operator_must_be_square():
    with pytest.raises(ValidationError):
        operator_from_json({"matrix": [[[1, 0], [2, 0]]]})


def test_detect_kind():
    assert detect_kind(rep_to_json(example_reps("ex2", 2))) == "representation"
    assert detect_kind(system_to_json(make_system(1, [np.eye(1)]))) == "system"
    assert detect_kind(operator_to_json(np.eye(2))) == "operator"
    with pytest.raises(ValidationError):
        detect_kind({"foo": 1})


def test_rep_document_rejects_a_matrix_for_an_unknown_arrow():
    doc = rep_to_json(example_reps("ex3", 2))
    doc["maps"]["a9"] = doc["maps"]["a1"]
    with pytest.raises(ValidationError, match=r"maps\['a9'\]: the quiver has no arrow"):
        rep_from_json(doc)


def test_system_document_meta_must_be_an_object():
    doc = system_to_json(make_system(1, [np.eye(1)]), meta={"model": "x"})
    assert system_from_json(doc)[1] == {"model": "x"}
    doc["meta"] = [1, 2]
    with pytest.raises(ValidationError, match="meta: expected an object"):
        system_from_json(doc)


@pytest.mark.parametrize("meta", [[1, 2], [], 0, False, "", None])
def test_meta_is_absent_or_an_object_in_both_document_kinds(meta):
    # a falsy non-object is no more an object than a truthy one
    docs = [(system_to_json(make_system(1, [np.eye(1)])), system_from_json),
            (rep_to_json(example_reps("ex2", 2)), rep_from_json)]
    for doc, parse in docs:
        assert "meta" not in doc and parse(doc)[1] == {}
        doc["meta"] = meta
        with pytest.raises(ValidationError, match="meta: expected an object"):
            parse(doc)


# leaves at the edges of the float range: signed zeros, subnormals, the
# largest magnitudes and integers that a float cannot hold exactly
edge_leaves = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 2 ** 53 + 1, 2 ** 63 + 1025,
                     2 ** 64 - 1, -(2 ** 63) - 1025, -(2 ** 64) - 1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2 ** 53), 2 ** 53),
    st.integers(2 ** 53 + 1, 2 ** 1000),
    st.integers(-(2 ** 1000), -(2 ** 53) - 1),
)


@st.composite
def json_matrices(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pair = st.lists(edge_leaves, min_size=2, max_size=2)
    row = st.lists(pair, min_size=cols, max_size=cols)
    return rows, cols, draw(st.lists(row, min_size=rows, max_size=rows))


def _entrywise(data, rows, cols):
    """The matrix of ``data`` built one ``complex(re, im)`` at a time."""
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        for j, (re, im) in enumerate(row):
            out[i, j] = complex(re, im)
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(matrix=json_matrices())
def test_parsed_matrix_is_bit_identical_to_entrywise_complex(matrix):
    rows, cols, data = matrix
    expected = _entrywise(data, rows, cols)
    assert _same_bits(matrix_from_json(data, rows, cols, "m"), expected)
    quiver = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    rep = Representation(quiver, {"1": cols, "2": rows}, {"a": expected})
    back, _ = rep_from_json(json.loads(dumps(rep_to_json(rep))))
    assert _same_bits(back.maps["a"], rep.maps["a"])


BAD_ENTRIES = {
    "true": [True, 0.0],
    "NaN": json.loads("[NaN, 0.0]"),
    "10**400": [10 ** 400, 0],
    "None": None,
    "None leaf": [0.0, None],
    "string": "1+2j",
    "string leaf": ["1", 0.0],
    "three-element pair": [1.0, 2.0, 3.0],
    "tuple pair": (1.0, 2.0),
}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(6, 9), where=st.tuples(st.integers(0, 8), st.integers(0, 8)),
       bad=st.sampled_from(sorted(BAD_ENTRIES) + ["ragged row"]))
def test_one_bad_entry_is_named_by_row_and_column(n, where, bad):
    # whatever the one-call parse declines, the entrywise walk names
    i, j = where[0] % n, where[1] % n
    data = matrix_to_json(np.arange(n * n).reshape(n, n) * (1 - 0.5j))
    if bad == "ragged row":
        data[i] = data[i][:j] if j else data[i] + [[0.0, 0.0]]
        message = rf"m, row {i + 1}: expected {n} entries"
    else:
        data[i][j] = BAD_ENTRIES[bad]
        message = rf"m, row {i + 1}, column {j + 1}: entries are \[re, im\] pairs"
    with pytest.raises(ValidationError, match=message):
        matrix_from_json(data, n, n, "m")
