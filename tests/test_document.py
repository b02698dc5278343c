import json

import numpy as np
import pytest

from quiverrep import ValidationError, example_reps, jordan_block, make_system
from quiverrep.document import (detect_kind, matrix_from_json, matrix_to_json,
                                operator_from_json, operator_to_json,
                                quiver_from_json, quiver_to_json, rep_from_json,
                                rep_to_json, system_from_json, system_to_json)
from quiverrep.rep import rep_allclose


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
