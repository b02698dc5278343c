"""JSON document formats for quivers, representations, subspace systems and
single operators.

A representation document is an object with keys "quiver" (vertices plus
arrows with name/src/dst), "dims" (vertex -> nonnegative integer) and "maps"
(arrow -> row-major matrix whose entries are [re, im] pairs).  An optional
"meta" object carries builder provenance (model name, params, seed,
finite_truncation).  Parsers reject malformed input with positional messages;
a matrix entry must be a pair of finite JSON numbers (booleans, NaN and
Infinity are rejected).

Documents are written by ``dumps`` as one line of JSON with sorted keys, so
CPython's C encoder writes them; ``python -m json.tool`` pretty-prints one.
A well-formed matrix is parsed by NumPy in one call; any matrix that call
declines is walked entry by entry, which is where the positional messages
come from.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .errors import ValidationError
from .quiver import Arrow, Quiver
from .rep import Representation
from .subspaces import SubspaceSystem, make_system
from .numerics import DEFAULT_TOL, Tolerances


def matrix_to_json(matrix: np.ndarray) -> list:
    m = np.asarray(matrix, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _finite_number(x: Any) -> bool:
    """A JSON number (not a boolean) inside the float range, not NaN or Infinity."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _fast_matrix(data: list, rows: int, cols: int) -> np.ndarray | None:
    """The matrix of a well-formed nonempty ``data`` in one NumPy call, or None.

    Rows and entries must be lists and every leaf an int or a float (``bool``
    is neither here), the array must have shape (rows, cols, 2) and be
    finite; an empty matrix never has that shape.  Viewing each [re, im]
    float pair as one complex keeps every bit, -0.0 included, as
    ``complex(re, im)`` does."""
    if not set(map(type, data)) <= {list}:
        return None
    entries = list(chain.from_iterable(data))
    if (not set(map(type, entries)) <= {list}
            or not set(map(type, chain.from_iterable(entries))) <= {float, int}):
        return None
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != (rows, cols, 2) or not np.isfinite(arr).all():
        return None
    return arr.view(complex)[..., 0]


def matrix_from_json(data: Any, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(data, list):
        raise ValidationError(f"{where}: expected a list of rows")
    if len(data) != rows:
        raise ValidationError(f"{where}: expected {rows} rows, got {len(data)}")
    fast = _fast_matrix(data, rows, cols)
    if fast is not None:
        return fast
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ValidationError(f"{where}, row {i + 1}: expected {cols} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(_finite_number(x) for x in entry)):
                raise ValidationError(
                    f"{where}, row {i + 1}, column {j + 1}: "
                    "entries are [re, im] pairs of finite numbers"
                )
            out[i, j] = complex(entry[0], entry[1])
    return out


def quiver_to_json(quiver: Quiver) -> dict:
    return {
        "vertices": list(quiver.vertices),
        "arrows": [{"name": a.name, "src": a.src, "dst": a.dst} for a in quiver.arrows],
    }


def quiver_from_json(data: Any) -> Quiver:
    if not isinstance(data, dict):
        raise ValidationError("quiver: expected an object")
    vertices = data.get("vertices")
    arrows = data.get("arrows")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValidationError("quiver.vertices: expected a list of strings")
    if not isinstance(arrows, list):
        raise ValidationError("quiver.arrows: expected a list")
    parsed = []
    for i, a in enumerate(arrows):
        if (not isinstance(a, dict)
                or not all(isinstance(a.get(k), str) for k in ("name", "src", "dst"))):
            raise ValidationError(
                f"quiver.arrows[{i}]: expected an object with string name/src/dst"
            )
        parsed.append(Arrow(a["name"], a["src"], a["dst"]))
    return Quiver(tuple(vertices), tuple(parsed))


def _meta(data: dict) -> dict:
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ValidationError("meta: expected an object")
    return meta


def rep_to_json(rep: Representation, meta: dict | None = None) -> dict:
    doc = {
        "quiver": quiver_to_json(rep.quiver),
        "dims": dict(rep.dims),
        "maps": {name: matrix_to_json(m) for name, m in rep.maps.items()},
    }
    if meta:
        doc["meta"] = meta
    return doc


def rep_from_json(data: Any) -> tuple[Representation, dict]:
    """Parse a representation document; returns (representation, meta)."""
    if not isinstance(data, dict):
        raise ValidationError("document: expected a JSON object")
    for key in ("quiver", "dims", "maps"):
        if key not in data:
            raise ValidationError(f"document: missing key {key!r}")
    quiver = quiver_from_json(data["quiver"])
    dims_raw = data["dims"]
    if not isinstance(dims_raw, dict):
        raise ValidationError("dims: expected an object")
    dims = {}
    for v, d in dims_raw.items():
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise ValidationError(f"dims[{v!r}]: expected a nonnegative integer")
        dims[v] = d
    maps_raw = data["maps"]
    if not isinstance(maps_raw, dict):
        raise ValidationError("maps: expected an object")
    maps = {}
    for a in quiver.arrows:
        if a.name not in maps_raw:
            raise ValidationError(f"maps: missing matrix for arrow {a.name!r}")
        rows = dims.get(a.dst)
        cols = dims.get(a.src)
        if rows is None or cols is None:
            missing = a.dst if rows is None else a.src
            raise ValidationError(f"dims: missing vertex {missing!r}")
        maps[a.name] = matrix_from_json(maps_raw[a.name], rows, cols, f"maps[{a.name!r}]")
    extra = [name for name in maps_raw if name not in maps]
    if extra:
        raise ValidationError(f"maps[{extra[0]!r}]: the quiver has no arrow of that name")
    return Representation(quiver, dims, maps), _meta(data)


def system_to_json(system: SubspaceSystem, meta: dict | None = None) -> dict:
    doc = {
        "ambient_dim": system.ambient_dim,
        "inclusions": [matrix_to_json(inc) for inc in system.inclusions],
    }
    if meta:
        doc["meta"] = meta
    return doc


def system_from_json(data: Any, tol: Tolerances = DEFAULT_TOL) -> tuple[SubspaceSystem, dict]:
    if not isinstance(data, dict):
        raise ValidationError("document: expected a JSON object")
    if "ambient_dim" not in data or "inclusions" not in data:
        raise ValidationError("system document needs keys 'ambient_dim' and 'inclusions'")
    d = data["ambient_dim"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ValidationError("ambient_dim: expected a nonnegative integer")
    raw = data["inclusions"]
    if not isinstance(raw, list):
        raise ValidationError("inclusions: expected a list of matrices")
    mats = []
    for i, inc in enumerate(raw):
        if not isinstance(inc, list) or (inc and not isinstance(inc[0], list)):
            raise ValidationError(f"inclusions[{i}]: expected a list of rows")
        cols = len(inc[0]) if inc else 0
        mats.append(matrix_from_json(inc, d, cols, f"inclusions[{i}]"))
    return make_system(d, mats, tol), _meta(data)


def operator_from_json(data: Any) -> np.ndarray:
    """Parse a single-operator document: an object with a square "matrix"."""
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValidationError("operator document needs a 'matrix' key")
    raw = data["matrix"]
    if not isinstance(raw, list) or not raw:
        raise ValidationError("matrix: expected a nonempty list of rows")
    n = len(raw)
    return matrix_from_json(raw, n, n, "matrix")


def operator_to_json(matrix: np.ndarray) -> dict:
    return {"matrix": matrix_to_json(matrix)}


def detect_kind(data: Any) -> str:
    """Classify a parsed JSON object as representation, system or operator."""
    if isinstance(data, dict):
        if "quiver" in data:
            return "representation"
        if "inclusions" in data:
            return "system"
        if "matrix" in data:
            return "operator"
    raise ValidationError(
        "unrecognized document: expected representation (quiver/dims/maps), "
        "system (ambient_dim/inclusions) or operator (matrix)"
    )


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)
