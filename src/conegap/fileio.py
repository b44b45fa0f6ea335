"""Strict JSON input formats and canonical serialization.

Complex numbers are two-element arrays [re, im] everywhere. Parsers reject
unknown keys, wrong types, and non-finite numbers, and report the offending
field. Serialization is canonical: sorted keys, numbers at 17 significant
digits, infinities as the strings "inf" / "-inf", so identical inputs
always produce byte-identical output.

Formats:
  matrix  {"rows": n, "cols": m, "data": [[..row-major [re, im]..]]}
  vectors {"dim": n, "vectors": [[..n pairs..], ...]}
  kernel  {"points": [..], "weights": [..], "values": [[..pairs..]]}
"""

import json
import math

import numpy as np

from .kernel import KernelGrid

__all__ = [
    "ParseError",
    "parse_matrix",
    "parse_vectors",
    "parse_kernel",
    "serialize_matrix",
    "serialize_vectors",
    "serialize_kernel",
    "kernel_document",
    "canonical_json",
    "complex_pair",
]


class ParseError(ValueError):
    """Malformed input file, with the path and the field that failed."""

    def __init__(self, path: str, where: str, message: str):
        self.path = path
        self.where = where
        super().__init__(f"{path}: {where}: {message}")


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ParseError(path, "-", str(e)) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(path, f"line {e.lineno} column {e.colno}", e.msg) from None


def _expect_keys(doc, keys: set, path: str):
    if not isinstance(doc, dict):
        raise ParseError(path, "top level", "expected a JSON object")
    for k in doc:
        if k not in keys:
            raise ParseError(path, k, "unknown key")
    for k in keys:
        if k not in doc:
            raise ParseError(path, k, "missing key")


def _real(obj, path: str, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ParseError(path, where, "expected a number")
    v = float(obj)
    if not math.isfinite(v):
        raise ParseError(path, where, "number must be finite")
    return v


def _int(obj, path: str, where: str, minimum: int) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(path, where, "expected an integer")
    if obj < minimum:
        raise ParseError(path, where, f"must be >= {minimum}")
    return obj


def _complex(obj, path: str, where: str) -> complex:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ParseError(path, where, "expected a [re, im] pair")
    return complex(_real(obj[0], path, where + "[0]"), _real(obj[1], path, where + "[1]"))


def _list(obj, path: str, where: str, length: int | None = None) -> list:
    if not isinstance(obj, list):
        raise ParseError(path, where, "expected an array")
    if length is not None and len(obj) != length:
        raise ParseError(path, where, f"expected {length} entries, got {len(obj)}")
    return obj


def _table(obj, path: str, where: str, rows: int | None, cols: int) -> np.ndarray:
    """A JSON array of rows arrays of cols [re, im] pairs (any number if rows is None), as complex."""
    table = _list(obj, path, where, rows)
    out = np.empty((len(table), cols), dtype=complex)
    for i, row in enumerate(table):
        for j, entry in enumerate(_list(row, path, f"{where}[{i}]", cols)):
            out[i, j] = _complex(entry, path, f"{where}[{i}][{j}]")
    return out


def parse_matrix(path: str) -> np.ndarray:
    """Strictly parse a matrix file into a complex ndarray."""
    doc = _load(path)
    _expect_keys(doc, {"rows", "cols", "data"}, path)
    rows = _int(doc["rows"], path, "rows", 1)
    cols = _int(doc["cols"], path, "cols", 1)
    return _table(doc["data"], path, "data", rows, cols)


def parse_vectors(path: str) -> list[np.ndarray]:
    """Strictly parse a vector-set file into a list of complex vectors."""
    doc = _load(path)
    _expect_keys(doc, {"dim", "vectors"}, path)
    dim = _int(doc["dim"], path, "dim", 1)
    vectors = _table(doc["vectors"], path, "vectors", None, dim)
    if not len(vectors):
        raise ParseError(path, "vectors", "need at least one vector")
    return list(vectors)


def parse_kernel(path: str) -> KernelGrid:
    """Strictly parse a kernel-grid file."""
    doc = _load(path)
    _expect_keys(doc, {"points", "weights", "values"}, path)
    points = [_real(v, path, f"points[{i}]") for i, v in enumerate(_list(doc["points"], path, "points"))]
    n = len(points)
    if n < 2:
        raise ParseError(path, "points", "need at least two grid points")
    weights = [_real(v, path, f"weights[{i}]") for i, v in enumerate(_list(doc["weights"], path, "weights", n))]
    values = _table(doc["values"], path, "values", n, n)
    try:
        return KernelGrid(points, weights, values)
    except ValueError as e:
        raise ParseError(path, "-", str(e)) from None


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            out.append('"nan"')
        elif math.isinf(v):
            out.append('"inf"' if v > 0 else '"-inf"')
        else:
            out.append(format(v, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if k:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17 significant digits, 'inf' strings."""
    out: list = []
    _emit(obj, out)
    return "".join(out)


def serialize_matrix(A) -> str:
    """Canonical text of a matrix in the matrix file format."""
    M = np.asarray(A, dtype=complex)
    return canonical_json({
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": [[complex_pair(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])],
    })


def serialize_vectors(vectors) -> str:
    """Canonical text of a vector set in the vectors file format."""
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    dim = vecs[0].size
    if any(v.size != dim for v in vecs):
        raise ValueError("all vectors must share one dimension")
    return canonical_json({
        "dim": dim,
        "vectors": [[complex_pair(z) for z in v] for v in vecs],
    })


def kernel_document(grid: KernelGrid) -> dict:
    """A kernel grid as the JSON document of the kernel file format."""
    n = grid.n
    return {
        "points": [float(p) for p in grid.points],
        "weights": [float(w) for w in grid.weights],
        "values": [[complex_pair(grid.values[i, j]) for j in range(n)] for i in range(n)],
    }


def serialize_kernel(grid: KernelGrid) -> str:
    """Canonical text of a kernel grid in the kernel file format."""
    return canonical_json(kernel_document(grid))
