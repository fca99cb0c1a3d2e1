"""Serialization: curvature tensors as JSON, flow traces as CSV.

The on-disk tensor format is ``lambda2_sym_dense``: the symmetric matrix of
the tensor on the lexicographic 2-form basis, stored row-major as a flat
list of JSON numbers, and an optional string label.  Reading validates the
entry and label types, shape, finiteness, symmetry and the cyclic sum
identity before returning a tensor, so a file that parses is safe to
compute with.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .core import CurvatureError, CurvatureTensor, _require_bianchi, num_pairs

FORMAT_NAME = "lambda2_sym_dense"
READ_TOL = 1e-9


def tensor_to_dict(R: CurvatureTensor) -> dict:
    d = {"format": FORMAT_NAME, "n": R.n, "coeffs": R.mat.ravel().tolist()}
    if R.label:
        d["label"] = R.label
    return d


def tensor_from_dict(d: dict) -> CurvatureTensor:
    try:
        fmt, n, coeffs = d["format"], d["n"], d["coeffs"]
    except (KeyError, TypeError) as exc:
        raise CurvatureError(f"missing tensor field: {exc}") from None
    if fmt != FORMAT_NAME:
        raise CurvatureError(f"unsupported format {fmt!r}")
    if not isinstance(n, int) or n < 2:
        raise CurvatureError(f"invalid dimension {n!r}")
    N = num_pairs(n)
    # JSON numbers only: asarray would also read "1.0", true and nested lists
    if not isinstance(coeffs, list) or not set(map(type, coeffs)) <= {int, float}:
        raise CurvatureError("coefficients are not a flat list of numbers")
    try:
        mat = np.asarray(coeffs, dtype=float)
    except OverflowError:
        raise CurvatureError("coefficients contain an integer too large for a float") from None
    if mat.size != N * N:
        raise CurvatureError(f"expected {N * N} coefficients for n={n}, got {mat.size}")
    mat = mat.reshape(N, N)
    if not np.all(np.isfinite(mat)):
        raise CurvatureError("coefficients contain NaN or infinite values")
    scale = max(1.0, float(np.max(np.abs(mat))))
    sym = float(np.max(np.abs(mat - mat.T)))
    if sym > READ_TOL * scale:
        raise CurvatureError(f"coefficient matrix is not symmetric: defect {sym:.3e}")
    label = d.get("label", "")
    if not isinstance(label, str):
        raise CurvatureError(f"label must be a string, got {label!r}")
    R = CurvatureTensor(n, mat, label=label)
    _require_bianchi(R.mat, n, "coefficient matrix", READ_TOL)
    return R


def save_tensor(R: CurvatureTensor, path) -> None:
    Path(path).write_text(json.dumps(tensor_to_dict(R), sort_keys=True, allow_nan=False))


def load_tensor(path) -> CurvatureTensor:
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CurvatureError(f"not valid JSON: {exc}") from None
    return tensor_from_dict(d)


def write_trace_csv(trace, path) -> None:
    """Write a flow trace as CSV with columns t, scal, min_iso, norm."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "scal", "min_iso", "norm"])
        for row in zip(trace.times, trace.scalars, trace.min_iso, trace.norm):
            w.writerow([repr(float(v)) for v in row])
