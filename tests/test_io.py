"""JSON tensor serialization and CSV trace export."""

import json

import numpy as np
import pytest

from curvkit.core import CurvatureError, CurvatureTensor, model_sphere
from curvkit.flow import FlowConfig, integrate_q_flow
from curvkit.frames import OptimizerConfig
from curvkit.tensor_io import (FORMAT_NAME, load_tensor, save_tensor,
                               tensor_from_dict, tensor_to_dict,
                               write_trace_csv)

from helpers import random_curvature, raw_tensor


def test_roundtrip_exact(tmp_path):
    R = random_curvature(6, seed=80)
    p = tmp_path / "r.json"
    save_tensor(R, p)
    S = load_tensor(p)
    assert S.n == R.n
    np.testing.assert_array_equal(S.mat, R.mat)


def test_label_preserved(tmp_path):
    R = model_sphere(4, 2.0)
    p = tmp_path / "s.json"
    save_tensor(R, p)
    assert load_tensor(p).label == R.label


def test_save_rejects_non_finite(tmp_path):
    p = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        save_tensor(raw_tensor(4, np.full((6, 6), np.nan)), p)
    assert not p.exists()


def test_dict_shape():
    d = tensor_to_dict(model_sphere(4, 1.0))
    assert d["format"] == FORMAT_NAME
    assert d["n"] == 4
    assert len(d["coeffs"]) == 36
    json.dumps(d)   # strictly serializable


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(format="other"),
    lambda d: d.pop("n"),
    lambda d: d.update(coeffs=d["coeffs"][:-1]),
    lambda d: d.update(n=5),
    lambda d: d.update(coeffs="not numbers"),
    lambda d: d.update(coeffs=[float("nan")] * len(d["coeffs"])),
    lambda d: d["coeffs"].__setitem__(0, float("inf")),
])
def test_reject_malformed_dict(mutate):
    d = tensor_to_dict(model_sphere(4, 1.0))
    mutate(d)
    with pytest.raises(CurvatureError):
        tensor_from_dict(d)


def test_from_rank4_rejects_non_finite():
    T = model_sphere(4, 1.0).rank4.copy()
    T[0, 1, 0, 1] = np.nan
    with pytest.raises(CurvatureError):
        CurvatureTensor.from_rank4(T)
    T[0, 1, 0, 1] = -np.inf
    with pytest.raises(CurvatureError):
        CurvatureTensor.from_rank4(T)


def test_reject_asymmetric_coeffs():
    d = tensor_to_dict(model_sphere(4, 1.0))
    d["coeffs"] = list(d["coeffs"])
    d["coeffs"][1] += 1e-3     # breaks mat symmetry
    with pytest.raises(CurvatureError):
        tensor_from_dict(d)


def test_reject_bianchi_violation():
    d = tensor_to_dict(model_sphere(4, 1.0))
    c = np.array(d["coeffs"], dtype=float).reshape(6, 6)
    c[0, 5] += 0.5
    c[5, 0] += 0.5             # symmetric but fails the cyclic identity
    d["coeffs"] = c.ravel().tolist()
    with pytest.raises(CurvatureError):
        tensor_from_dict(d)


def test_reject_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(CurvatureError):
        load_tensor(p)


def test_trace_csv(tmp_path):
    opt = OptimizerConfig(restarts=2, max_iters=200, seed=0)
    _, trace = integrate_q_flow(model_sphere(4, 1.0),
                                FlowConfig(t_end=0.02, monitor_every=5,
                                           optimizer=opt))
    p = tmp_path / "trace.csv"
    write_trace_csv(trace, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "t,scal,min_iso,norm"
    assert len(lines) == 1 + len(trace.times)
    row = [float(x) for x in lines[-1].split(",")]
    assert row[0] == trace.times[-1]
    assert row[1] == trace.scalars[-1]
    assert row[3] == trace.norm[-1]
