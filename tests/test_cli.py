"""End-to-end command line tests, run in process through main(argv)."""

import json

import numpy as np
import pytest

from curvkit.cli import main
from curvkit.core import model_r0, standard_quaternion_triple
from curvkit.spaces import MAX_BASIS_N
from curvkit.tensor_io import load_tensor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str):
    return json.loads(stdout)


def test_model_then_pinch(tmp_path, capsys):
    p = str(tmp_path / "sphere.json")
    assert main(["model", "--kind", "sphere", "--n", "4", "--param", "1.5",
                 "--out", p]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "--in", p, "--what", "pinch",
                       "--restarts", "8", "--assert-nonneg")
    assert code == 0
    rep = last_json(out)
    assert abs(rep["value"] - 1.5) < 1e-8
    assert rep["what"] == "pinch" and rep["n"] == 4


def test_model_r0_ricci(tmp_path, capsys):
    p = str(tmp_path / "r0.json")
    assert main(["model", "--kind", "r0", "--n", "8", "--out", p]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "--in", p, "--what", "ricci",
                       "--assert-nonneg")
    assert code == 0
    rep = last_json(out)
    np.testing.assert_allclose(rep["eigenvalues"], 4.0, atol=1e-12)
    assert abs(rep["scal"] - 32.0) < 1e-10


def test_model_r0_param_scales(tmp_path):
    p = str(tmp_path / "r0.json")
    assert main(["model", "--kind", "r0", "--n", "8", "--param", "2", "--out", p]) == 0
    np.testing.assert_array_equal(load_tensor(p).mat,
                                  model_r0(standard_quaternion_triple(8), scale=2.0).mat)


def test_fubini_study_iso_min_nonneg(tmp_path, capsys):
    p = str(tmp_path / "fs.json")
    assert main(["model", "--kind", "fubini-study", "--n", "4", "--param", "4",
                 "--out", p]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "--in", p, "--what", "iso-min",
                       "--restarts", "8", "--assert-nonneg", "--tol", "1e-6")
    assert code == 0
    rep = last_json(out)
    assert abs(rep["value"]) < 1e-6
    assert rep["stop_reason"] in ("grad_tol", "line_search_floor", "max_iters")


def test_check_weyl_reports_but_rejects_assert(tmp_path, capsys):
    p = str(tmp_path / "s.json")
    main(["model", "--kind", "sphere", "--n", "5", "--out", p])
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "--in", p, "--what", "weyl")
    assert code == 0
    assert last_json(out)["weyl_norm"] < 1e-10
    code, _, err = run(capsys, "check", "--in", p, "--what", "weyl",
                       "--assert-nonneg")
    assert code == 2 and "assert-nonneg" in err


def test_assert_failure_exits_one(tmp_path, capsys):
    p = str(tmp_path / "neg.json")
    main(["model", "--kind", "sphere", "--n", "4", "--param", "-1", "--out", p])
    capsys.readouterr()
    code, _, _ = run(capsys, "check", "--in", p, "--what", "iso-min",
                     "--restarts", "4", "--assert-nonneg")
    assert code == 1


def test_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["model", "--kind", "dodecahedron", "--n", "4", "--out", "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["flow", "--dt", "0"],
    ["flow", "--t-end", "-1"],
    ["flow", "--monitor-every", "0"],
    ["check", "--what", "iso-min", "--restarts", "0"],
    ["verify", "--n", "13"],
    ["verify", "--n", "3"],
    ["verify", "--samples", "-1"],
    ["check", "--what", "ricci", "--assert-nonneg", "--tol", "nan"],
    ["check", "--what", "ricci", "--assert-nonneg", "--tol", "inf"],
    ["check", "--what", "iso-min", "--seed", "-3"],
    ["check", "--what", "pinch", "--seed", "1.5"],
    ["verify", "--seed", "-1"],
])
def test_invalid_numeric_flag_exits_two(tmp_path, capsys, argv):
    p = str(tmp_path / "sphere.json")
    assert main(["model", "--kind", "sphere", "--n", "4", "--out", p]) == 0
    tensor = [] if argv[0] == "verify" else ["--in", p]
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + tensor + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {argv[-2]}" in err


@pytest.mark.parametrize("kind", ["sphere", "fubini-study", "r0", "sj"])
def test_model_non_finite_param_exits_two(tmp_path, capsys, kind):
    p = tmp_path / "x.json"
    try:
        code = main(["model", "--kind", kind, "--n", "4", "--param", "nan",
                     "--out", str(p)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not p.exists()


def test_missing_input_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--in", str(tmp_path / "nope.json"),
                       "--what", "weyl")
    assert code == 2
    assert "error" in err


def test_invalid_model_dimension_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "model", "--kind", "r0", "--n", "6",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "divisible by 4" in err


def test_verify_structural_only(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--samples", "0")
    assert code == 0
    rep = last_json(out)
    assert rep["suite"] and rep["checks"]
    assert all(c["status"] != "fail" for c in rep["checks"])


def test_verify_runs_at_the_largest_supported_n(capsys):
    """--n takes every n the subspace constructors build, up to MAX_BASIS_N."""
    code, out, _ = run(capsys, "verify", "--n", str(MAX_BASIS_N), "--samples", "0")
    assert code == 0
    rep = last_json(out)
    assert rep["n"] == MAX_BASIS_N and rep["passed"]
    assert {c["id"]: c["status"] for c in rep["checks"]}["q-r0-eigen"] == "pass"


def test_verify_inject_defect_fails(capsys):
    code, out, _ = run(capsys, "verify", "--n", "8", "--samples", "0",
                       "--inject-defect")
    assert code == 1
    failing = [c["id"] for c in last_json(out)["checks"] if c["status"] == "fail"]
    assert failing == ["q-r0-eigen"]


@pytest.mark.parametrize("n", ["5", "6"])
def test_verify_inject_defect_without_r0_exits_two(capsys, n):
    code, out, err = run(capsys, "verify", "--n", n, "--samples", "0", "--inject-defect")
    assert code == 2 and out == ""
    assert "divisible by 4" in err


def test_verify_deterministic_output(tmp_path, capsys):
    runs = []
    for k in range(2):
        p = str(tmp_path / f"rep{k}.json")
        assert run(capsys, "verify", "--n", "4", "--samples", "2",
                   "--seed", "11", "--out", p)[0] == 0
        with open(p) as fh:
            d = json.load(fh)
        d.pop("timestamp")
        d.pop("wall_time_s")
        for c in d["checks"]:
            assert c.pop("wall_s") >= 0.0
        runs.append(d)
    assert runs[0] == runs[1]


def test_verify_table_format(tmp_path, capsys):
    p = str(tmp_path / "rep.json")
    code, out, _ = run(capsys, "verify", "--n", "4", "--samples", "1",
                       "--format", "table", "--out", p)
    assert code == 0
    with open(p) as fh:
        checks = sorted(c["id"] for c in json.load(fh)["checks"])
    lines = out.splitlines()
    assert lines[0].startswith("suite=curvature-identities n=4 seed=7 samples=1")
    rows = lines[2:-2]
    assert [row.split()[0] for row in rows] == checks
    assert all(row.split()[1] in ("pass", "inapplicable") for row in rows)
    assert lines[-1] == f"{len(checks)} checks, 0 failed, " \
        f"{sum(row.split()[1] == 'inapplicable' for row in rows)} inapplicable"


def test_verify_table_format_shows_failures(capsys):
    code, out, _ = run(capsys, "verify", "--n", "8", "--samples", "0",
                       "--inject-defect", "--format", "table")
    assert code == 1
    failing = [line for line in out.splitlines() if " fail " in line]
    assert len(failing) == 1 and failing[0].startswith("q-r0-eigen")
    assert "1 failed" in out.splitlines()[-1]


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CURVKIT_SEED", "3")
    _, out, _ = run(capsys, "verify", "--n", "4", "--samples", "0")
    assert last_json(out)["seed"] == 3
    _, out, _ = run(capsys, "verify", "--n", "4", "--samples", "0",
                    "--seed", "5")
    assert last_json(out)["seed"] == 5


@pytest.mark.parametrize("value", ["abc", "-1", "2.5", ""])
@pytest.mark.parametrize("command", ["check", "verify"])
def test_bad_env_seed_exits_two(tmp_path, capsys, monkeypatch, command, value):
    p = str(tmp_path / "sphere.json")
    assert main(["model", "--kind", "sphere", "--n", "4", "--out", p]) == 0
    monkeypatch.setenv("CURVKIT_SEED", value)
    argv = (["check", "--in", p, "--what", "iso-min", "--restarts", "2"] if command == "check"
            else ["verify", "--n", "4", "--samples", "0"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "CURVKIT_SEED" in captured.err and captured.out == ""
    # an explicit --seed still wins over the environment
    assert main(argv + ["--seed", "1"]) == 0


def test_flow_summary_and_csv(tmp_path, capsys):
    p = str(tmp_path / "s.json")
    csv = str(tmp_path / "trace.csv")
    main(["model", "--kind", "sphere", "--n", "4", "--out", p])
    capsys.readouterr()
    code, out, _ = run(capsys, "flow", "--in", p, "--t-end", "0.02",
                       "--out-csv", csv)
    assert code == 0
    rep = last_json(out)
    assert rep["terminated_by"] == "t_end"
    assert np.isclose(rep["t_final"], 0.02)
    with open(csv) as fh:
        assert fh.readline().strip() == "t,scal,min_iso,norm"


def test_flow_summary_reports_rejected_steps_and_reaction_evals(tmp_path, capsys):
    """A first step as long as the whole flow is rejected; the summary counts
    it, and 12 reaction terms per accepted step and 11 per rejected one."""
    p = str(tmp_path / "s.json")
    main(["model", "--kind", "sphere", "--n", "4", "--out", p])
    capsys.readouterr()
    code, out, _ = run(capsys, "flow", "--in", p, "--t-end", "0.1", "--dt", "0.1")
    assert code == 0
    rep = last_json(out)
    assert rep["steps_accepted"] > 0 and rep["steps_rejected"] > 0
    assert rep["reaction_evals"] == 12 * rep["steps_accepted"] + 11 * rep["steps_rejected"]


def test_flow_assert_cone_rejects_negative(tmp_path, capsys):
    p = str(tmp_path / "neg.json")
    main(["model", "--kind", "sphere", "--n", "4", "--param", "-1", "--out", p])
    capsys.readouterr()
    code, _, err = run(capsys, "flow", "--in", p, "--t-end", "0.01",
                       "--assert-cone")
    assert code == 1
    assert "cone assertion failed" in err


def test_flow_assert_cone_passes(tmp_path, capsys):
    p = str(tmp_path / "s.json")
    main(["model", "--kind", "sphere", "--n", "4", "--out", p])
    capsys.readouterr()
    code, out, _ = run(capsys, "flow", "--in", p, "--t-end", "0.02",
                       "--assert-cone")
    assert code == 0
    rep = last_json(out)
    assert rep["preserved"] is True
    assert rep["worst_margin"] >= 0.0


@pytest.mark.parametrize("cone", [[], ["--assert-cone"]])
def test_flow_zero_tensor_without_t_end_exits_two(tmp_path, capsys, cone):
    p = str(tmp_path / "zero.json")
    main(["model", "--kind", "sphere", "--n", "4", "--param", "0", "--out", p])
    capsys.readouterr()
    code, out, err = run(capsys, "flow", "--in", p, *cone)
    assert code == 2
    assert out == "" and err.startswith("error:") and "--t-end" in err


def test_all_nan_tensor_file_exits_two(tmp_path, capsys):
    p = tmp_path / "nan.json"
    p.write_text(json.dumps({"format": "lambda2_sym_dense", "n": 4,
                             "coeffs": [float("nan")] * 36}))
    code, out, err = run(capsys, "check", "--in", str(p), "--what", "iso-min",
                         "--assert-nonneg")
    assert code == 2
    assert out == "" and "error" in err


def test_assert_nonneg_fails_on_non_finite_value(tmp_path, capsys, monkeypatch):
    import curvkit.cli
    from curvkit.frames import FrameSearchResult
    p = str(tmp_path / "s.json")
    main(["model", "--kind", "sphere", "--n", "4", "--out", p])
    capsys.readouterr()
    monkeypatch.setattr(curvkit.cli, "min_isotropic",
                        lambda R, cfg: FrameSearchResult(float("nan"), None, False, 0))
    code, out, _ = run(capsys, "check", "--in", p, "--what", "iso-min",
                       "--assert-nonneg")
    assert code == 1
    assert json.loads(out, parse_constant=pytest.fail)["value"] is None


def test_flow_step_underflow_exits_three(tmp_path, capsys):
    p = str(tmp_path / "s.json")
    main(["model", "--kind", "sphere", "--n", "4", "--out", p])
    capsys.readouterr()
    code, out, err = run(capsys, "flow", "--in", p, "--t-end", "0.02",
                         "--dt", "1e-16")
    assert code == 3
    assert out == ""
    assert err.startswith("error: step size underflow")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("argv", [["check", "--what", "iso-min"], ["check", "--what", "pinch"],
                                  ["flow", "--t-end", "0.01"],
                                  ["flow", "--t-end", "0.01", "--assert-cone"]])
def test_isotropic_commands_below_n4_exit_two(tmp_path, capsys, n, argv):
    """No 4-frame exists for n < 4: an input error (2), not a failed assertion (1)."""
    p = str(tmp_path / "s.json")
    assert main(["model", "--kind", "sphere", "--n", str(n), "--out", p]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, *argv, "--in", p)
    assert code == 2
    assert out == "" and "n >= 4" in err
