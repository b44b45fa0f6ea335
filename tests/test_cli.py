import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conegap.cli import main
from conegap.fileio import parse_kernel, serialize_kernel, serialize_matrix, serialize_vectors
from conegap.kernel import KernelGrid

SYM = np.array([[2.0, 1.0], [1.0, 2.0]])


@pytest.fixture
def files(tmp_path):
    def matrix(name, M):
        p = tmp_path / name
        p.write_text(serialize_matrix(np.asarray(M, dtype=complex)) + "\n")
        return str(p)

    def vectors(name, vecs):
        p = tmp_path / name
        p.write_text(serialize_vectors([np.asarray(v, dtype=complex) for v in vecs]) + "\n")
        return str(p)

    def kernel(name, grid):
        p = tmp_path / name
        p.write_text(serialize_kernel(grid) + "\n")
        return str(p)

    return matrix, vectors, kernel, tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_certify_strict_example(files, capsys):
    matrix, _, _, _ = files
    code, rep = run(capsys, "certify", matrix("sym.json", SYM))
    assert code == 0
    cert = rep["certificate"]
    assert cert["classification"] == "strict"
    assert cert["theta"] == pytest.approx(0.6, abs=1e-15)
    assert cert["eta_simple"] == pytest.approx(511 / 513, abs=1e-15)


def test_certify_closed_example(files, capsys):
    matrix, _, _, _ = files
    code, rep = run(capsys, "certify", matrix("id.json", np.eye(2)))
    assert code == 1
    cert = rep["certificate"]
    assert cert["classification"] == "closed"
    w = cert["witness"]
    assert w["block"] == [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def test_gap_verify_example(files, capsys):
    matrix, _, _, _ = files
    code, rep = run(capsys, "gap", matrix("sym.json", SYM), "--verify")
    assert code == 0
    assert rep["eigen"]["lam"] == [3, 0]
    assert rep["deflation"]["eta_sp_observed"] == pytest.approx(1 / 3, abs=1e-12)
    assert rep["deflation"]["eta_refined_bound"] == pytest.approx(511 / 513, abs=1e-15)
    assert rep["oracle"]["eigenvalues"][0] == pytest.approx([3, 0], abs=1e-12)
    assert rep["oracle"]["lambda_abs_error"] <= 1e-12
    assert rep["oracle"]["second_ratio"] == pytest.approx(1 / 3, abs=1e-12)


def test_reports_are_byte_identical(files, capsys):
    matrix, _, _, _ = files
    path = matrix("sym.json", SYM)
    main(["gap", path])
    first = capsys.readouterr().out
    main(["gap", path])
    second = capsys.readouterr().out
    assert first == second


def test_report_flag_writes_same_bytes(files, capsys):
    matrix, _, _, tmp_path = files
    out = tmp_path / "rep.json"
    main(["--report", str(out), "certify", matrix("sym.json", SYM)])
    stdout = capsys.readouterr().out
    assert out.read_bytes().decode() == stdout


def test_unwritable_report_path_exits_2(files, capsys):
    # a report that cannot be written is an argument error, not a failed certificate
    matrix, _, _, tmp_path = files
    target = tmp_path / "missing" / "r.json"
    assert main(["--report", str(target), "certify", matrix("sym.json", SYM)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("conegap: cannot write report: ")
    assert len(captured.err.splitlines()) == 1
    assert not target.exists()


def test_timings_flag_adds_key(files, capsys):
    matrix, _, _, _ = files
    _, rep = run(capsys, "--timings", "certify", matrix("sym.json", SYM))
    assert "timings" in rep and rep["timings"]["seconds_total"] >= 0


def test_bounds_modes(files, capsys):
    matrix, vectors, _, _ = files
    path = matrix("sym.json", SYM)

    code, rep = run(capsys, "bounds", path)
    assert code == 0
    assert rep["bounds"]["mode"] == "ones"
    assert rep["bounds"]["lower"] == pytest.approx(3.0)
    assert rep["bounds"]["upper"] == pytest.approx(3.0)

    code, rep = run(capsys, "bounds", path, "--basis")
    assert code == 0 and rep["bounds"] == {"mode": "basis", "lower": 2}

    vpath = vectors("one.json", [[1, 0]])
    code, rep = run(capsys, "bounds", path, "--vector", vpath)
    assert code == 0
    assert rep["bounds"]["lower"] == pytest.approx(2.0)
    assert rep["bounds"]["upper"] == "inf"

    code, rep = run(capsys, "bounds", path, "--refine", "5")
    assert code == 0
    assert rep["refine"]["upper"] - rep["refine"]["lower"] <= 1e-9
    assert len(rep["refine"]["history"]) == rep["refine"]["iterations"] + 1


def test_bounds_refine_needs_strict(files, capsys):
    matrix, _, _, _ = files
    code, rep = run(capsys, "bounds", matrix("id.json", np.eye(2)), "--refine", "3")
    assert code == 1
    assert "refine" not in rep


@pytest.mark.parametrize("M, kind", [(SYM, "strict"), (np.eye(2), "closed"), ([[1, -1], [1, 1]], "fail")])
def test_bounds_rejects_negative_refine_for_every_class(M, kind, files, capsys):
    matrix, _, _, _ = files
    path = matrix("m.json", M)
    assert run(capsys, "certify", path)[1]["certificate"]["classification"] == kind
    assert main(["bounds", path, "--refine", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "conegap: iteration count must be nonnegative\n"


def test_metric_command(files, capsys):
    _, vectors, _, _ = files
    vpath = vectors("v.json", [[1, 1], [1, 2]])
    code, rep = run(capsys, "metric", vpath, "0", "1")
    assert code == 0
    assert rep["metric"]["distance"] == pytest.approx(np.log(2), abs=1e-12)

    code, _ = run(capsys, "metric", vpath, "0", "2")
    assert code == 2


def test_kernel_command_full_and_sampled(files, capsys):
    _, _, kernel, _ = files
    x = np.linspace(0.0, 1.0, 8)
    vals = np.exp(-((x[:, None] - x[None, :]) ** 2))
    path = kernel("g8.json", KernelGrid(x, np.full(8, 1 / 8), vals))

    code, rep = run(capsys, "kernel", path)
    assert code == 0
    assert rep["certificate"]["theta"] == pytest.approx(np.tanh(1.0), abs=1e-15)
    assert rep["deflation"]["eta_sp_observed"] <= rep["deflation"]["eta1_bound"] + 1e-9

    code, rep = run(capsys, "kernel", path, "--sample", "10")
    assert code == 0
    assert rep["certificate"]["exhaustive"] is False
    assert "deflation" not in rep  # sampling is triage, not a pipeline run


def test_kernel_command_fail_exits_1(files, capsys):
    _, _, kernel, _ = files
    vals = np.ones((3, 3))
    vals[0, 2] = -1.0
    path = kernel("bad.json", KernelGrid(np.arange(3.0), np.ones(3), vals))
    code, rep = run(capsys, "kernel", path)
    assert code == 1
    assert rep["certificate"]["classification"] == "fail"
    assert rep["certificate"]["witness"] is not None
    assert "eigen" not in rep and "deflation" not in rep


def test_product_command(files, capsys):
    matrix, _, _, _ = files
    path = matrix("sym.json", SYM)
    code, rep = run(capsys, "product", path, path, path)
    assert code == 0
    assert rep["product_bound"] == pytest.approx((511 / 513) ** 3, rel=1e-15)

    idp = matrix("id.json", np.eye(2))
    code, rep = run(capsys, "product", path, idp)
    assert code == 1
    assert rep["product_bound"] is None

    rect = matrix("r23.json", np.ones((2, 3)))
    code, _ = run(capsys, "product", rect, rect)
    assert code == 2


def test_grid_command_round_trips(files, capsys):
    _, _, _, tmp_path = files
    code = main(["grid", "--preset", "gaussian", "--n", "8"])
    blob = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(blob)
    code, rep = run(capsys, "kernel", str(path))
    assert code == 0
    assert rep["certificate"]["theta"] == pytest.approx(np.tanh(1.0), abs=1e-15)

    # grid output and serialize_kernel are one file format, byte for byte
    for preset in ("constant", "affine", "gaussian", "gaussian-twist"):
        assert main(["grid", "--preset", preset]) == 0
        blob = capsys.readouterr().out
        path.write_text(blob)
        assert blob == serialize_kernel(parse_kernel(str(path))) + "\n"

    assert main(["grid", "--preset", "gaussian", "--n", "1"]) == 2
    assert main(["grid", "--preset", "gaussian", "--param", "-1"]) == 2
    assert main(["grid", "--preset", "constant", "--lo", "2", "--hi", "1"]) == 2
    capsys.readouterr()


def test_input_errors_exit_2(files, capsys, tmp_path):
    matrix, vectors, _, _ = files
    assert main(["certify", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2')
    assert main(["certify", str(bad)]) == 2
    two = vectors("two.json", [[1, 1], [1, 2]])
    assert main(["bounds", matrix("sym.json", SYM), "--vector", two]) == 2
    capsys.readouterr()


def test_gap_rejects_bad_iteration_arguments(files, capsys):
    matrix, _, _, _ = files
    path = matrix("sym.json", SYM)
    cases = [
        (["--tol", "-1"], "tolerance"), (["--tol", "nan"], "tolerance"), (["--tol", "inf"], "tolerance"),
        (["--max-iter", "-5"], "max_iter"), (["--max-iter", "0"], "max_iter"),
    ]
    for flags, word in cases:
        assert main(["gap", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert word in captured.err
    assert main(["gap", path, "--tol", "0"]) == 0  # stops only at an exact fixed point
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["gap", "--starts", "8"], ["gap", "--deflate-iters", "200"], ["bounds", "--ones"],
])
def test_fixed_settings_have_no_flag(argv, files, capsys):
    # deflation always runs 8 starts x 200 steps, and bounds defaults to the all-ones vector
    matrix, _, _, _ = files
    with pytest.raises(SystemExit) as exc:
        main([argv[0], matrix("sym.json", SYM), *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_verify_needs_small_matrix(files, capsys):
    matrix, _, _, _ = files
    big = matrix("big.json", np.full((17, 17), 1.0) + 0.1 * np.eye(17))
    assert main(["gap", big, "--verify"]) == 2  # oracle is capped at n = 16
    capsys.readouterr()


def test_verify_checks_the_oracle_cap_before_the_sweep(files, capsys, monkeypatch):
    matrix, _, _, _ = files
    calls = []
    monkeypatch.setattr("conegap.cli.certify_matrix", lambda *args, **kwargs: calls.append(args))
    strict = matrix("strict64.json", np.full((64, 64), 1.0) + 0.1 * np.eye(64))
    fail = matrix("fail17.json", np.eye(17) - 0.5)  # not strict: exit 1 without --verify
    for path in (strict, fail):
        assert main(["gap", path, "--verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "conegap: oracle is capped at 16 x 16\n"
    assert calls == []


def test_gap_and_kernel_refute_an_observed_gap_above_eta1(files, capsys, monkeypatch):
    matrix, _, kernel, _ = files
    # a deflated radius of 10 |lam| is an observed gap of 10, far above eta1(theta) < 1
    monkeypatch.setattr("conegap.spectral.deflated_radius", lambda A, t, **kwargs: 10.0 * abs(t.lam))
    x = np.linspace(0.0, 1.0, 6)
    grid = KernelGrid(x, np.full(6, 1 / 6), np.exp(-((x[:, None] - x[None, :]) ** 2)))
    for command, path in (("gap", matrix("sym.json", SYM)), ("kernel", kernel("g6.json", grid))):
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("conegap: observed gap ")
        assert " exceeds the certified bound " in lines[0]


def test_kernel_gaussian_24_converges(files, capsys):
    # A's own threshold tol (1 - eta_refined) is 2.5e-16 here, at the
    # floating-point floor of the step; certified powers of A make it reachable
    _, _, _, tmp = files
    assert main(["grid", "--preset", "gaussian", "--n", "24"]) == 0
    path = tmp / "g24.json"
    path.write_text(capsys.readouterr().out)
    code, rep = run(capsys, "kernel", str(path))
    assert code == 0
    assert rep["eigen"]["converged"] is True
    assert rep["eigen"]["metric_error"] <= 1e-12
    defl = rep["deflation"]
    assert defl["eta_sp_observed"] <= defl["eta1_bound"]


def test_gap_non_convergence_exits_3(files, capsys):
    matrix, _, kernel, _ = files
    hard = matrix("hard.json", [[1.0, 0.001], [0.002, 1.0]])
    # the Nystrom matrix of this grid is the matrix above
    grid = KernelGrid([0.0, 1.0], [1.0, 1.0], [[1.0, 0.002], [0.001, 1.0]])
    for command, path in (("gap", hard), ("kernel", kernel("hard_grid.json", grid))):
        code = main([command, path])
        captured = capsys.readouterr()
        assert code == 3
        rep = json.loads(captured.out)
        assert rep["eigen"]["converged"] is False
        assert "deflation" not in rep
        assert captured.err == "power iteration did not converge\n"


def test_console_script(files):
    matrix, _, _, _ = files
    path = matrix("sym.json", SYM)
    proc = subprocess.run(
        [sys.executable, "-m", "conegap.cli", "certify", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certificate"]["theta"] == pytest.approx(0.6)


def test_overflowing_entries_exit_2(files, capsys):
    # squaring an entry above ~1.34e154 overflows a double: an input error,
    # not a failed certificate (exit 1), reported in one line and with no
    # numpy RuntimeWarning on the way
    matrix, vectors, _, _ = files
    big = matrix("big.json", 1e160 * SYM)
    vecs = vectors("big_vectors.json", [1e160 * np.ones(2), 1e160 * np.array([1.0, 2.0])])
    for argv in (["certify", big], ["gap", big], ["bounds", big], ["metric", vecs, "0", "1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "conegap: overflow: input entries too large for double precision\n"
