import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from condgrad.cli import main
from condgrad.core import make_rng


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def ratings_file(tmp_path, seed=0, m=6, n=5):
    rng = make_rng(seed)
    lines = []
    for i in range(m):
        for j in range(n):
            if rng.uniform() < 0.9:
                lines.append(f"{i + 1}\t{j + 1}\t{int(rng.integers(1, 6))}\t0")
    f = tmp_path / "ratings.tsv"
    f.write_text("\n".join(lines) + "\n")
    return str(f)


def strip_millis(text):
    return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]


# ---------------------------------------------------------------------------
# solve


def test_solve_certified_quadratic_on_simplex(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    cfg = write_json(tmp_path / "run.json", {
        "objective": {"kind": "quadratic"},
        "domain": {"kind": "simplex", "n": 30},
        "eps": 0.1,
        "seed": 7,
        "out": {"trace": str(trace), "summary": str(tmp_path / "s.json")},
    })
    code, summary = run_main(capsys, ["solve", cfg])
    assert code == 0
    assert summary["certified"] is True
    assert summary["gap"] <= 0.1
    assert summary["f"] <= 1.0 / 30 + 0.1
    assert summary["objective"] == "quadratic"
    assert summary["domain"] == "simplex"
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,f,gap,alpha,atom,matvecs,millis"
    gaps = [float(l.split(",")[2]) for l in lines[1:]]
    assert min(gaps) <= 0.1
    disk = json.loads((tmp_path / "s.json").read_text())
    assert disk == summary


def test_solve_certified_trace_ends_at_its_first_certified_row(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    cfg = write_json(tmp_path / "run.json", {
        "objective": {"kind": "quadratic", "target": [0.5, 0.3, 0.2, 0.0]},
        "domain": {"kind": "simplex", "n": 4},
        "eps": 0.05,
        "out": {"trace": str(trace)},
    })
    code, summary = run_main(capsys, ["solve", cfg])
    assert code == 0 and summary["certified"] is True
    assert summary["stopped_on"] == "gap"
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    assert int(rows[-1][0]) == summary["iterations"] == len(rows) - 1
    assert float(rows[-1][2]) == summary["gap"] <= 0.05 < min(float(r[2]) for r in rows[:-1])
    assert float(rows[-1][3]) == 0.0


def _spect_target(n, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, 3)))
    R = (Q * np.array([0.5, 0.3, 0.2])) @ Q.T
    return (0.5 * (R + R.T)).tolist()


@pytest.mark.parametrize("run_cfg", [
    {"domain": {"kind": "simplex", "n": 40}, "target": [1.0 / 40] * 40, "eps": 0.1},
    {"domain": {"kind": "simplex", "n": 40}, "target": [1.0 / 40] * 40, "max_iters": 30},
    {"domain": {"kind": "spectahedron", "n": 30}, "target": _spect_target(30, 1),
     "mode": "approx", "max_iters": 40},
], ids=["simplex_certified", "simplex_max_iters", "spectahedron_approx"])
def test_solve_summary_f_is_the_reported_row_of_the_trace(tmp_path, capsys, run_cfg):
    # these runs keep their iterate factored; f comes from the trace, exactly
    trace = tmp_path / "trace.csv"
    cfg = {k: v for k, v in run_cfg.items() if k != "target"}
    cfg["objective"] = {"kind": "quadratic", "target": run_cfg["target"]}
    cfg["out"] = {"trace": str(trace)}
    code, summary = run_main(capsys, ["solve", write_json(tmp_path / "run.json", cfg)])
    assert code == 0
    row = trace.read_text().splitlines()[1 + summary["iterations"]].split(",")
    assert int(row[0]) == summary["iterations"]
    assert summary["f"] == float(row[1])


def test_solve_max_iters_path(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "objective": {"kind": "quadratic"},
        "domain": {"kind": "cube", "n": 4},
        "max_iters": 12,
        "schedule": "line_search",
    })
    code, summary = run_main(capsys, ["solve", cfg])
    assert code == 0
    assert summary["certified"] is None
    assert summary["iterations"] == 12
    assert summary["stopped_on"] == "max_iters"
    # min ||x||^2 over [-1,1]^4 is 0
    assert summary["f"] <= 1e-6


def test_solve_trace_determinism(tmp_path, capsys):
    traces = []
    for run in range(2):
        trace = tmp_path / f"t{run}.csv"
        cfg = write_json(tmp_path / f"c{run}.json", {
            "objective": {"kind": "quadratic"},
            "domain": {"kind": "l1", "n": 8, "t": 2.0},
            "eps": 0.05,
            "seed": 3,
            "out": {"trace": str(trace)},
        })
        code, summary = run_main(capsys, ["solve", cfg])
        assert code == 0
        traces.append((strip_millis(trace.read_text()), summary))
    assert traces[0] == traces[1]


def test_solve_lasso_implies_unit_l1_domain(tmp_path, capsys):
    rng = make_rng(11)
    A = rng.standard_normal((10, 6))
    x0 = np.zeros(6)
    x0[1] = 0.8
    b = A @ x0
    cfg = write_json(tmp_path / "lasso.json", {
        "objective": {"kind": "lasso", "A": A.tolist(), "b": b.tolist(),
                      "t": 1.0},
        "max_iters": 120,
        "schedule": "line_search",
    })
    code, summary = run_main(capsys, ["solve", cfg])
    assert code == 0
    assert summary["domain"] == "l1"
    assert summary["f"] <= 1e-3


def test_solve_custom_quadratic_file(tmp_path, capsys):
    qfile = write_json(tmp_path / "q.json", {
        "Q": [[2.0, 0.0], [0.0, 2.0]], "c": [-2.0, 0.0]})
    cfg = write_json(tmp_path / "run.json", {
        "objective": {"kind": "custom_quadratic", "path": qfile},
        "domain": {"kind": "cube", "n": 2},
        "max_iters": 40,
        "schedule": "line_search",
    })
    code, summary = run_main(capsys, ["solve", cfg])
    assert code == 0
    # minimum of x^T x - 2 x_0 over the cube is -1 at (1, 0); the point sits
    # mid-edge, so the method approaches it at the O(1/k) rate
    assert summary["f"] == pytest.approx(-1.0, abs=0.02)


@pytest.mark.parametrize("cfg,why", [
    ({"objective": {"kind": "quadratic"}}, "missing domain"),
    ({"objective": {"kind": "quadratic"},
      "domain": {"kind": "simplex", "n": 4}}, "missing eps/max_iters"),
    ({"objective": {"kind": "nope"},
      "domain": {"kind": "simplex", "n": 4}, "eps": 0.1}, "unknown objective"),
    ({"objective": {"kind": "quadratic"},
      "domain": {"kind": "torus", "n": 4}, "eps": 0.1}, "unknown domain"),
    ({"objective": {"kind": "quadratic"},
      "domain": {"kind": "simplex", "n": 4}, "max_iters": 5,
      "schedule": "momentum"}, "unknown schedule"),
    ({"objective": {"kind": "least_squares", "A": [[1.0, 2.0]], "b": [1.0, 2.0]},
      "domain": {"kind": "simplex", "n": 2}, "eps": 0.1}, "A/b mismatch"),
    ([1, 2, 3], "top level not an object"),
])
def test_solve_schema_errors_exit_2(tmp_path, capsys, cfg, why):
    path = write_json(tmp_path / "bad.json", cfg)
    assert main(["solve", path]) == 2, why
    assert "config error" in capsys.readouterr().err


def test_solve_config_file_errors(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "notjson.json"
    bad.write_text("{nope")
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()


def test_solve_custom_quadratic_data_errors(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "objective": {"kind": "custom_quadratic",
                      "path": str(tmp_path / "missing_q.json")},
        "domain": {"kind": "cube", "n": 2},
        "max_iters": 5,
    })
    assert main(["solve", cfg]) == 3
    qfile = write_json(tmp_path / "q.json", {"Q": [[1.0, 0.0]]})
    cfg = write_json(tmp_path / "run2.json", {
        "objective": {"kind": "custom_quadratic", "path": qfile},
        "domain": {"kind": "cube", "n": 2},
        "max_iters": 5,
    })
    assert main(["solve", cfg]) == 3
    assert "data error" in capsys.readouterr().err


def _one_error_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    return lines[0]


@pytest.mark.parametrize("cfg,what", [
    ({"objective": {"kind": "quadratic"}, "domain": {"kind": "simplex", "n": 4},
      "eps": -1}, "eps must be positive"),
    ({"objective": {"kind": "quadratic"}, "domain": {"kind": "simplex", "n": 0},
      "max_iters": 5}, "n must be >= 1"),
    ({"objective": {"kind": "quadratic"}, "domain": {"kind": "l1", "n": 3, "t": 0},
      "max_iters": 5}, "t must be positive"),
])
def test_solve_bad_values_exit_2_with_one_line(tmp_path, capsys, cfg, what):
    assert main(["solve", write_json(tmp_path / "bad.json", cfg)]) == 2
    assert what in _one_error_line(capsys, "config error:")


def test_solve_custom_quadratic_without_q_exits_3_with_one_line(tmp_path, capsys):
    qfile = write_json(tmp_path / "q.json", {"c": [1.0, 0.0]})
    cfg = write_json(tmp_path / "run.json", {
        "objective": {"kind": "custom_quadratic", "path": qfile},
        "domain": {"kind": "simplex", "n": 2},
        "max_iters": 5,
    })
    assert main(["solve", cfg]) == 3
    assert "'Q'" in _one_error_line(capsys, "data error:")


def _custom_quadratic_on_simplex(tmp_path, Q):
    qfile = write_json(tmp_path / "q.json", {"Q": Q})
    return write_json(tmp_path / "run.json", {
        "objective": {"kind": "custom_quadratic", "path": qfile},
        "domain": {"kind": "simplex", "n": 2},
        "eps": 0.1,
    })


def test_solve_custom_quadratic_indefinite_q_exits_3_with_one_line(tmp_path, capsys):
    # f = x^T Q x / 2 is concave here, so a zero gap at e_1 (f = -0.5) would
    # be certified although f(e_2) = -1.5
    cfg = _custom_quadratic_on_simplex(tmp_path, [[-1.0, 0.0], [0.0, -3.0]])
    assert main(["solve", cfg]) == 3
    line = _one_error_line(capsys, "data error:")
    assert "Q is not positive semidefinite" in line and "q.json" in line


def test_solve_custom_quadratic_non_finite_q_exits_3_with_one_line(tmp_path, capsys):
    # a NaN fails the eigensolver's symmetry check first, which is not the fault
    cfg = _custom_quadratic_on_simplex(tmp_path, [[float("nan"), 0.0], [0.0, 1.0]])
    assert main(["solve", cfg]) == 3
    line = _one_error_line(capsys, "data error:")
    assert "Q or (Q + Q^T)/2 is not finite" in line and "q.json" in line


def test_solve_custom_quadratic_singular_psd_q_is_certified(tmp_path, capsys):
    code, summary = run_main(capsys, ["solve", _custom_quadratic_on_simplex(
        tmp_path, [[1.0, 0.0], [0.0, 0.0]])])
    assert code == 0 and summary["certified"] is True
    assert summary["f"] <= 0.1  # min f = 0 at e_2


# ---------------------------------------------------------------------------
# complete


def test_complete_tiny_dataset(tmp_path, capsys):
    data = ratings_file(tmp_path)
    trace = tmp_path / "trace.csv"
    code, summary = run_main(capsys, [
        "complete", "--data", data, "--t", "3.0", "--steps", "6",
        "--split", "random:0.6", "--seed", "2", "--trace", str(trace)])
    assert code == 0
    assert summary["m"] == 6 and summary["n"] == 5
    assert summary["train"] + summary["test"] == sum(
        1 for _ in open(data))
    assert summary["k"] == 6
    assert summary["rank"] <= 7
    assert trace.read_text().startswith("k,f,gap,alpha,atom,matvecs,millis")
    assert summary["rmse_train"] >= 0.0


def test_complete_determinism_and_nan_scrub(tmp_path, capsys):
    data = ratings_file(tmp_path, seed=5)
    runs = []
    for _ in range(2):
        code, summary = run_main(capsys, [
            "complete", "--data", data, "--t", "2.0", "--steps", "4",
            "--split", "random:1.0", "--seed", "9"])
        assert code == 0
        runs.append(summary)
    assert runs[0] == runs[1]
    # empty test split: NaN metrics serialize as null
    assert runs[0]["test"] == 0
    assert runs[0]["rmse_test"] is None


def test_complete_steps_zero_baseline(tmp_path, capsys):
    # with normalization and zero steps the predictions are the mean baseline
    data = ratings_file(tmp_path, seed=6)
    code, summary = run_main(capsys, [
        "complete", "--data", data, "--t", "2.0", "--steps", "0",
        "--normalize", "--split", "random:0.7", "--seed", "1"])
    assert code == 0
    assert summary["k"] == 0 and summary["rank"] == 1
    assert 0.0 <= summary["rmse_test"] <= 5.0


def test_complete_data_and_split_errors(tmp_path, capsys):
    assert main(["complete", "--data", str(tmp_path / "nope.tsv"),
                 "--t", "2.0"]) == 3
    data = ratings_file(tmp_path)
    assert main(["complete", "--data", data, "--t", "2.0",
                 "--split", "weird:1"]) == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("1\t2\n")
    assert main(["complete", "--data", str(bad), "--t", "2.0"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv,what", [
    (["--t", "0"], "t must be positive"),
    (["--t", "-1.5"], "t must be positive"),
    (["--t", "2.0", "--steps", "-2"], "steps must be nonnegative"),
    (["--t", "2.0", "--split", "random:1.5"], "rho must lie in [0, 1]"),
    (["--t", "2.0", "--split", "random:-0.1"], "rho must lie in [0, 1]"),
    (["--t", "2.0", "--split", "peruser:0"], "r >= 1"),
])
def test_complete_bad_parameters_exit_2_with_one_line(tmp_path, capsys, argv, what):
    data = ratings_file(tmp_path)
    assert main(["complete", "--data", data] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert what in lines[0]


def test_complete_duplicate_rating_exits_3_with_one_line(tmp_path, capsys):
    dup = tmp_path / "dup.tsv"
    dup.write_text("1\t1\t4\t0\n2\t1\t3\t0\n2\t1\t5\t0\n")
    assert main(["complete", "--data", str(dup), "--t", "2", "--steps", "2"]) == 3
    line = _one_error_line(capsys, "data error:")
    assert "dup.tsv" in line and "user 2" in line and "item 1" in line


# ---------------------------------------------------------------------------
# sdpfeas


def test_sdpfeas_feasible_and_infeasible(tmp_path, capsys):
    feas = tmp_path / "feas.sdp"
    feas.write_text("n 3\nt 1.0\nconstraint b=1.0\n0 0 1.0\n1 1 1.0\n2 2 1.0\n")
    code, summary = run_main(capsys, [
        "sdpfeas", "--problem", str(feas), "--eps", "0.1"])
    assert code == 0
    assert summary["status"] == "feasible"
    assert summary["max_violation"] <= 0.1

    infeas = tmp_path / "infeas.sdp"
    infeas.write_text(
        "n 3\nt 1.0\nconstraint b=-2.0\n0 0 -1.0\n1 1 -1.0\n2 2 -1.0\n")
    code, summary = run_main(capsys, [
        "sdpfeas", "--problem", str(infeas), "--eps", "0.5"])
    assert code == 0
    assert summary["status"] == "infeasible"
    assert summary["f_lower"] > 0.5


def test_sdpfeas_data_errors(tmp_path, capsys):
    assert main(["sdpfeas", "--problem", str(tmp_path / "nope.sdp"),
                 "--eps", "0.1"]) == 3
    bad = tmp_path / "bad.sdp"
    bad.write_text("n 2\nconstraint b=1\n0 zero 1\n")
    assert main(["sdpfeas", "--problem", str(bad), "--eps", "0.1"]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("text,where", [
    ("n 0\nconstraint b=1.0\n", "line 1"),
    ("n 2\nt -1.0\nconstraint b=1.0\n0 0 1.0\n", "line 2"),
    ("n 2\nconstraint b=nan\n0 0 1.0\n", "line 2"),
    ("n 2\nconstraint b=1.0\n0 1 inf\n", "line 3"),
    ("n 2\nconstraint b=1.0\n-1 0 1.0\n", "line 3"),
    ("n 2\nconstraint b=1.0\n0 0 1.0 7\n", "line 3"),
    ("n 2\nconstraint b=1 c=3\n0 0 1.0\n", "line 2"),
    ("n 2\nconstraint b=1 b=2\n0 0 1.0\n", "line 2"),
    ("n 2\nconstraint b=1.0\n0 0 1.0\nn 3\n", "line 4"),
    ("n 2 3\nconstraint b=1.0\n0 0 1.0\n", "line 1"),
    ("n 2\nt 1.0\nconstraint b=1.0\n0 0 1.0\nt 2.0\n", "line 5"),
])
def test_sdpfeas_bad_problem_values_exit_3_with_one_line(tmp_path, capsys, text, where):
    prob = tmp_path / "p.sdp"
    prob.write_text(text)
    assert main(["sdpfeas", "--problem", str(prob), "--eps", "0.1"]) == 3
    assert where in _one_error_line(capsys, "data error:")


@pytest.mark.parametrize("eps", ["0", "-1", "nan"])
def test_sdpfeas_bad_eps_exit_2_with_one_line(tmp_path, capsys, eps):
    prob = tmp_path / "p.sdp"
    prob.write_text("n 3\nconstraint b=1.0\n0 0 1.0\n")
    assert main(["sdpfeas", "--problem", str(prob), "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert "eps must be positive" in lines[0]


# ---------------------------------------------------------------------------
# bench


def test_bench_k_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cfg = write_json(tmp_path / "bench.json", {
        "kind": "k_sweep", "n_values": [3, 5], "k_max": 10,
        "out": str(out)})
    assert main(["bench", cfg]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,f,error,envelope"
    assert len(lines) == 1 + 2 * 11
    for line in lines[1:]:
        n, k, f, err, env = line.split(",")
        assert float(err) == pytest.approx(float(f) - 1.0 / int(n), abs=1e-12)
        # scheduled-step runs obey the approximate-oracle envelope from k=1
        if int(k) >= 1:
            assert float(err) <= float(env) + 1e-12


def test_bench_k_sweep_parallel_matches_serial(tmp_path, capsys):
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"sweep{workers}.csv"
        cfg = write_json(tmp_path / f"bench{workers}.json", {
            "kind": "k_sweep", "n_values": [4, 6, 8], "k_max": 5,
            "workers": workers, "out": str(out)})
        assert main(["bench", cfg]) == 0
        outs.append(out.read_text())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_bench_empty_sweep_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    cfg = write_json(tmp_path / "bench.json", {
        "kind": "k_sweep", "n_values": [], "out": str(out)})
    assert main(["bench", cfg]) == 0
    capsys.readouterr()
    assert out.read_text() == "n,k,f,error,envelope\n"


def test_bench_t_sweep_on_tiny_data(tmp_path, capsys):
    data = ratings_file(tmp_path, seed=8, m=8, n=7)
    out = tmp_path / "t.csv"
    cfg = write_json(tmp_path / "bench.json", {
        "kind": "t_sweep", "t_values": [0.5, 2.0, 8.0], "data": data,
        "steps": 4, "out": str(out)})
    assert main(["bench", cfg]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rmse_train,rmse_test,nmae_test,steps"
    assert len(lines) == 4
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.5, 2.0, 8.0]


def test_bench_config_errors(tmp_path, capsys):
    cfg = write_json(tmp_path / "bench.json", {"kind": "volume", "out": "x"})
    assert main(["bench", cfg]) == 2
    cfg = write_json(tmp_path / "bench2.json", {"kind": "k_sweep"})
    assert main(["bench", cfg]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config-driven dispatch and the installed entry point


def test_solve_dispatches_matcomp(tmp_path, capsys):
    data = ratings_file(tmp_path, seed=12)
    cfg = write_json(tmp_path / "mc.json", {
        "objective": {"kind": "matcomp", "path": data, "t": 2.0, "steps": 3,
                      "split": "random:0.5"},
        "seed": 4,
    })
    code, summary = run_main(capsys, ["solve", cfg])
    assert code == 0
    assert summary["k"] == 3 and "rmse_test" in summary


def test_solve_dispatches_sdpfeas(tmp_path, capsys):
    prob = tmp_path / "p.sdp"
    prob.write_text("n 2\nt 1.0\nconstraint b=1.0\n0 0 1.0\n1 1 1.0\n")
    cfg = write_json(tmp_path / "sf.json", {
        "objective": {"kind": "sdpfeas", "path": str(prob), "eps": 0.2}})
    code, summary = run_main(capsys, ["solve", cfg])
    assert code == 0
    assert summary["status"] == "feasible"


def test_module_entry_point_subprocess(tmp_path):
    cfg = write_json(tmp_path / "run.json", {
        "objective": {"kind": "quadratic"},
        "domain": {"kind": "simplex", "n": 5},
        "max_iters": 8,
    })
    proc = subprocess.run([sys.executable, "-m", "condgrad.cli", "solve", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["iterations"] == 8


# ---------------------------------------------------------------------------
# the error boundary: every input gives an exit code in 0-3, never a traceback

INPUT_FILES = {
    "@ratings": "1\t1\t4\t0\n1\t2\t3\t0\n2\t1\t5\t0\n2\t3\t2\t0\n3\t2\t1\t0\n",
    "@ratings_inf": "1\t1\t4\t0\n2\t1\tinf\t0\n",
    "@ratings_nan": "1\t1\t4\t0\n2\t1\t3\t0\n2\t2\tnan\t0\n",
    "@feasible": "n 2\nt 1.0\nconstraint b=1.0\n0 0 1.0\n1 1 1.0\n",
    "@infeasible": "n 2\nconstraint b=-2.0\n0 0 -1.0\n1 1 -1.0\n",
    "@bad_problem": "n 2\nconstraint b=1.0\n0 1 inf\n",
    "@huge_problem": "n 2\nconstraint b=0\n0 0 1e160\n",
    "@quad": json.dumps({"Q": [[2.0, 0.0], [0.0, 2.0]], "c": [-2.0, 0.0]}),
    "@quad_huge": json.dumps({"Q": [[1e308, 1e308], [1e308, 1e308]]}),
    "@quad_bad": "{\"Q\": [[1.0, 2.0]]}",
    "@not_json": "{nope",
}


def run_case(argv, cfg=None):
    """main(argv) in a fresh directory, with each @-token in argv and cfg
    replaced by a path there: an INPUT_FILES file, @config (cfg as JSON),
    @out (writable), @missing, @nodir (a file in a missing directory) or @dir
    (the directory itself).  Returns (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        paths = {"@config": root / "config.json", "@out": root / "out.txt",
                 "@missing": root / "missing", "@nodir": root / "no" / "out.txt",
                 "@dir": root}
        for token, text in INPUT_FILES.items():
            paths[token] = root / token[1:]
            paths[token].write_text(text)

        def resolve(v):
            if isinstance(v, str) and v in paths:
                return str(paths[v])
            if isinstance(v, list):
                return [resolve(x) for x in v]
            if isinstance(v, dict):
                return {k: resolve(x) for k, x in v.items()}
            return v

        if cfg is not None:
            paths["@config"].write_text(json.dumps(resolve(cfg)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(resolve(argv))
            except SystemExit as e:  # argparse rejected a flag
                code = e.code
        return code, out.getvalue(), err.getvalue()


QUAD_SIMPLEX = {"objective": {"kind": "quadratic"}, "domain": {"kind": "simplex", "n": 2},
                "max_iters": 3}
ASYM_SPECT = {"objective": {"kind": "quadratic", "target": [[0.5, 0.2], [0.0, 0.5]]},
              "domain": {"kind": "spectahedron", "n": 2}}
RATINGS = ["complete", "--data", "@ratings", "--t", "2", "--steps", "2"]
SDP = ["sdpfeas", "--problem", "@feasible", "--eps", "0.5"]

# inputs that once exited 1 with a traceback, or with the wrong code
PROBES = [
    (["solve", "@config"], {**QUAD_SIMPLEX, "out": {"trace": "@nodir"}}, 2),
    (["solve", "@config"], {**QUAD_SIMPLEX, "out": {"summary": "@dir"}}, 2),
    (RATINGS + ["--trace", "@nodir"], None, 2),
    (RATINGS + ["--summary", "@nodir"], None, 2),
    (SDP + ["--trace", "@nodir"], None, 2),
    (SDP + ["--summary", "@nodir"], None, 2),
    (["solve", "@config"], {"objective": {"kind": "sdpfeas", "path": "@feasible", "eps": 0.5},
                            "out": {"trace": "@nodir"}}, 2),
    (["bench", "@config"], {"kind": "k_sweep", "n_values": [2], "k_max": 2, "out": "@nodir"}, 2),
    (["bench", "@config"], {"kind": "k_sweep", "n_values": ["x"], "out": "@out"}, 2),
    (["bench", "@config"], {"kind": "k_sweep", "n_values": [0], "out": "@out"}, 2),
    (["bench", "@config"], {"kind": "t_sweep", "t_values": ["a"], "data": "@ratings",
                            "out": "@out"}, 2),
    (["bench", "@config"], {"kind": "t_sweep", "t_values": [0], "data": "@ratings",
                            "out": "@out"}, 2),
    (["bench", "@config"], {"kind": "t_sweep", "t_values": [1.0], "data": "@missing",
                            "out": "@out"}, 3),
    (["bench", "@config"], {"kind": "t_sweep", "t_values": [1.0], "data": "@ratings",
                            "format": "csv", "out": "@out"}, 2),
    (["solve", "@config"], {**QUAD_SIMPLEX, "objective": {"kind": "quadratic",
                                                          "target": [1e308, -1e308]}}, 3),
    (["solve", "@config"], {**QUAD_SIMPLEX, "domain": {"kind": "cube", "n": 2},
                            "objective": {"kind": "custom_quadratic", "path": "@quad_huge"}}, 3),
    (["complete", "--data", "@ratings_inf", "--t", "2"], None, 3),
    (["solve", "@config"], {"objective": {"kind": "matcomp", "path": "@ratings", "t": 2.0,
                                          "preset": "normalised"}}, 2),
    (["solve", "@config"], {**QUAD_SIMPLEX, "objective": {"kind": "quadratic",
                                                          "target": {"a": 1}}}, 2),
    (["solve", "@config"], {**QUAD_SIMPLEX, "domain": {"kind": "l1", "n": 2, "t": 1e308},
                            "eps": 0.5}, 2),
    (["sdpfeas", "--problem", "@feasible", "--eps", "inf"], None, 2),
    (["sdpfeas", "--problem", "@feasible", "--eps", "1e308"], None, 0),
    (["sdpfeas", "--problem", "@feasible", "--eps", "1e-300"], None, 2),
    (["solve", "@config"], {"objective": {"kind": "quadratic",
                                          "target": [0.5, float("nan"), 0.2]},
                            "domain": {"kind": "simplex", "n": 3}, "max_iters": 5}, 3),
    (["solve", "@config"], {**ASYM_SPECT, "max_iters": 5, "mode": "approx"}, 2),
    (["solve", "@config"], {**ASYM_SPECT, "max_iters": 5, "mode": "exact"}, 2),
    (["solve", "@config"], {**ASYM_SPECT, "eps": 0.1, "mode": "approx"}, 2),
    (["solve", "@config"], {"objective": {"kind": "quadratic",
                                          "target": [[0.5, float("nan")], [float("nan"), 0.5]]},
                            "domain": {"kind": "spectahedron", "n": 2}, "max_iters": 5,
                            "mode": "approx"}, 3),
    (["sdpfeas", "--problem", "@huge_problem", "--eps", "0.5"], None, 3),
]


@pytest.mark.parametrize("argv,cfg,code", PROBES)
def test_bad_input_probes_exit_with_one_error_line(argv, cfg, code):
    got, out, err = run_case(argv, cfg)
    assert got == code, err
    if code:
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("data error:" if code == 3 else "config error:")


@pytest.mark.parametrize("data,where", [("@ratings_inf", "ratings_inf:2:"),
                                        ("@ratings_nan", "ratings_nan:3:")])
def test_complete_non_finite_rating_names_file_and_line(data, where):
    code, _, err = run_case(["complete", "--data", data, "--t", "2"])
    assert code == 3
    assert where in err and "not a finite number" in err


def test_bench_worker_data_error_exits_3():
    # the DataError crosses the process pool by pickling
    cfg = {"kind": "t_sweep", "t_values": [1.0, 2.0], "data": "@missing", "workers": 2,
           "out": "@out"}
    code, out, err = run_case(["bench", "@config"], cfg)
    assert code == 3 and out == ""
    assert err.startswith("data error:") and len(err.strip().splitlines()) == 1


NAN, INF = float("nan"), float("inf")
# for any field: wrong types, numbers as strings, non-finite and huge values
ODD = [None, True, "3", "x", [], {}, NAN, INF, -INF, -1, 0, 1e308, -1e308, 10 ** 400]
# a budget (max_iters, steps, k_max) never gets the huge int: a huge budget
# is a valid run that does not end, not bad input
ODD_BUDGET = ODD[:-1]
OUT_PATHS = ["@out", "@missing", "@nodir", "@dir"]  # the last two are unwritable


def field(sane, odd=ODD):
    """Mostly sane values, so that a run gets past the schema now and then."""
    return st.one_of(*[sane] * 5, st.sampled_from(odd))


def flag(sane, odd=ODD_BUDGET):
    return field(sane, odd).map(str)


MISSING = object()


def often(strategy):
    """The field is usually there."""
    return st.one_of(*[strategy] * 5, st.just(MISSING))


def sometimes(strategy):
    return st.one_of(strategy, st.just(MISSING))


def record(**fields):
    return st.fixed_dictionaries(fields).map(
        lambda d: {k: v for k, v in d.items() if v is not MISSING})


# sane magnitudes are small so a certified run's budget 8 C_f / eps stays short
small = st.floats(0.5, 1.0)
vector = st.lists(field(st.floats(-1.0, 1.0)), min_size=1, max_size=3)
objectives = st.one_of(
    record(kind=st.just("quadratic"),
           target=sometimes(field(st.one_of(vector, st.lists(vector, min_size=1, max_size=3))))),
    record(kind=st.sampled_from(["least_squares", "lasso"]),
           A=often(field(st.lists(vector, min_size=1, max_size=3))),
           b=often(field(vector)), t=sometimes(field(small)), scale=sometimes(field(small))),
    record(kind=st.just("custom_quadratic"),
           path=st.sampled_from(["@quad", "@quad_huge", "@quad_bad", "@not_json", "@missing",
                                 "@dir"])),
    record(kind=st.just("matcomp"),
           path=st.sampled_from(["@ratings", "@ratings_inf", "@missing"]),
           t=often(field(small)), steps=sometimes(field(st.integers(0, 2), ODD_BUDGET)),
           split=sometimes(st.sampled_from(["random:0.5", "peruser:1", "random:nan", "odd"])),
           preset=sometimes(st.sampled_from(["as_is", "normalized", "normalised"])),
           format=sometimes(st.sampled_from(["tab_100k", "dat_1m", "x"]))),
    record(kind=st.just("sdpfeas"),
           path=st.sampled_from(["@feasible", "@infeasible", "@bad_problem", "@huge_problem",
                                 "@missing"]),
           eps=often(field(small))),
    record(kind=st.sampled_from(ODD)),
)
solve_configs = record(
    objective=often(objectives),
    domain=often(record(
        kind=often(st.sampled_from(["simplex", "l1", "cube", "spectahedron", "torus"])),
        n=often(field(st.integers(1, 3))), t=sometimes(field(small)))),
    eps=sometimes(field(small)),
    max_iters=sometimes(field(st.integers(0, 6), ODD_BUDGET)),
    schedule=sometimes(st.sampled_from(["harmonic", "line_search", "momentum", 1])),
    mode=sometimes(st.sampled_from(["exact", "approx", "apprx"])),
    seed=sometimes(field(st.integers(0, 3))),
    out=sometimes(record(trace=sometimes(st.sampled_from(OUT_PATHS + [1])),
                         summary=sometimes(st.sampled_from(OUT_PATHS)))),
)
bench_configs = record(
    kind=often(st.sampled_from(["k_sweep", "t_sweep", "volume"])),
    out=often(st.sampled_from(OUT_PATHS + [None, 1])),
    n_values=often(st.lists(field(st.integers(1, 3)), max_size=2)),
    k_max=sometimes(field(st.integers(0, 4), ODD_BUDGET)),
    t_values=often(st.lists(field(small), max_size=2)),
    data=often(st.sampled_from(["@ratings", "@ratings_nan", "@missing"])),
    steps=sometimes(field(st.integers(0, 2), ODD_BUDGET)),
    rho=sometimes(field(small)),
    format=sometimes(st.sampled_from(["tab_100k", "dat_1m", "x"])),
    workers=sometimes(st.sampled_from([1, 0, -1, None, "2", 1.5])),  # never > 1: no processes
    seed=sometimes(field(st.integers(0, 3))),
)


def _with_outputs(argv, trace, summary):
    return argv + (["--trace", trace] if trace else []) + (
        ["--summary", summary] if summary else [])


complete_argvs = st.builds(
    lambda data, t, steps, split, extra, trace, summary: _with_outputs(
        ["complete", "--data", data, "--t", t, "--steps", steps, "--split", split] + extra,
        trace, summary),
    st.sampled_from(["@ratings", "@ratings_inf", "@ratings_nan", "@missing", "@dir"]),
    flag(small, ODD), flag(st.integers(0, 2)),
    st.sampled_from(["random:0.5", "random:1", "peruser:1", "random:nan", "random:2",
                     "peruser:x", "odd"]),
    st.sampled_from([[], ["--normalize"], ["--grad-avg"], ["--no-line-search"],
                     ["--format", "dat_1m"]]),
    st.sampled_from(OUT_PATHS + [None]), st.sampled_from(OUT_PATHS + [None]))
sdpfeas_argvs = st.builds(
    lambda problem, eps, seed, trace, summary: _with_outputs(
        ["sdpfeas", "--problem", problem, "--eps", eps, "--seed", seed], trace, summary),
    st.sampled_from(["@feasible", "@infeasible", "@bad_problem", "@huge_problem", "@quad",
                     "@missing"]),
    flag(small, ODD), flag(st.integers(0, 3)),
    st.sampled_from(OUT_PATHS + [None]), st.sampled_from(OUT_PATHS + [None]))

cases = st.one_of(
    st.tuples(st.just(["solve", "@config"]),
              st.one_of(solve_configs, st.sampled_from([[1, 2], "x", NAN]))),
    st.tuples(st.sampled_from([["solve", "@missing"], ["solve", "@not_json"],
                               ["solve", "@dir"]]), st.none()),
    st.tuples(complete_argvs, st.none()),
    st.tuples(sdpfeas_argvs, st.none()),
    st.tuples(st.just(["bench", "@config"]), bench_configs),
)


def _pin_probes(test):
    for argv, cfg, _ in PROBES:
        test = example(case=(argv, cfg))(test)
    return test


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases)
@_pin_probes
def test_fuzzed_input_exits_0_to_3_without_traceback(case):
    argv, cfg = case
    code, out, err = run_case(argv, cfg)
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code == 1:
        # only an honest "budget exhausted": an uncertified certified run or
        # an undetermined sdpfeas outcome, with its summary on stdout
        summary = json.loads(out)
        assert summary.get("certified") is False or summary.get("status") == "undetermined"
    elif code in (2, 3) and "usage:" not in err:  # argparse prints a usage line
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("data error:" if code == 3 else "config error:")
