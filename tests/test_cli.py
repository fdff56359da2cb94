import json
import subprocess
import sys

import numpy as np
import pytest

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
