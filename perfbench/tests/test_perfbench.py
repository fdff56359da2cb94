"""Tests of the benchmark itself: tiny runs of every workload pass their
checks, corrupted outputs are counted as failures, the tracer's self times
add up, and run.py prints the result line BENCHMARK.json describes."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed=0):
    w = workloads.WORKLOADS[name]
    inp = w.make(seed, **w.sizes["tiny"])
    return w, inp, w.solve(inp)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    w, inp, res = tiny(name)
    assert w.check(inp, res) == []
    assert all(v > 0 for v in w.summarize(inp, res).values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]

    def fingerprint(seed):
        inp = w.make(seed, **w.sizes["tiny"])
        return w.summarize(inp, w.solve(inp))

    assert fingerprint(3) == fingerprint(3) != fingerprint(4)


def test_corrupted_simplex_outputs_fail():
    w, inp, res = tiny("simplex_cert")
    f = inp["objective"].eval(res.point)
    low = dataclasses.replace(res, gap_bound=f / 2)
    assert any("gap_bound" in m for m in w.check(inp, low))
    rows = list(res.trace.rows)
    rows[5] = rows[5]._replace(gap=rows[5].f / 2)
    bad_trace = dataclasses.replace(res.trace, rows=rows)
    assert any("f > gap" in m for m in w.check(inp, dataclasses.replace(res, trace=bad_trace)))
    outside = dataclasses.replace(res, point=res.point * 2)
    assert any("outside" in m for m in w.check(inp, outside))


def test_corrupted_hazan_output_fails():
    w, inp, res = tiny("spect_hazan")
    rows = list(res.trace.rows)
    rows[-1] = rows[-1]._replace(gap=2 * inp["stop"].target_gap)
    capped = res._replace(trace=dataclasses.replace(res.trace, rows=rows))
    assert any("step cap" in m for m in w.check(inp, capped))


def test_corrupted_matcomp_outputs_fail():
    w, inp, res = tiny("matcomp_synth")
    res.store.x[0] += 1.0
    res.final["rmse_test"] *= 1.01
    res.history[3]["f"] = 2 * res.history[2]["f"]
    msgs = w.check(inp, res)
    assert len(msgs) == 3


def test_corrupted_sdp_outputs_fail():
    w, inp, res = tiny("sdp_infeas")
    assert w.check(inp, dataclasses.replace(res, status="undetermined"))
    assert any("I/n" in m for m in w.check(inp, dataclasses.replace(res, f_lower=10.0)))


def test_measure_counts_every_corrupted_solve_as_failed():
    w = workloads.WORKLOADS["simplex_cert"]

    def solve_with_lowered_gap(inp):
        res = w.solve(inp)
        return dataclasses.replace(res, gap_bound=0.0)

    runs, _ = run.measure(dataclasses.replace(w, solve=solve_with_lowered_gap),
                          0, "tiny", 0.0, 0)
    assert len(runs) == workloads.INSTANCES + run.MIN_SOLVES
    assert all(r.failures for r in runs)


def test_host_slowdown_is_relative_to_the_reference_chunk():
    ref = run.SPEED_REFERENCE_S
    quiet, busy = [ref, 1.1 * ref, 1.2 * ref], [2 * ref, 2.2 * ref, 2.4 * ref]
    assert run.host_slowdowns([quiet, quiet, busy, busy]) == pytest.approx([1.1, 1.6, 2.2])
    runs = [run.Solve(False, 3.0, [], {}, None, slowdown=2.0),
            run.Solve(False, 4.0, [], {}, None, slowdown=2.0)]
    # solve_s is the wall time at the reference speed; the raw time stays visible
    warmup = run.Solve(False, 9.0, [], {}, None, warmup=True)
    assert run.end_to_end([warmup] + runs, 0.5, 2 ** 20)["solve_s"] == pytest.approx(1.75)
    assert run.host_figures([warmup] + runs) == {"solve_wall_s": 3.5, "host_slowdown": 2.0}


def test_measure_probes_the_host_around_every_timed_solve():
    runs, _ = run.measure(workloads.WORKLOADS["simplex_cert"], 0, "tiny", 0.0, 0)
    warm = runs[:workloads.INSTANCES]
    assert all(r.warmup and r.slowdown == 1.0 for r in warm)      # not timed
    assert all(not r.warmup and r.slowdown > 0 for r in runs[len(warm):])


def test_self_times_account_for_the_traced_solve():
    w, inp, _ = tiny("sdp_infeas")
    t = tracer.Tracer()
    originals = (vars(tracer.solver)["fw_run"], vars(tracer.eigen.SymmetricOperator)["from_dense"])
    with tracer.install(t, run.oracle_patches(inp)):
        t.wrap(tracer.ROOT, w.solve)(inp)
    assert (vars(tracer.solver)["fw_run"], vars(tracer.eigen.SymmetricOperator)["from_dense"]) == originals
    spans = t.reset()
    root = spans[0][2] - spans[0][1]
    assert sum(tracer.self_times(spans)) == pytest.approx(root, rel=1e-9)
    names = [s[0] for s in spans]
    # the phase spans wrap solver.fw_run, so fw_run self time stays separate
    fw_parents = {names[s[3]] for s in spans if s[0] == "solver.fw_run"}
    assert fw_parents == {"sdpfeas.phase_feasible", "sdpfeas.phase_certify"}
    layer = tracer.per_layer(spans, w.summarize(inp, _))
    assert layer["eigen.matvec.calls"] > layer["sdpfeas.matvecs_reported"]
    assert layer["trace.attributed_s"] + layer["trace.unattributed_s"] == pytest.approx(root)


def test_layers_a_workload_does_not_use_stay_zero():
    for name, zero in (("simplex_cert", "eigen.matvec.calls"),
                       ("matcomp_synth", "core.ledger_step.calls")):
        w, inp, _ = tiny(name)
        t = tracer.Tracer()
        with tracer.install(t, run.oracle_patches(inp)):
            res = t.wrap(tracer.ROOT, w.solve)(inp)
        assert tracer.per_layer(t.reset(), w.summarize(inp, res))[zero] == 0


def copy_checkout(dest, with_sources=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_result_line(tmp_path, trace, section):
    copy_checkout(tmp_path)
    out = bench(tmp_path, "--workload", "simplex_cert", "--seed", "1", "--seconds", "0",
                "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC[section]]
    assert all(np.isfinite(m["value"]) for m in last["metrics"].values())


def test_run_fails_without_the_library(tmp_path):
    copy_checkout(tmp_path, with_sources=False)
    out = bench(tmp_path, "--workload", "simplex_cert", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert out.returncode != 0
    assert "metrics" not in out.stdout
