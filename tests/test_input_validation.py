"""Library input checks raise real exceptions, so `python -O` keeps them; a
certified `solve` respects `max_iters`; overflowing input leaves one line
on stderr."""

import json
import subprocess
import sys

import numpy as np
import pytest

from condgrad.cli import main
from condgrad.core import ObjectiveOracle, RunTrace, StepSchedule, StopRule
from condgrad.domains.matrices import (FactoredPSD, SparsePsdAtom, boundeddiag_lmo,
                                      sparsepsd_lmo, spect_lmo, spect_lowrank_lowerbound_suite)
from condgrad.domains.vectors import (cube_lmo, l1_lmo, l1_lowerbound_suite, simplex_lmo,
                                      sparse_lowerbound_suite, uniform_k_vector)
from condgrad.eigen import SymmetricOperator, approx_largest_ev, dense_eig_oracle
from condgrad.matcomp import PredictionStore, RatingDataset, complete, metrics
from condgrad.objectives import squared_norm
from condgrad.sdpfeas import FeasibilitySDP, binary_search_objective, softmax_eval_grad
from condgrad.solver import line_search_alpha
from condgrad.transforms import (BlockEmbedding, extract_factorization, nuclear_to_spect,
                                 weighted_nuclear_wrap)


DIAG3 = RatingDataset.from_triples(3, 3, [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)])
ONE_USER_ITEM = RatingDataset.from_triples(1, 1, [(0, 0, 1.0)])
EMPTY_OPERATOR = SymmetricOperator(dim=0, matvec=lambda v: v, fro_norm=1.0)
RANK_ONE_5 = FactoredPSD(n=5, scale=1.0, weights=[1.0], vectors=[np.eye(5)[0]])


@pytest.mark.parametrize("call,what", [
    (lambda: RunTrace.from_csv(""), "header"),
    (lambda: metrics([3.0], [1, 2, 3, 4, 5]), "ratings"),
    (lambda: binary_search_objective(np.eye(3), None, 0.5, value_range=(1.0, -1.0), n=3),
     "lo <= hi"),
    (lambda: binary_search_objective(np.eye(3), None, 0.5), "needs n"),
    (lambda: binary_search_objective(np.eye(3), None, 0.5, value_range=(0.0, np.inf), n=3),
     "value_range"),
    (lambda: binary_search_objective(np.eye(3), None, 0.5, value_range=(-np.inf, 0.0), n=3),
     "value_range"),
    (lambda: binary_search_objective(np.eye(3), None, float("nan"), n=3), "eps must be positive"),
    (lambda: binary_search_objective(np.diag([np.nan, 1.0]), None, 0.5, n=2),
     "objective matrix C is not finite"),
    (lambda: binary_search_objective(np.diag([np.nan, 1.0]), None, 0.5, value_range=(0.0, 1.0),
                                     n=2), "objective matrix C is not finite"),
    (lambda: binary_search_objective(np.array([[0.0, 1.0], [0.0, 0.0]]), None, 0.5, n=2),
     "objective matrix C is not symmetric"),
    (lambda: binary_search_objective(np.eye(3), FeasibilitySDP(n=2, A=[np.eye(2)], b=[1.0]), 0.5),
     "objective matrix C has shape \\(3, 3\\), expected \\(2, 2\\)"),
    (lambda: sparsepsd_lmo(np.eye(3), mode="bogus"), "bogus"),
    (lambda: sparsepsd_lmo(np.diag([0.0, np.nan, 1.0])), "non-finite linearization"),
    (lambda: sparsepsd_lmo(np.diag([1e308, 1e308, 1e308]), mode="minus"),
     "non-finite linearization"),
    (lambda: nuclear_to_spect(squared_norm(), 2, 2, t=-1.0), "positive"),
    (lambda: simplex_lmo([0.0, np.nan]), "finite"),
    (lambda: l1_lmo([np.inf, 1.0]), "finite"),
    (lambda: cube_lmo([1.0, -np.inf]), "finite"),
    (lambda: line_search_alpha(ObjectiveOracle(eval=np.sum, grad=np.ones_like, name="bad",
                                               alpha_hook=lambda x, s: 1.5),
                               np.zeros(2), np.ones(2)), "alpha_hook"),
    (lambda: StepSchedule.two_phase(-1), "K >= 0"),
    (lambda: spect_lmo(SymmetricOperator.from_dense(np.eye(3)), 0.0), "dense matrix"),
    (lambda: dense_eig_oracle(SymmetricOperator.from_dense(np.eye(3))), "dense matrix"),
    (lambda: complete(DIAG3, t=1.0, eps=-1.0), "eps must be positive"),
    (lambda: complete(DIAG3, t=1.0, eps=float("nan")), "eps must be positive"),
    (lambda: PredictionStore(ONE_USER_ITEM).update(1.5, np.array([0.6, 0.8]), 1.0), "alpha"),
    (lambda: boundeddiag_lmo(np.array([[0.0, 1.0], [0.0, 0.0]])), "symmetric"),
    (lambda: softmax_eval_grad(FeasibilitySDP(n=2, A=[np.eye(2)], b=[0.5]), -1.0, np.eye(2) / 2),
     "sigma must be positive"),
    (lambda: spect_lowrank_lowerbound_suite(3, 4), "1 <= k <= n"),
    (lambda: SparsePsdAtom(2, 1, 5), "sparse-PSD atom"),
    (lambda: uniform_k_vector(3, 5), "1 <= k <= n"),
    (lambda: sparse_lowerbound_suite(3, 5), "1 <= k <= n"),
    (lambda: l1_lowerbound_suite(8, 6), "k <= n/2"),
    (lambda: BlockEmbedding(2, 2).z_block(np.zeros((3, 3))), "z_block needs"),
    (lambda: BlockEmbedding(2, 2).embed_z(np.zeros((1, 2))), "embed_z needs"),
    (lambda: extract_factorization(RANK_ONE_5, 2, 2), "2 \\+ 2"),
    (lambda: weighted_nuclear_wrap(squared_norm(), [1.0, 0.0], [1.0]), "positive"),
    (lambda: approx_largest_ev(EMPTY_OPERATOR, 0.1), "zero start vector"),
    (lambda: approx_largest_ev(SymmetricOperator.from_dense(np.eye(3)), 0.1, start=np.ones(1)),
     "start vector of shape \\(1,\\) for an operator of dim 3"),
    (lambda: approx_largest_ev(SymmetricOperator.from_dense(np.eye(3)), -0.5, iterations=4),
     "eps must be"),
    (lambda: StopRule(target_lower=0.5), "needs max_iters"),
    (lambda: StopRule(max_iters=3, target_lower=float("nan")), "target_lower"),
    (lambda: StopRule(max_iters=3, target_lower=float("inf")), "target_lower"),
    # a rule that may never fire: f* above target_f, or a NaN target
    (lambda: StopRule(target_f=0.0), "needs max_iters"),
    (lambda: StopRule(target_f=float("nan")), "target_f"),
    (lambda: StopRule(target_gap=float("nan")), "target_gap"),
    # a cap that is not a count: k >= nan is never true, and -1 or 2.5 is no step count
    *[(lambda m=cap: StopRule(max_iters=m), "max_iters") for cap in (float("nan"), -1, 2.5)],
    *[(lambda b=budget: approx_largest_ev(SymmetricOperator.from_dense(np.eye(3)), 0.1,
                                          iterations=b), "iterations")
      for budget in (0, -1, float("nan"))],
], ids=["empty_trace", "metric_shapes", "value_range", "missing_n",
        "value_range_inf_hi", "value_range_inf_lo", "bisection_eps_nan",
        "bisection_c_nan", "bisection_c_nan_with_range", "bisection_c_asymmetric",
        "bisection_c_shape",
        "sparsepsd_mode", "sparsepsd_lmo_nonfinite", "sparsepsd_lmo_overflow",
        "embedding_t", "simplex_lmo", "l1_lmo", "cube_lmo",
        "alpha_hook_range", "two_phase_K", "exact_spect_lmo_operator", "dense_oracle_operator",
        "complete_eps_negative", "complete_eps_nan", "store_update_alpha",
        "boundeddiag_lmo_asymmetric", "softmax_sigma",
        "rank_suite_k", "sparsepsd_atom", "uniform_k", "sparse_suite_k", "l1_suite_k",
        "z_block_shape", "embed_z_shape", "factorization_split", "wrap_weights",
        "eig_zero_start", "eig_start_shape", "eig_eps_negative",
        "stop_rule_lower_alone", "stop_rule_lower_nan", "stop_rule_lower_inf",
        "stop_rule_f_alone", "stop_rule_f_nan", "stop_rule_gap_nan",
        "stop_rule_max_iters_nan", "stop_rule_max_iters_-1", "stop_rule_max_iters_2.5",
        *[f"eig_lanczos_budget_{budget}" for budget in ("0", "-1", "nan")]])
def test_bad_library_input_raises_value_error(call, what):
    with pytest.raises(ValueError, match=what):
        call()


def test_stop_rule_checks_survive_python_O():
    code = ("from condgrad.core import StopRule\n"
            "for kw in ({'target_lower': 0.5}, {'max_iters': 3, 'target_lower': float('nan')},\n"
            "           {'target_f': 0.0}, {'target_f': float('nan')},\n"
            "           {'target_gap': float('nan')}, {'max_iters': float('nan')},\n"
            "           {'max_iters': -1}, {'max_iters': 2.5}):\n"
            "    try:\n"
            "        StopRule(**kw)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'StopRule({kw}) was accepted')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _solve(tmp_path, capsys, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code = main(["solve", str(path)])
    return code, capsys.readouterr()


SIMPLEX = {"objective": {"kind": "quadratic"}, "domain": {"kind": "simplex", "n": 30},
           "eps": 0.1}  # C_f = 2, K = 80: a certified run takes 2K + 1 = 161 steps


def test_certified_solve_within_max_iters_runs_as_without_it(tmp_path, capsys):
    code, plain = _solve(tmp_path, capsys, SIMPLEX)
    assert code == 0
    code, capped = _solve(tmp_path, capsys, {**SIMPLEX, "max_iters": 161})
    assert code == 0
    assert capped.out == plain.out


@pytest.mark.parametrize("cfg,steps", [
    ({**SIMPLEX, "max_iters": 160}, "161"),
    ({"objective": {"kind": "quadratic"}, "domain": {"kind": "l1", "n": 2, "t": 1e150},
      "eps": 0.5, "max_iters": 10}, "6.4e+301"),
])
def test_certified_solve_over_max_iters_is_a_config_error(tmp_path, capsys, cfg, steps):
    code, captured = _solve(tmp_path, capsys, cfg)
    assert code == 2 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert f"takes {steps} steps" in lines[0]
    assert f"max_iters {cfg['max_iters']}" in lines[0]


@pytest.mark.parametrize("objective", [
    {"kind": "quadratic", "target": [1e308, -1e308]},
    {"kind": "custom_quadratic", "path": "@huge"},
])
def test_overflow_leaves_one_data_error_line_on_stderr(tmp_path, objective):
    # numpy's RuntimeWarning goes to the real stderr, past pytest's capture
    huge = tmp_path / "q.json"
    huge.write_text(json.dumps({"Q": [[1e308, 1e308], [1e308, 1e308]]}))
    objective = {k: str(huge) if v == "@huge" else v for k, v in objective.items()}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"objective": objective, "domain": {"kind": "cube", "n": 2}, "max_iters": 3}))
    proc = subprocess.run([sys.executable, "-m", "condgrad.cli", "solve", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:"), proc.stderr
