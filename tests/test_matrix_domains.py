import itertools

import numpy as np
import pytest

from condgrad.core import StepSchedule, StopRule, make_rng
from condgrad.domains.matrices import (
    BoundedDiagDomain,
    SparsePsdAtom,
    SparsePsdDomain,
    SpectrahedronDomain,
    boundeddiag_lmo,
    hazan_run,
    maxdiag_run,
    random_low_rank_psd,
    rank_one_atom,
    sparsepsd_lmo,
    sparsepsd_run,
    spect_lmo,
    spect_lowrank_lowerbound_suite,
)
from condgrad import solver
from condgrad.eigen import SymmetricOperator, dense_eig_oracle
from condgrad.objectives import squared_distance, squared_norm
from condgrad.solver import curvature_from_hessian, fw_run
from support import boundeddiag_grid_oracle_2x2, measure_bounded_diag_diam_sq, power_largest_ev


def _sym(rng, n):
    M = rng.standard_normal((n, n))
    return (M + M.T) / 2


def test_exact_spect_lmo_matches_dense_minimum():
    rng = make_rng(0)
    for _ in range(50):
        G = _sym(rng, 7)
        res = spect_lmo(G, eps=0.0, t=1.5)
        vals, vecs = dense_eig_oracle(G)
        assert float(np.sum(res.atom.point * G)) == pytest.approx(1.5 * vals[-1],
                                                                  abs=1e-10)
        X = res.atom.point
        assert np.trace(X) == pytest.approx(1.5, abs=1e-12)
        assert np.linalg.matrix_rank(X, tol=1e-9) == 1


def test_approx_spect_lmo_hits_tolerance_mostly():
    rng = make_rng(1)
    hits = 0
    trials = 100
    for trial in range(trials):
        n = int(rng.integers(5, 100))
        G = _sym(rng, n)
        eps = 0.5
        res = spect_lmo(G, eps=eps, t=1.0, seed=trial)
        vals, _ = dense_eig_oracle(G)
        if float(np.sum(res.atom.point * G)) <= vals[-1] + eps:
            hits += 1
        assert res.slack == eps
    assert hits >= 95


def test_lanczos_spect_lmo_never_worse_than_the_power_method():
    # spect_lmo runs Lanczos; the power method from the same seed is the
    # reference it must match or beat, at no more than one extra matvec
    rng = make_rng(11)
    for trial in range(30):
        n = int(rng.integers(5, 101))
        G = _sym(rng, n)
        for eps in (0.5, 1.0, 2.0):
            res = spect_lmo(G, eps=eps, t=1.0, seed=trial)
            power = power_largest_ev(SymmetricOperator.from_dense(G).negated(), eps,
                                     seed=trial)
            assert np.vdot(G, res.atom.point) \
                <= np.vdot(G, rank_one_atom(power.vector).point) + 1e-10
            assert res.matvecs <= power.matvecs + 1
            assert res.slack == eps


def test_hazan_rank_growth_and_primal_rate():
    obj = squared_norm(curvature_bound=2.0, name="fro2")
    n = 8
    run = hazan_run(obj, n=n, t=1.0, stop=StopRule(max_iters=40),
                    lmo_mode="approx", seed=0)
    X = run.point
    assert run.factored.rank() <= 41
    for row in run.trace.rows:
        if row.k >= 1:
            assert row.f - 1.0 / n <= 8.0 * 2.0 / (row.k + 2.0) + 1e-10
    assert np.trace(X) == pytest.approx(1.0, abs=1e-9)
    vals = np.linalg.eigvalsh(X)
    assert vals.min() >= -1e-12


def test_hazan_run_reports_why_it_stopped():
    obj = squared_norm(curvature_bound=2.0, name="fro2")
    capped = hazan_run(obj, n=8, stop=StopRule(max_iters=5), seed=0)
    assert capped.stopped_on == "max_iters" and capped.trace.final().k == 5
    run = hazan_run(obj, n=8, stop=StopRule(max_iters=400, target_gap=0.2), seed=0)
    assert run.stopped_on == "gap"
    assert run.trace.final().gap <= 0.2 and run.trace.final().k < 400


def test_hazan_line_search_variant_is_monotone():
    obj = squared_norm(curvature_bound=2.0, name="fro2")
    run = hazan_run(obj, n=6, t=1.0, stop=StopRule(max_iters=25),
                    variant="line_search", seed=1)
    fs = [r.f for r in run.trace.rows]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_hazan_grad_averaging_variant_still_converges():
    obj = squared_norm(curvature_bound=2.0, name="fro2")
    run = hazan_run(obj, n=6, t=1.0, stop=StopRule(max_iters=60),
                    variant="grad_averaging", seed=2)
    assert run.trace.final().f <= 1.0 / 6 + 0.1
    # certified gap estimates stay valid for the true gradient
    vals_ok = all(r.gap + 1e-9 >= r.f - 1.0 / 6 for r in run.trace.rows)
    assert vals_ok


def _lowrank_target(n, seed):
    rng = make_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, 3)))
    R = (Q * np.array([0.5, 0.3, 0.2])) @ Q.T
    return 0.5 * (R + R.T)


@pytest.mark.parametrize("variant,mode", [
    ("plain", "approx"), ("plain", "exact"), ("line_search", "approx")])
def test_hazan_run_equals_fw_run_on_the_spectahedron(variant, mode):
    obj = squared_distance(_lowrank_target(12, 4), curvature_bound=2.0)
    stop = StopRule(max_iters=30)
    hz = hazan_run(obj, n=12, t=1.0, stop=stop, variant=variant,
                   lmo_mode=mode, seed=5)
    schedule = StepSchedule.line_search() if variant == "line_search" \
        else StepSchedule.harmonic()
    fw = fw_run(obj, SpectrahedronDomain(12, 1.0), stop=stop,
                schedule=schedule, lmo_mode=mode, seed=5)
    assert [r[:-1] for r in hz.trace.rows] == [r[:-1] for r in fw.trace.rows]
    assert hz.matvecs == fw.matvecs
    assert np.array_equal(hz.point, fw.point)
    assert np.allclose(hz.factored.dense(), fw.point, atol=1e-12)


def test_hazan_grad_averaging_costs_more_matvecs_than_plain():
    obj = squared_distance(_lowrank_target(12, 6), curvature_bound=2.0)
    runs = {v: hazan_run(obj, n=12, t=1.0, stop=StopRule(max_iters=20),
                         variant=v, seed=3)
            for v in ("plain", "grad_averaging")}
    assert len(runs["plain"].trace) == len(runs["grad_averaging"].trace) == 21
    # one extra eigensolve per step k >= 1 for the certified gap
    assert runs["grad_averaging"].matvecs > runs["plain"].matvecs
    assert runs["grad_averaging"].trace.rows[0][:-1] == runs["plain"].trace.rows[0][:-1]


def test_hazan_approx_run_weak_duality_on_every_row():
    # R lies in the spectahedron, so f* = 0 and each certified gap must
    # dominate f_k itself
    n = 150
    obj = squared_distance(random_low_rank_psd(n, 3, make_rng(12)),
                           curvature_bound=curvature_from_hessian(2.0, 2.0))
    run = hazan_run(obj, n=n, t=1.0, stop=StopRule(max_iters=200, target_gap=0.1),
                    lmo_mode="approx", seed=12)
    assert run.trace.final().gap <= 0.1
    assert all(r.f <= r.gap for r in run.trace.rows)


def test_matrix_runs_call_fw_run_through_the_solver_module(monkeypatch):
    # callers that wrap solver.fw_run (a tracer, say) must see these runs
    calls = []
    inner = solver.fw_run

    def counting(*args, **kwargs):
        calls.append(type(args[1]).__name__)
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver, "fw_run", counting)
    hazan_run(squared_norm(curvature_bound=2.0), n=4, stop=StopRule(max_iters=3))
    sparsepsd_run(squared_norm(), n=4, stop=StopRule(max_iters=3))
    maxdiag_run(squared_norm(), n=2, stop=StopRule(max_iters=2))
    assert calls == ["SpectrahedronDomain", "SparsePsdDomain", "BoundedDiagDomain"]


def test_hazan_run_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        hazan_run(squared_norm(curvature_bound=2.0), n=3, variant="momentum")


def test_lowrank_lowerbound_suite():
    for n, k in [(6, 1), (6, 3), (12, 4)]:
        out = spect_lowrank_lowerbound_suite(n, k, seed=0, samples=200)
        assert out["uniform_value"] == pytest.approx(1.0 / k, abs=4e-16 * max(1, k))
        assert out["sample_min"] >= 1.0 / k - 1e-10
        assert out["diameter_sq"] == pytest.approx(2.0, abs=1e-12)


def test_sparsepsd_atom_structure():
    a = SparsePsdAtom(0, 2, +1)
    M = a.matrix(4)
    assert M[0, 0] == 1 and M[2, 2] == 1 and M[0, 2] == 1 and M[2, 0] == 1
    assert np.count_nonzero(M) == 4
    assert np.trace(M) == 2.0
    vals = np.linalg.eigvalsh(M)
    assert vals.min() >= -1e-12
    b = SparsePsdAtom(1, 3, -1)
    assert b.matrix(4)[1, 3] == -1.0
    assert np.linalg.eigvalsh(b.matrix(4)).min() >= -1e-12


def _brute_sparsepsd(G, mode):
    n = G.shape[0]
    best = None
    for i, j in itertools.combinations(range(n), 2):
        for sign, fam in ((+1, 0), (-1, 1)):
            if mode == "plus" and sign < 0:
                continue
            if mode == "minus" and sign > 0:
                continue
            val = G[i, i] + G[j, j] + 2 * sign * G[i, j]
            key = (val, i, j, fam)
            if best is None or key < best:
                best = key
    return best


@pytest.mark.parametrize("mode", ["both", "plus", "minus"])
def test_sparsepsd_lmo_matches_enumeration(mode):
    rng = make_rng(3)
    for _ in range(200):
        G = _sym(rng, 6)
        atom = sparsepsd_lmo(G, mode=mode)
        val, i, j, fam = _brute_sparsepsd(G, mode)
        assert (atom.i, atom.j) == (i, j)
        assert atom.sign == (+1 if fam == 0 else -1)
        assert atom.inner(G) == pytest.approx(val, abs=1e-13)


def test_sparsepsd_lmo_tie_break_prefers_plus_then_lowest_index():
    G = np.zeros((4, 4))  # every atom scores 0
    atom = sparsepsd_lmo(G)
    assert (atom.i, atom.j, atom.sign) == (0, 1, +1)


def test_sparsepsd_run_entry_count_bound():
    obj = squared_distance(np.zeros((5, 5)), name="dist2")
    res = sparsepsd_run(obj, n=5, stop=StopRule(max_iters=12), seed=0)
    assert np.count_nonzero(res.point) <= 4 * (12 + 1)
    assert np.trace(res.point) == pytest.approx(2.0, abs=1e-9)


def test_sparsepsd_plus_mode_diagonal_dominance_is_tight():
    rng = make_rng(4)
    obj = squared_distance(_sym(rng, 6) + 3 * np.eye(6), name="dist2")
    res = sparsepsd_run(obj, n=6, mode="plus", stop=StopRule(max_iters=30), seed=0)
    X = res.point
    for i in range(6):
        off = np.abs(np.delete(X[i], i)).sum()
        assert abs(X[i, i]) == pytest.approx(off, abs=1e-12)


def test_boundeddiag_lmo_beats_grid_oracle_2x2():
    rng = make_rng(5)
    for trial in range(20):
        G = _sym(rng, 2)
        t = float(rng.uniform(0.5, 2.0))
        grid = boundeddiag_grid_oracle_2x2(G, t=t)
        res = boundeddiag_lmo(G, t=t, eps=0.05, seed=trial)
        assert res.value <= grid + t * 0.05 + 1e-9


def test_boundeddiag_lmo_lower_bounds_feasible_probes():
    # convexity certificate at n=3: the returned value must not exceed
    # the objective at any feasible probe point
    rng = make_rng(6)
    for trial in range(10):
        G = _sym(rng, 3)
        t = 1.0
        res = boundeddiag_lmo(G, t=t, eps=0.0, seed=trial)
        for _ in range(50):
            V = rng.standard_normal((3, 3))
            nrm = np.linalg.norm(V, axis=1, keepdims=True)
            V = V / np.maximum(nrm / np.sqrt(t), 1.0)
            probe = V @ V.T
            assert res.value <= float(np.sum(G * probe)) + 1e-8


def test_boundeddiag_atoms_are_feasible():
    rng = make_rng(7)
    G = _sym(rng, 4)
    res = boundeddiag_lmo(G, t=1.5, eps=0.0, seed=0)
    Y = res.result.atom.point
    assert np.linalg.eigvalsh(Y).min() >= -1e-10
    assert Y.diagonal().max() <= 1.5 + 1e-12


def test_bounded_diag_diameter_exceeds_naive_dimension_bound():
    # at n=3 two rank-one sign atoms are 16 > 12 apart in squared Frobenius
    measured = measure_bounded_diag_diam_sq(3, t=1.0, samples=50, seed=0)
    assert measured >= 16.0 - 1e-9
    dom = BoundedDiagDomain(3, t=1.0)
    assert dom.diam_sq >= measured  # the provable cap dominates what we see


def test_maxdiag_run_stays_feasible_and_decreases():
    rng = make_rng(8)
    target = _sym(rng, 3)
    target = target @ target.T / 4  # PSD target
    obj = squared_distance(target, name="dist2")
    res = maxdiag_run(obj, n=3, t=1.0, stop=StopRule(max_iters=15), seed=0)
    fs = [r.f for r in res.trace.rows]
    assert fs[-1] <= fs[0]
    dom = BoundedDiagDomain(3, t=1.0)
    assert dom.contains(res.point)


def test_spectrahedron_domain_membership():
    dom = SpectrahedronDomain(4, t=2.0)
    assert dom.contains(2.0 * np.eye(4) / 4)
    assert not dom.contains(np.diag([3.0, 0, 0, 0]))          # trace too big
    assert not dom.contains(np.diag([1.0, -0.5, 0.5, 0.0]))   # not PSD
