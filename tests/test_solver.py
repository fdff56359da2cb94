import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgrad import solver
from condgrad.core import Atom, ObjectiveOracle, StepSchedule, StopRule, make_rng
from condgrad.domains.matrices import SpectrahedronDomain, hazan_run
from condgrad.domains.vectors import CubeDomain, L1BallDomain, SimplexDomain, simplex_lmo
from condgrad.objectives import least_squares, linear, squared_distance, squared_norm
from condgrad.solver import (
    certified_iteration_count,
    curvature_from_hessian,
    fw_run,
    gap_certified_run,
    line_search_alpha,
)
from support import duality_gap


def test_curvature_from_hessian_values():
    assert curvature_from_hessian(2.0, 2.0) == 2.0   # squared norm on the simplex
    assert curvature_from_hessian(0.0, 7.0) == 0.0   # linear objective
    assert curvature_from_hessian(1.0, 2.0) == 1.0   # masked squared loss


def test_hand_traced_first_two_steps_on_simplex():
    # f = ||x||^2 from e0: step 0 has alpha=1 and jumps to the lowest-index
    # zero coordinate e1 (f stays 1); step 1 has alpha=2/3 and mixes back
    # toward e0, giving f = 1/9 + 4/9 = 5/9.
    obj = squared_norm(curvature_bound=2.0)
    res = fw_run(obj, SimplexDomain(3), stop=StopRule(max_iters=2))
    rows = res.trace.rows
    assert rows[0].alpha == 1.0 and rows[0].atom == "e1"
    assert rows[1].alpha == pytest.approx(2.0 / 3.0) and rows[1].atom == "e0"
    assert obj.eval(res.point) == pytest.approx(5.0 / 9.0)


def test_iterates_stay_convex_combinations():
    obj = squared_norm(curvature_bound=2.0)
    res = fw_run(obj, SimplexDomain(6), stop=StopRule(max_iters=40))
    assert abs(res.ledger.weight_sum() - 1.0) <= 1e-12
    assert np.allclose(res.ledger.reconstruct(), res.point, atol=1e-12)
    assert np.all(res.point >= -1e-15) and abs(res.point.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [4, 25])
def test_primal_rate_exact_lmo(n):
    obj = squared_norm(curvature_bound=2.0)
    fstar = 1.0 / n
    errs = []
    res = fw_run(obj, SimplexDomain(n), stop=StopRule(max_iters=200),
                 on_iterate=lambda k, x, fx, gap: errs.append((k, fx - fstar)))
    for k, err in errs:
        if k >= 1:
            assert err <= 4.0 * 2.0 / (k + 2.0) + 1e-12


def test_weak_duality_gap_dominates_primal_error():
    n = 9
    obj = squared_norm(curvature_bound=2.0)
    fstar = 1.0 / n
    seen = []
    fw_run(obj, SimplexDomain(n), stop=StopRule(max_iters=120),
           on_iterate=lambda k, x, fx, gap: seen.append((fx, gap)))
    for fx, gap in seen:
        assert gap >= fx - fstar - 1e-12


def test_step_lemma_quadratic_decrease():
    # f(x + a(s-x)) <= f(x) - a*g(x) + a^2*C for the exact atom
    rng = make_rng(0)
    n, C = 8, 2.0
    obj = squared_norm(curvature_bound=C)
    dom = SimplexDomain(n)
    for _ in range(50):
        x = rng.dirichlet(np.ones(n))
        g = obj.grad(x)
        s = dom.lmo(g).atom.point
        gap = float((x - s) @ g)
        for a in rng.uniform(0.0, 1.0, size=5):
            lhs = obj.eval(x + a * (s - x))
            assert lhs <= obj.eval(x) - a * gap + a * a * C + 1e-12


def test_duality_gap_hand_value_and_linear_optimum():
    # x = e0 on the 2-simplex with grad (2,0): gap = 2*1 - 0 = 2
    dom = SimplexDomain(2)
    assert duality_gap(np.array([1.0, 0.0]), np.array([2.0, 0.0]), dom) \
        == pytest.approx(2.0)
    # minimizer of a linear objective has zero gap
    c = np.array([3.0, -1.0, 2.0])
    obj = linear(c)
    s = simplex_lmo(c).point
    assert duality_gap(s, obj.grad(s), SimplexDomain(3)) == pytest.approx(0.0)


def test_line_search_symmetric_quadratic_and_degenerate_direction():
    obj = squared_norm()
    assert line_search_alpha(obj, np.array([1.0, 0.0]), np.array([0.0, 1.0])) \
        == pytest.approx(0.5, abs=1e-9)
    x = np.array([0.3, 0.7])
    assert line_search_alpha(obj, x, x) == 0.0


def test_line_search_bisection_agrees_with_closed_form():
    rng = make_rng(3)
    A = rng.standard_normal((12, 6))
    b = rng.standard_normal(12)
    with_hook = least_squares(A, b)
    without_hook = ObjectiveOracle(eval=with_hook.eval, grad=with_hook.grad,
                                   name="nohook")
    for _ in range(25):
        x = rng.dirichlet(np.ones(6))
        s = np.zeros(6)
        s[rng.integers(6)] = 1.0
        a1 = line_search_alpha(with_hook, x, s)
        a2 = line_search_alpha(without_hook, x, s)
        assert a1 == pytest.approx(a2, abs=1e-8)


def test_line_search_never_loses_to_the_scheduled_step():
    obj = squared_norm()
    n = 7
    hist_ls, hist_fx = [], []
    fw_run(obj, SimplexDomain(n), stop=StopRule(max_iters=60),
           schedule=StepSchedule.line_search(),
           on_iterate=lambda k, x, fx, gap: hist_ls.append(fx))
    fw_run(obj, SimplexDomain(n), stop=StopRule(max_iters=60),
           on_iterate=lambda k, x, fx, gap: hist_fx.append(fx))
    # pointwise dominance of the whole trajectory (same atoms, better steps)
    for a, b in zip(hist_ls, hist_fx):
        assert a <= b + 1e-12


def test_stop_on_target_gap_emits_closing_row():
    obj = squared_norm(curvature_bound=2.0)
    res = fw_run(obj, SimplexDomain(5), stop=StopRule(target_gap=0.05))
    rows = res.trace.rows
    assert res.stopped_on == "gap"
    assert rows[-1].gap <= 0.05
    assert rows[-1].alpha == 0.0  # closing row records the stopping iterate


def test_stop_on_target_lower_at_the_first_certified_row():
    # ||x||^2 on the 5-simplex has f* = 1/5; f - gap first passes 0.1 at row 16
    obj = squared_norm(curvature_bound=2.0)
    full = fw_run(obj, SimplexDomain(5), stop=StopRule(max_iters=60))
    k_first = next(r.k for r in full.trace.rows if r.f - r.gap > 0.1)
    res = fw_run(obj, SimplexDomain(5), stop=StopRule(max_iters=60, target_lower=0.1))
    rows = res.trace.rows
    assert res.stopped_on == "f_lower"
    assert rows[-1].k == k_first > 0
    assert rows[-1].alpha == 0.0
    assert rows[-1].f - rows[-1].gap > 0.1 >= max(r.f - r.gap for r in rows[:-1])
    assert [r[:6] for r in rows[:-1]] == [r[:6] for r in full.trace.rows[:k_first]]
    # a target below every row's f - gap stops at row 0; one above them, never
    assert fw_run(obj, SimplexDomain(5), stop=StopRule(max_iters=60, target_lower=-2.0)
                  ).trace.final().k == 0
    assert fw_run(obj, SimplexDomain(5), stop=StopRule(max_iters=60, target_lower=0.2)
                  ).stopped_on == "max_iters"


def test_gap_certified_run_stops_on_target_lower():
    obj = squared_norm(curvature_bound=2.0)
    full = gap_certified_run(obj, SimplexDomain(5), eps=0.05)
    k_first = next(r.k for r in full.trace.rows if r.f - r.gap > 0.1)
    run = gap_certified_run(obj, SimplexDomain(5), eps=0.05, target_lower=0.1)
    assert run.trace.final().k == k_first < full.trace.final().k
    assert run.trace.final().alpha == 0.0
    # the best row and certified flag read the rows the run took
    best = min(run.trace.rows, key=lambda r: r.gap)
    assert (run.k_hat, run.gap_bound) == (best.k, best.gap)
    assert run.certified == (best.gap <= 0.05)


def test_certified_iteration_count():
    assert certified_iteration_count(2.0, 0.5, "exact") == 16
    assert certified_iteration_count(2.0, 0.5, "approx") == 32
    assert certified_iteration_count(0.0, 0.1, "exact") == 0


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_gap_certified_run_meets_target_within_window(eps):
    obj = squared_norm(curvature_bound=2.0)
    run = gap_certified_run(obj, SimplexDomain(4), eps)
    K = certified_iteration_count(2.0, eps, "exact")
    assert run.certified and run.stopped_on == "gap"
    assert run.gap_bound <= eps
    # it stops at its first certified row, which is its smallest-gap row
    assert run.k_hat == run.trace.final().k <= 2 * K + 1
    assert run.gap_bound == run.trace.final().gap
    assert all(r.gap > eps for r in run.trace.rows[:-1])
    # the returned iterate reproduces the certified point
    assert np.allclose(run.ledger.reconstruct(), run.point, atol=1e-12)


def test_gap_certified_run_with_target_lower_does_not_stop_on_gap():
    # f* = 1/5 on the 5-simplex, so f - gap > 0.3 never holds: the run keeps
    # searching past its first certified row to the end of its 2K+1 budget
    obj = squared_norm(curvature_bound=2.0)
    K = certified_iteration_count(2.0, 0.05, "exact")
    run = gap_certified_run(obj, SimplexDomain(5), eps=0.05, target_lower=0.3)
    assert run.stopped_on == "max_iters" and run.trace.final().k == 2 * K + 1
    assert run.certified and next(r.k for r in run.trace.rows if r.gap <= 0.05) < 2 * K + 1
    best = min(run.trace.rows, key=lambda r: r.gap)
    assert (run.k_hat, run.gap_bound) == (best.k, best.gap)


def _cert_problem(kind):
    """(objective, domain, eps) for one domain kind, each at its own seed."""
    if kind == "simplex":
        r = np.random.default_rng(3).dirichlet(np.ones(40))
        return squared_distance(r, curvature_bound=2.0), SimplexDomain(40), 0.05
    if kind == "l1":
        c = np.random.default_rng(6).standard_normal(10)
        dom = L1BallDomain(10, 1.0)
        return (squared_distance(2.0 * c / np.abs(c).sum(),
                                 curvature_bound=curvature_from_hessian(2.0, dom.diam_sq)),
                dom, 0.2)
    Q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((10, 3)))
    R = (Q * np.array([0.5, 0.3, 0.2])) @ Q.T
    return squared_distance(0.5 * (R + R.T), curvature_bound=2.0), SpectrahedronDomain(10), 0.3


@pytest.mark.parametrize("kind,mode", [("simplex", "exact"), ("simplex", "approx"),
                                       ("l1", "exact"), ("spect", "approx")])
def test_gap_certified_trace_is_a_prefix_of_the_uncut_run(kind, mode, monkeypatch):
    # the gap stop only cuts the run: fw_run with the same two_phase(K)
    # schedule and inner tolerance, stopped at 2K+1 alone, runs the same rows
    obj, dom, eps = _cert_problem(kind)
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return fw_run(*args, **kwargs)

    monkeypatch.setattr(solver, "fw_run", spy)
    run = gap_certified_run(obj, dom, eps, lmo_mode=mode, seed=4)
    K = certified_iteration_count(obj.curvature_bound, eps, mode)
    (kw,) = calls
    assert kw["schedule"] == StepSchedule.two_phase(K)
    full = fw_run(obj, dom, **dict(kw, stop=StopRule(max_iters=2 * K + 1)))
    rows, k = run.trace.rows, run.trace.final().k
    assert run.stopped_on == "gap" and k < full.trace.final().k
    assert [r[:6] for r in rows[:-1]] == [r[:6] for r in full.trace.rows[:k]]
    assert rows[-1][:6] == full.trace.rows[k][:3] + (0.0,) + full.trace.rows[k][4:6]
    assert k == next(r.k for r in full.trace.rows if r.gap <= eps)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["simplex", "l1", "cube"]), n=st.integers(1, 8),
       seed=st.integers(0, 2 ** 16), eps=st.floats(0.01, 1.0))
def test_gap_certified_run_on_drawn_problems_with_the_target_inside(kind, n, seed, eps):
    # r in the domain makes f* = 0: f is then the primal error on every row.
    # Simplex targets are multiples of 2^-20, so they sum to 1 exactly.
    rng = np.random.default_rng(seed)
    if kind == "simplex":
        dom, r = SimplexDomain(n), rng.multinomial(2 ** 20, rng.dirichlet(np.ones(n))) / 2 ** 20
    elif kind == "l1":
        dom, r = L1BallDomain(n, rng.uniform(0.5, 2.0)), rng.standard_normal(n)
        r *= dom.t * rng.uniform(0.0, 0.99) / np.abs(r).sum()
    else:
        dom, r = CubeDomain(n), rng.uniform(-1.0, 1.0, size=n)
    obj = squared_distance(r, curvature_bound=curvature_from_hessian(2.0, dom.diam_sq))
    run = gap_certified_run(obj, dom, eps)
    assert run.certified and run.stopped_on == "gap"
    assert obj.eval(run.point) <= run.gap_bound <= eps
    assert all(row.gap > eps for row in run.trace.rows[:-1])
    assert all(row.f <= row.gap for row in run.trace.rows)


def test_certified_run_on_linear_objective_is_immediate():
    obj = linear(np.array([1.0, 2.0, 3.0]))
    run = gap_certified_run(obj, SimplexDomain(3), eps=0.01)
    assert run.certified and run.gap_bound <= 0.01
    assert run.k_hat <= 1


def test_certified_run_with_approximate_lmo_budget():
    # inner tolerance alpha*C_f, budget 2*ceil(8C/eps)+1
    obj = squared_norm(curvature_bound=2.0, name="fro2")
    run = gap_certified_run(obj, SpectrahedronDomain(6), eps=0.4,
                            lmo_mode="approx")
    K = certified_iteration_count(2.0, 0.4, "approx")
    assert run.certified
    assert run.k_hat <= 2 * K + 1


def test_approx_rate_with_inner_tolerance():
    # tolerated LMO error alpha*C doubles the envelope constant
    rng = make_rng(1)
    n, C = 10, 2.0
    obj = squared_norm(curvature_bound=C)
    dom = SimplexDomain(n)

    class NoisyLMO:
        diam_sq = dom.diam_sq

        def lmo(self, grad, eps=0.0, rng_=None):
            res = dom.lmo(grad)
            if eps > 0.0:  # corrupt within the additive budget
                bad = simplex_lmo(-grad).point
                lam = min(1.0, eps / max(float((bad - res.atom.point) @ grad), 1e-9))
                pt = (1 - lam) * res.atom.point + lam * bad
                return type(res)(Atom(pt, "mix"), 0, eps)
            return res

        def start_atom(self):
            return dom.start_atom()

    errs = []
    fw_run(obj, NoisyLMO(), stop=StopRule(max_iters=150), lmo_mode="approx",
           on_iterate=lambda k, x, fx, gap: errs.append((k, fx - 1.0 / n)))
    for k, err in errs:
        if k >= 1:
            assert err <= 8.0 * C / (k + 2.0) + 1e-10


def test_fw_run_counts_each_certifying_solve():
    # grad averaging steps on an eigenvector of the averaged gradient and
    # certifies the gap with a second eigensolve on the true one (from row 1
    # on); fw_run counts both, n matvecs each at eps 0
    n = 6
    obj = squared_distance(np.diag(np.arange(n, dtype=float)) / (n * (n - 1) / 2),
                           curvature_bound=4.0)
    run = hazan_run(obj, n, variant="grad_averaging", lmo_mode="exact",
                    stop=StopRule(max_iters=5))
    assert [r.matvecs for r in run.trace.rows] == [n * (2 * k + 1) for k in range(6)]
    assert run.matvecs == 11 * n


def test_squared_distance_and_least_squares_gradients():
    rng = make_rng(4)
    r = rng.standard_normal(5)
    obj = squared_distance(r)
    x = rng.standard_normal(5)
    h = 1e-6
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        fd = (obj.eval(x + e) - obj.eval(x - e)) / (2 * h)
        assert obj.grad(x)[i] == pytest.approx(fd, abs=1e-5)


def test_nonfinite_evaluation_aborts():
    obj = ObjectiveOracle(eval=lambda x: float("nan"), grad=lambda x: x,
                          name="bad")
    with pytest.raises(FloatingPointError):
        fw_run(obj, SimplexDomain(3), stop=StopRule(max_iters=2))


def test_fw_run_argument_checks_survive_python_O():
    obj = squared_norm(curvature_bound=2.0)
    dom = SimplexDomain(3)
    with pytest.raises(ValueError, match="lmo_mode"):
        fw_run(obj, dom, stop=StopRule(max_iters=2), lmo_mode="apprx")
    with pytest.raises(ValueError, match="curvature bound"):
        fw_run(squared_norm(), dom, stop=StopRule(max_iters=2), lmo_mode="approx")


@pytest.mark.parametrize("C,eps,what", [
    (float("inf"), 0.1, "finite curvature bound"),
    (2.0, 5e-324, "no finite iteration budget"),
])
def test_gap_certified_run_rejects_an_endless_budget(C, eps, what):
    with pytest.raises(ValueError, match=what):
        gap_certified_run(squared_norm(curvature_bound=C), SimplexDomain(3), eps)
