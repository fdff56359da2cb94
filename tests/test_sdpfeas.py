import math
from dataclasses import replace

import numpy as np
import pytest

from condgrad import make_rng, sdpfeas, solver
from condgrad.core import RunTrace, StepSchedule, StopRule
from condgrad.domains import SpectrahedronDomain
from condgrad.sdpfeas import (
    FeasibilitySDP,
    binary_search_objective,
    constraint_values,
    curvature_estimate,
    max_violation,
    parse_problem,
    softmax_eval_grad,
    softmax_objective,
    solve_eps_feasible,
)
from condgrad.solver import certified_iteration_count, fw_run, gap_certified_run
from support import loop_constraint_values, loop_curvature_estimate, loop_softmax_eval_grad


def sym(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    M = 0.5 * (M + M.T)
    return scale * M / np.linalg.norm(M)


def planted_feasible(n, m, seed, slack=0.1):
    # X0 in the spectahedron; b_i gives every constraint `slack` of room
    rng = make_rng(seed)
    V = rng.standard_normal((n, n))
    X0 = V @ V.T
    X0 /= np.trace(X0)
    A = [sym(rng, n) for _ in range(m)]
    b = np.array([float(np.vdot(Ai, X0)) + slack for Ai in A])
    return FeasibilitySDP(n=n, A=A, b=b, t=1.0), X0


def test_sdp_type_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        FeasibilitySDP(n=2, A=[np.array([[0.0, 1.0], [0.0, 0.0]])], b=[0.0])
    with pytest.raises(ValueError):
        FeasibilitySDP(n=2, A=[], b=[])
    sdp = FeasibilitySDP(n=2, A=[np.eye(2)], b=[1.0])
    assert sdp.m == 1


def test_constraint_values_hand_example():
    X = np.array([[0.5, 0.2], [0.2, 0.5]])
    sdp = FeasibilitySDP(
        n=2, A=[np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])],
        b=[0.8, 0.5])
    vals = constraint_values(sdp, X)
    assert vals == pytest.approx([0.2, -0.1])
    assert max_violation(sdp, X) == pytest.approx(0.2)


def test_softmax_single_constraint_is_exact():
    rng = make_rng(1)
    sdp = FeasibilitySDP(n=3, A=[sym(rng, 3)], b=[0.4])
    X = np.diag([0.5, 0.3, 0.2])
    f, grad, w = softmax_eval_grad(sdp, 7.0, X)
    assert f == pytest.approx(float(np.vdot(sdp.A[0], X)) - 0.4, abs=1e-12)
    assert np.allclose(grad, sdp.A[0])
    assert w == pytest.approx([1.0])


def test_softmax_equal_constraints_hit_upper_edge():
    A = np.eye(2)
    sdp = FeasibilitySDP(n=2, A=[A, A.copy(), A.copy()], b=[0.3, 0.3, 0.3])
    X = np.diag([0.6, 0.4])
    sigma = 5.0
    f, _, w = softmax_eval_grad(sdp, sigma, X)
    assert f == pytest.approx(0.7 + math.log(3) / sigma, abs=1e-12)
    assert w == pytest.approx([1 / 3] * 3)


def test_softmax_sandwich_and_weights():
    rng = make_rng(2)
    sdp = FeasibilitySDP(n=4, A=[sym(rng, 4) for _ in range(6)],
                         b=rng.uniform(-0.5, 0.5, size=6))
    for sigma in (2.0, 10.0, 50.0):
        for _ in range(20):
            V = rng.standard_normal((4, 2))
            X = V @ V.T
            X /= np.trace(X)
            f, grad, w = softmax_eval_grad(sdp, sigma, X)
            mv = max_violation(sdp, X)
            assert mv <= f <= mv + math.log(sdp.m) / sigma + 1e-12
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
            want = sum(wi * Ai for wi, Ai in zip(w, sdp.A))
            assert np.allclose(grad, want, atol=1e-12)


def test_softmax_gradient_finite_difference():
    rng = make_rng(3)
    sdp = FeasibilitySDP(n=6, A=[sym(rng, 6) for _ in range(4)],
                         b=rng.uniform(-0.3, 0.3, size=4))
    V = rng.standard_normal((6, 3))
    X = V @ V.T / 6.0
    sigma = 4.0
    _, grad, _ = softmax_eval_grad(sdp, sigma, X)
    h = 1e-6
    for _ in range(10):
        D = sym(rng, 6)
        fp = softmax_eval_grad(sdp, sigma, X + h * D)[0]
        fm = softmax_eval_grad(sdp, sigma, X - h * D)[0]
        assert (fp - fm) / (2 * h) == pytest.approx(
            float(np.vdot(grad, D)), abs=1e-6)


def rel_err(got, want):
    return float(np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (6, 1), (6, 4), (40, 10)])
def test_stacked_products_match_the_per_constraint_loops(n, m):
    rng = make_rng(30 + 7 * n + m)
    sdp = FeasibilitySDP(n=n, A=[sym(rng, n) for _ in range(m)],
                         b=rng.uniform(-0.5, 0.5, size=m))
    assert sdp.A.shape == (m, n, n)
    for sigma in (2.0, 40.0):
        V = rng.standard_normal((n, 2))
        X = V @ V.T / np.trace(V @ V.T)
        assert rel_err(constraint_values(sdp, X), loop_constraint_values(sdp, X)) <= 1e-12
        f, grad, w = softmax_eval_grad(sdp, sigma, X)
        f_ref, grad_ref, w_ref = loop_softmax_eval_grad(sdp, sigma, X)
        assert f == pytest.approx(f_ref, rel=1e-12, abs=1e-15)
        assert rel_err(w, w_ref) <= 1e-12
        assert rel_err(grad, grad_ref) <= 1e-12
        assert np.array_equal(grad, grad.T)
    assert curvature_estimate(sdp, 3.0) == pytest.approx(loop_curvature_estimate(sdp, 3.0),
                                                         rel=1e-12)


def test_stacked_gradient_is_symmetric_for_nearly_symmetric_constraints():
    # construction accepts A_i symmetric to 1e-10; the gradient is then the
    # loop's gradient averaged with its transpose
    rng = make_rng(31)
    A = [sym(rng, 5) for _ in range(3)]
    A[1][0, 3] += 1e-12
    sdp = FeasibilitySDP(n=5, A=A, b=[0.1, 0.0, -0.1])
    X = np.eye(5) / 5
    _, grad, _ = softmax_eval_grad(sdp, 4.0, X)
    _, grad_ref, _ = loop_softmax_eval_grad(sdp, 4.0, X)
    assert np.array_equal(grad, grad.T)
    assert rel_err(grad, (grad_ref + grad_ref.T) / 2) <= 1e-12


def test_curvature_estimate_formula():
    sdp = FeasibilitySDP(
        n=2, A=[np.diag([2.0, 0.0]), np.diag([0.0, -3.0])], b=[0.0, 0.0],
        t=1.5)
    # largest lambda_max over constraints is 2; C = sigma (t lambda)^2
    assert curvature_estimate(sdp, 4.0) == pytest.approx(4.0 * (1.5 * 2.0) ** 2)


def test_identity_constraint_feasible_immediately():
    sdp = FeasibilitySDP(n=3, A=[np.eye(3)], b=[1.0])
    out = solve_eps_feasible(sdp, eps=0.1, seed=0)
    assert out.status == "feasible"
    assert out.max_violation <= 1e-9
    assert out.iterations == 0
    assert out.sigma == pytest.approx(math.log(2) / 0.1)


def test_planted_feasible_instance_reaches_eps():
    sdp, _ = planted_feasible(n=8, m=4, seed=5)
    out = solve_eps_feasible(sdp, eps=0.1, seed=0)
    assert out.status == "feasible"
    assert out.max_violation <= 0.1
    assert out.f <= 0.1
    # the returned point lives in the spectahedron
    dom = SpectrahedronDomain(8, 1.0)
    assert dom.contains(out.X)


def test_trace_deficient_instance_certified_infeasible():
    # -tr(X) <= -2 needs trace 2, while the domain pins trace 1; the
    # potential is identically 1 so the gap certificate is immediate
    sdp = FeasibilitySDP(n=4, A=[-np.eye(4)], b=[-2.0])
    out = solve_eps_feasible(sdp, eps=0.5, seed=0)
    assert out.status == "infeasible"
    assert out.f_lower is not None and out.f_lower > 0.5
    assert out.max_violation == pytest.approx(1.0)


def paired_infeasible(n, pairs, seed, rhs=0.8):
    # A.X <= -rhs and -A.X <= -rhs cannot both hold: every X violates one by rhs
    rng = np.random.default_rng(seed)
    A = []
    for _ in range(pairs):
        B = rng.standard_normal((n, n))
        S = 0.5 * (B + B.T)
        S /= np.abs(np.linalg.eigvalsh(S)).max()
        A += [S, -S]
    return FeasibilitySDP(n=n, A=A, b=np.full(2 * pairs, -rhs), t=1.0)


def potential(sdp, eps):
    """The soft-max objective and domain that solve_eps_feasible minimizes."""
    sigma = math.log(max(sdp.m, 2)) / eps
    objective = softmax_objective(sdp, sigma, curvature_estimate(sdp, sigma))
    return objective, SpectrahedronDomain(sdp.n, sdp.t)


def full_budget_status(sdp, eps, seed):
    """The status of a certify phase that runs its whole 2K+1 budget, with no
    stop on gap or on f - gap, and reads its smallest-gap row, with that
    run's trace (None when phase 1 suffices).  The run is fw_run with the
    schedule and inner tolerance that gap_certified_run at eps/2 gives it."""
    first = solve_eps_feasible(sdp, eps, seed=seed)
    if first.status == "feasible":
        return "feasible", None
    objective, domain = potential(sdp, eps)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "fw_run", lambda *a, **kw: calls.append(kw) or fw_run(*a, **kw))
        gap_certified_run(objective, domain, eps / 2.0, lmo_mode="approx", seed=seed)
    K = certified_iteration_count(objective.curvature_bound, eps / 2.0, "approx")
    assert calls[0]["schedule"] == StepSchedule.two_phase(K)
    trace = fw_run(objective, domain,
                   **dict(calls[0], stop=StopRule(max_iters=2 * K + 1), on_iterate=None)).trace
    best = min(trace.rows, key=lambda r: r.gap)  # the first smallest, as the run keeps it
    certified = best.gap <= eps / 2.0 and best.f - best.gap > eps
    return ("infeasible" if certified else "undetermined"), trace


AGREEMENT_CASES = {
    **{f"sdp_infeas_full_{i}": (lambda i=i: (paired_infeasible(40, 5, i), 0.4, i, "infeasible"))
       for i in range(3)},
    **{f"sdp_infeas_tiny_{i}": (lambda i=i: (paired_infeasible(6, 1, i), 0.5, i, "infeasible"))
       for i in range(3)},
    "trace_deficient": lambda: (FeasibilitySDP(n=4, A=[-np.eye(4)], b=[-2.0]), 0.5, 0,
                                "infeasible"),
    **{f"planted_feasible_{i}": (lambda i=i: (planted_feasible(n=8, m=4, seed=5 + i)[0], 0.1, i,
                                              "feasible"))
       for i in range(3)},
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_first_certified_row_agrees_with_the_full_budget_rule(case, monkeypatch):
    sdp, eps, seed, want = AGREEMENT_CASES[case]()
    status, full = full_budget_status(sdp, eps, seed)
    phase2 = []

    def spy(*args, **kwargs):
        phase2.append(gap_certified_run(*args, **kwargs))
        return phase2[-1]

    monkeypatch.setattr(sdpfeas, "gap_certified_run", spy)
    out = solve_eps_feasible(sdp, eps, seed=seed)
    assert out.status == status == want
    assert len(phase2) == (full is not None)
    if full is not None:
        # the stop fires at the full run's first row with f - gap > eps, and the
        # rows up to it agree in k, f and gap
        k_first = next(r.k for r in full.rows if r.f - r.gap > eps)
        rows = phase2[0].trace.rows
        assert len(rows) <= k_first + 1
        assert [r[:3] for r in rows] == [r[:3] for r in full.rows[:len(rows)]]
    if out.status == "infeasible":
        assert out.f_lower == max(r.f - r.gap for r in phase2[0].trace.rows)
        f_X = softmax_eval_grad(sdp, out.sigma, out.X)[0]
        f_center = softmax_eval_grad(sdp, out.sigma, np.eye(sdp.n) * (sdp.t / sdp.n))[0]
        assert eps < out.f_lower <= f_X
        assert out.f_lower <= f_center


@pytest.mark.parametrize("seed", range(3))
def test_certify_phase_searches_past_its_first_certified_gap(seed):
    # rhs = eps/10 puts min f in (eps, 3 eps/2]: the certify run's first row
    # with gap <= eps/2 has f - gap <= eps, and only a later row proves
    # min f > eps, so a certify run that stopped on its gap would leave the
    # outcome undetermined
    sdp, eps = paired_infeasible(6, 1, seed, rhs=0.05), 0.5
    status, full = full_budget_status(sdp, eps, seed)
    k_gap = next(r.k for r in full.rows if r.gap <= eps / 2.0)
    k_lower = next(r.k for r in full.rows if r.f - r.gap > eps)
    assert k_gap < k_lower
    assert full.rows[k_gap].f - full.rows[k_gap].gap <= eps < min(r.f for r in full.rows) <= 1.5 * eps
    out = solve_eps_feasible(sdp, eps, seed=seed)
    assert not [r for r in out.trace.rows if r.f - r.gap > eps]  # the first run left it open
    assert out.status == status == "infeasible"
    assert out.f_lower == full.rows[k_lower].f - full.rows[k_lower].gap


@pytest.mark.parametrize("case", sorted(c for c in AGREEMENT_CASES
                                        if AGREEMENT_CASES[c]()[3] == "infeasible"))
def test_feasibility_stop_moves_no_outcome_bit(case):
    sdp, eps, seed, _ = AGREEMENT_CASES[case]()
    out = solve_eps_feasible(sdp, eps, seed=seed)
    objective, domain = potential(sdp, eps)
    cert = gap_certified_run(objective, domain, eps / 2.0, lmo_mode="approx", seed=seed,
                             target_lower=eps)
    row = max(cert.trace.rows, key=lambda r: r.f - r.gap)
    assert row.f - row.gap > eps
    assert (out.status, out.f, out.f_lower, out.gap_bound) == (
        "infeasible", cert.trace.rows[cert.k_hat].f, row.f - row.gap, row.gap)
    assert out.X.tobytes() == cert.point.tobytes()
    # the feasibility trace ends at its first row with f - gap > eps, which
    # takes no step
    rows = out.trace.rows
    assert [r.k for r in rows if r.f - r.gap > eps] == [rows[-1].k]
    assert rows[-1].alpha == 0.0
    assert (out.iterations, out.matvecs) == (rows[-1].k, rows[-1].matvecs)


@pytest.mark.parametrize("case", sorted(c for c in AGREEMENT_CASES
                                        if AGREEMENT_CASES[c]()[3] == "feasible"))
def test_feasible_trace_has_no_certified_row_and_is_unchanged(case):
    sdp, eps, seed, _ = AGREEMENT_CASES[case]()
    out = solve_eps_feasible(sdp, eps, seed=seed)
    assert out.status == "feasible"
    assert not [r for r in out.trace.rows if r.f - r.gap > eps]
    # the same run without the stop on f - gap
    objective, domain = potential(sdp, eps)
    cap = certified_iteration_count(objective.curvature_bound, eps, "approx") + 2
    run = fw_run(objective, domain, stop=StopRule(max_iters=cap, target_f=eps),
                 lmo_mode="approx", seed=seed)
    assert [r[:6] for r in out.trace.rows] == [r[:6] for r in run.trace.rows]  # not millis


def test_first_run_stop_certifies_when_the_replay_diverges(monkeypatch):
    # past the certify run's row K its steps differ from the first run's, so
    # it may not reach the first run's certified row; that row still proves
    # min f > eps
    sdp, eps, seed, _ = AGREEMENT_CASES["sdp_infeas_tiny_0"]()
    certs = []

    def uncertified(*args, **kwargs):
        # the certify run cut after its row 0, which certifies nothing
        cert = gap_certified_run(*args, **kwargs)
        row0 = cert.trace.rows[0]
        certs.append(replace(cert, trace=RunTrace(rows=[row0]), k_hat=0,
                             gap_bound=row0.gap, certified=False))
        return certs[-1]

    monkeypatch.setattr(sdpfeas, "gap_certified_run", uncertified)
    out = solve_eps_feasible(sdp, eps, seed=seed)
    first = certs[0].trace.rows[0]
    stop_row = out.trace.final()
    assert first.f - first.gap <= eps < stop_row.f - stop_row.gap
    assert out.status == "infeasible"
    assert (out.f_lower, out.gap_bound) == (stop_row.f - stop_row.gap, stop_row.gap)
    assert out.X is certs[0].point and out.f == first.f


@pytest.mark.parametrize("case", sorted(c for c in AGREEMENT_CASES if c.startswith("sdp_infeas")))
def test_stacked_solve_matches_the_per_constraint_reference(case, monkeypatch):
    sdp, eps, seed, _ = AGREEMENT_CASES[case]()
    got = solve_eps_feasible(sdp, eps, seed=seed)
    monkeypatch.setattr(sdpfeas, "constraint_values", loop_constraint_values)
    monkeypatch.setattr(sdpfeas, "softmax_eval_grad", loop_softmax_eval_grad)
    monkeypatch.setattr(sdpfeas, "curvature_estimate", loop_curvature_estimate)
    ref = solve_eps_feasible(sdp, eps, seed=seed)
    assert (got.status, len(got.trace.rows), got.matvecs) == (
        ref.status, len(ref.trace.rows), ref.matvecs)
    for r, q in zip(got.trace.rows, ref.trace.rows):
        assert r.f == pytest.approx(q.f, rel=1e-10)
        assert r.gap == pytest.approx(q.gap, rel=1e-10)
    assert got.f_lower == pytest.approx(ref.f_lower, rel=1e-10)
    assert got.gap_bound == pytest.approx(ref.gap_bound, rel=1e-10)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
def test_solve_eps_feasible_rejects_nonpositive_eps(eps):
    sdp = FeasibilitySDP(n=3, A=[np.eye(3)], b=[1.0])
    with pytest.raises(ValueError, match="eps must be positive"):
        solve_eps_feasible(sdp, eps=eps, seed=0)


@pytest.mark.parametrize("eps,what", [
    (float("inf"), "eps must be positive and finite"),
    (1e-300, "no finite iteration budget"),
])
def test_solve_eps_feasible_rejects_eps_without_a_finite_budget(eps, what):
    sdp = FeasibilitySDP(n=3, A=[np.eye(3)], b=[1.0])
    with pytest.raises(ValueError, match=what):
        solve_eps_feasible(sdp, eps=eps, seed=0)


def test_binary_search_trace_objective():
    # C = Id: C.X = 1 on the whole domain, bracket closes onto 1
    res = binary_search_objective(np.eye(3), None, eps=0.1, n=3, t=1.0,
                                  lmo_mode="exact")
    assert res.lo <= 1.0 + 0.1
    assert res.hi >= 1.0 - 0.1
    assert res.bracket <= 0.1 + 1e-12
    assert res.X is not None and res.objective_value == pytest.approx(1.0, abs=0.11)


def test_binary_search_diagonal_objective():
    res = binary_search_objective(np.diag([3.0, 1.0]), None, eps=0.1, n=2,
                                  t=1.0, value_range=(0.0, 4.0),
                                  lmo_mode="exact")
    assert res.lo <= 3.0 + 0.1
    assert res.hi >= 3.0 - 0.1
    assert res.objective_value == pytest.approx(3.0, abs=0.2)


def test_binary_search_matches_spectral_optimum():
    # with no side constraints the optimum of C.X over the spectahedron is
    # t * lambda_max(C)
    rng = make_rng(9)
    C = sym(rng, 4, scale=2.0)
    want = 1.0 * float(np.linalg.eigvalsh(C)[-1])
    res = binary_search_objective(C, None, eps=0.1, n=4, t=1.0,
                                  lmo_mode="exact")
    mid = 0.5 * (res.lo + res.hi)
    assert mid == pytest.approx(want, abs=0.2)
    assert res.bracket <= 0.1 + 1e-12


def test_binary_search_with_side_constraints():
    # forbid most of the top eigenvector's mass: optimum drops below 3
    C = np.diag([3.0, 1.0])
    cap = FeasibilitySDP(n=2, A=[np.diag([1.0, 0.0])], b=[0.25])
    res = binary_search_objective(C, cap, eps=0.1, value_range=(0.0, 4.0),
                                  lmo_mode="exact")
    # best value is 3*0.25 + 1*0.75 = 1.5 at X = diag(0.25, 0.75)
    assert 0.5 * (res.lo + res.hi) == pytest.approx(1.5, abs=0.2)


BISECTIONS = {
    "side_constraints": lambda: dict(
        C=np.diag([3.0, 1.0]), sdp=FeasibilitySDP(n=2, A=[np.diag([1.0, 0.0])], b=[0.25]),
        eps=0.1, value_range=(0.0, 4.0), lmo_mode="exact"),
    "spectral": lambda: dict(C=sym(make_rng(9), 4, scale=2.0), sdp=None, eps=0.1, n=4, t=1.0,
                             lmo_mode="exact"),
}


def spy_rounds(monkeypatch, patch=lambda k, out: out):
    """Record (gamma, outcome) for every bisection round; patch(k, out) may
    replace round k's outcome."""
    rounds = []

    def spy(aug, eps, **kwargs):
        out = patch(len(rounds), solve_eps_feasible(aug, eps, **kwargs))
        rounds.append((-float(aug.b[-1]), out))
        return out

    monkeypatch.setattr(sdpfeas, "solve_eps_feasible", spy)
    return rounds


def rounds_that_lowered_hi(rounds, res):
    # the next midpoint falls below a round's gamma iff that round set hi to it
    nxt = [g for g, _ in rounds[1:]] + [None]
    return [k for k, ((g, _), g_next) in enumerate(zip(rounds, nxt))
            if (res.hi == g if g_next is None else g_next < g)]


@pytest.mark.parametrize("case", sorted(BISECTIONS))
def test_bisection_lowers_hi_only_on_a_certificate(case, monkeypatch):
    kw = BISECTIONS[case]()
    rounds = spy_rounds(monkeypatch)
    res = binary_search_objective(**kw)
    lowered = rounds_that_lowered_hi(rounds, res)
    assert lowered
    for k in lowered:
        out = rounds[k][1]
        assert out.status == "infeasible" and out.f_lower > kw["eps"]


def test_undetermined_round_ends_the_bisection(monkeypatch):
    kw = BISECTIONS["spectral"]()
    rounds = spy_rounds(monkeypatch)
    k = rounds_that_lowered_hi(rounds, binary_search_objective(**kw))[0]
    rounds = spy_rounds(monkeypatch, lambda i, out: (
        replace(out, status="undetermined", f_lower=None, gap_bound=None) if i == k else out))
    res = binary_search_objective(**kw)
    gamma = rounds[k][0]
    assert len(rounds) == k + 1
    # the bracket is the one round k bisected: hi did not move to gamma
    assert 0.5 * (res.lo + res.hi) == gamma < res.hi


# ---------------------------------------------------------------------------
# problem files


PROBLEM_TEXT = """\
# toy instance
n 3
t 2.0
constraint b=0.5
0 0 1.0
1 2 -2.0   # mirrored to (2,1)
constraint b=-1.0
2 2 4.0
"""


def test_parse_problem_roundtrip():
    sdp = parse_problem(PROBLEM_TEXT)
    assert (sdp.n, sdp.m, sdp.t) == (3, 2, 2.0)
    assert sdp.b == pytest.approx([0.5, -1.0])
    A0 = np.zeros((3, 3))
    A0[0, 0] = 1.0
    A0[1, 2] = A0[2, 1] = -2.0
    assert np.array_equal(sdp.A[0], A0)
    assert sdp.A[1][2, 2] == 4.0


def test_parse_problem_line_numbered_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_problem("n 3\n0 0 1.0\n")  # entry before any constraint
    with pytest.raises(ValueError, match="line 1"):
        parse_problem("constraint b=1\n")  # constraint before n
    with pytest.raises(ValueError, match="line 3"):
        parse_problem("n 2\nconstraint b=1\n0 zero 1\n")
    with pytest.raises(ValueError, match="at least one constraint"):
        parse_problem("n 2\nt 1.0\n")
