"""Domain-agnostic greedy solver on convex hulls.

One iteration: linearize f at x, ask the domain oracle for the best atom s,
step x := x + alpha (s - x).  The same linearization yields the duality gap
<x - s, grad>, a free certificate that upper-bounds the primal error.  With
an approximate oracle the gap estimate carries an explicit slack; every gap
written to a trace already includes that slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (CoordinateAtom, IterateLedger, LazyPoint, LmoResult, ObjectiveOracle,
                   RunClock, RunTrace, StepSchedule, StopRule, make_rng)

LINE_SEARCH_DERIV_TOL = 1e-10
LINE_SEARCH_MAX_ITERS = 60


@dataclass
class RunResult:
    point: np.ndarray = LazyPoint()  # built on first read for a factored run
    ledger: IterateLedger
    trace: RunTrace
    stopped_on: str  # max_iters | gap | f_target
    matvecs: int
    best: Optional[tuple] = None  # (gap, k, point, atoms, weights) when tracked


@dataclass
class CertifiedRun:
    point: np.ndarray = LazyPoint()
    ledger: IterateLedger
    trace: RunTrace
    gap_bound: float
    k_hat: int
    certified: bool


def curvature_from_hessian(sup_hessian_eig: float, diameter_sq: float) -> float:
    """Curvature upper bound (1/2) * diam(D)^2 * sup lambda_max(Hessian)."""
    if not (sup_hessian_eig >= 0 and diameter_sq >= 0):
        raise ValueError("curvature needs a nonnegative Hessian bound and squared diameter")
    return 0.5 * diameter_sq * sup_hessian_eig


def line_search_alpha(objective: ObjectiveOracle, x, s) -> float:
    """argmin over alpha in [0,1] of f(x + alpha (s - x)).

    Uses the objective's closed-form hook when present, otherwise bisects the
    directional derivative (convex and nondecreasing in alpha) to
    |phi'(alpha)| <= 1e-10 or a boundary.
    """
    d = s - x
    if not np.any(d):
        return 0.0
    if objective.alpha_hook is not None:
        a = float(objective.alpha_hook(x, s))
        assert 0.0 <= a <= 1.0
        return a

    def dphi(a):
        return float(np.vdot(d, objective.grad(x + a * d)))

    lo_d = dphi(0.0)
    if not math.isfinite(lo_d):
        raise FloatingPointError("non-finite directional derivative")
    if lo_d >= 0.0:
        return 0.0
    if dphi(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    mid = 0.5
    for _ in range(LINE_SEARCH_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        dm = dphi(mid)
        if abs(dm) <= LINE_SEARCH_DERIV_TOL:
            return mid
        if dm < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def _dense_line_search(objective: ObjectiveOracle, x, atom, a_fix: float) -> float:
    """The exact step toward the atom's dense point (line_search_alpha), or
    the scheduled a_fix where that gives a lower f, so the searched step is
    never worse than the scheduled one.  The point lives only for this call."""
    s = atom.dense()
    alpha = line_search_alpha(objective, x, s)
    if objective.eval(x + a_fix * (s - x)) < objective.eval(x + alpha * (s - x)):
        return a_fix
    return alpha


def certified_gap(x, grad, res: LmoResult) -> float:
    """<x, grad> - <s, grad> + slack for the atom s that certifies the gap:
    res.cert when the oracle set one, else the step atom (a factored x
    computes it in closed form).  Weak duality makes this an upper bound on
    the primal error."""
    if res.cert is not None:
        res = res.cert
    if not isinstance(x, np.ndarray):
        return x.atom_terms(res.atom)[0] + res.slack
    return float(np.vdot(x, grad) - res.atom.inner(grad)) + res.slack


def duality_gap(x, grad, domain) -> float:
    """<x - s, grad> for the domain's best atom s, from its exact oracle."""
    return certified_gap(x, grad, domain.lmo(grad))


def fw_run(objective: ObjectiveOracle, domain, stop: StopRule,
           schedule: Optional[StepSchedule] = None, lmo_mode: str = "exact", seed=0,
           curvature_bound: Optional[float] = None,
           inner_tol: Optional[Callable[[int], float]] = None,
           track_best_gap: bool = False,
           on_iterate: Optional[Callable] = None) -> RunResult:
    """Run the greedy iteration from domain.start_atom() until the stop rule
    fires.

    Every visited iterate gets a trace row (f, certified gap, step taken);
    the final iterate's row has alpha = 0.  In approx mode the oracle is
    called with inner accuracy eps' = alpha_k * C_f unless inner_tol
    overrides it.  Atoms apply themselves to x; a dense point s is made only
    for line search, and is dropped after the step.

    A domain's factored_ledger hook may take over after the first step, told
    whether the oracle is asked for eps 0: for f = ||x - r||^2 the simplex's
    keeps x on its support in either mode, and the spectahedron's keeps X
    factored in approx mode.  That ledger is x from then on, also for
    on_iterate, and gives f, the gradient, the gap and the line search in
    closed form; the point is built when read.
    """
    if lmo_mode not in ("exact", "approx"):
        raise ValueError(f"lmo_mode must be 'exact' or 'approx', got {lmo_mode!r}")
    schedule = schedule or StepSchedule.harmonic()
    C = curvature_bound if curvature_bound is not None else objective.curvature_bound
    if lmo_mode == "approx" and inner_tol is None and C is None:
        raise ValueError("approximate LMO mode needs a curvature bound or inner_tol")
    if getattr(domain, "requires_line_search", False) and schedule.kind != "line_search":
        raise ValueError("randomized oracles need line search so failed samples cannot hurt")
    rng = make_rng(seed)
    clock = RunClock()

    start_atom = domain.start_atom()
    ledger = IterateLedger()
    ledger.seed(start_atom)
    x, dense = start_atom.dense(), True
    factored = getattr(domain, "factored_ledger", None)
    exact_lmo = not (lmo_mode == "approx" and C)  # eps 0, also asked for when C is 0
    trace = RunTrace(seed=seed if not isinstance(seed, np.random.Generator) else None)
    matvecs = 0
    # (gap, k, point or its builder, ledger atoms list, its length then, weights copy):
    # the ledger only appends to its atoms list until a prune replaces it
    best = None

    k = 0
    while True:
        fx, grad = (float(objective.eval(x)), objective.grad(x)) if dense else x.value_and_grad()
        if not math.isfinite(fx) or (dense and not np.all(np.isfinite(grad))):
            raise FloatingPointError(f"non-finite objective value or gradient at step {k}")

        if inner_tol is not None:
            eps_in = float(inner_tol(k))
        elif lmo_mode == "approx":
            eps_in = schedule.alpha_at(k) * C
        else:
            eps_in = 0.0
        res = domain.lmo(grad, eps_in, rng)
        matvecs += res.matvecs
        atom = res.atom
        gap_cert = certified_gap(x, grad, res)

        if track_best_gap and (best is None or gap_cert < best[0]):
            # row 0's x is the start atom's point, so it is built again if read
            point = x.point_builder() if not dense else start_atom.dense if k == 0 else x.copy()
            best = (gap_cert, k, point, ledger.atoms, len(ledger.atoms), ledger.weights.copy())
        if on_iterate is not None:
            on_iterate(k, x, fx, gap_cert)

        hit_gap = stop.target_gap is not None and gap_cert <= stop.target_gap
        hit_f = stop.target_f is not None and fx <= stop.target_f
        hit_iters = stop.max_iters is not None and k >= stop.max_iters
        if hit_gap or hit_f or hit_iters:
            trace.append(k, fx, gap_cert, 0.0, res.atom.label, matvecs, clock.millis())
            stopped = "gap" if hit_gap else ("f_target" if hit_f else "max_iters")
            break

        if schedule.kind != "line_search":
            alpha = schedule.alpha_at(k)
        elif not dense:
            alpha = x.line_search(atom, schedule.alpha_at(k))
        else:
            alpha = _dense_line_search(objective, x, atom, schedule.alpha_at(k))

        trace.append(k, fx, gap_cert, alpha, atom.label, matvecs, clock.millis())
        ledger.step(atom, alpha)  # a factored x moves with its ledger
        if k == 0 and factored is not None \
                and (fl := factored(objective, ledger, exact_lmo)) is not None:
            # the first row, at the start atom, is dense in every run, so it
            # has the same bits whatever the oracle, dense-only ones included;
            # the dense x is dropped unstepped, the ledger is x from here on
            x, ledger, dense = fl, fl, False
        elif dense:
            atom.step_into(x, alpha)
        k += 1

    if best is not None:
        gap_b, k_b, point_b, atoms, m, weights = best
        best = (gap_b, k_b, point_b, atoms[:m], weights)
    return RunResult(point=x if dense else x.point_builder(), ledger=ledger, trace=trace,
                     stopped_on=stopped, matvecs=matvecs, best=best)


def certified_iteration_count(curvature_bound: float, eps: float, lmo_mode: str) -> int:
    """K such that some iterate in [K, 2K+1] has duality gap <= eps; raises
    ValueError when eps and the curvature bound leave no finite K."""
    if not eps > 0:  # NaN too
        raise ValueError(f"eps must be positive, got {eps!r}")
    C = curvature_bound
    if C is None or not 0 <= C < math.inf:
        raise ValueError(f"certified runs need a finite curvature bound >= 0, got {C!r}")
    if not 8.0 * C / eps < math.inf:
        raise ValueError(f"eps {eps!r} leaves no finite iteration budget")
    scale = 4.0 if lmo_mode == "exact" else 8.0
    return int(math.ceil(scale * C / eps))


def gap_certified_run(objective: ObjectiveOracle, domain, eps: float,
                      lmo_mode: str = "exact", seed=0) -> CertifiedRun:
    """Two-phase schedule (K harmonic steps, then K+1 at fixed alpha=2/(K+2))
    guaranteeing an iterate with duality gap <= eps; returns the iterate with
    the smallest measured certified gap.

    For approximate oracles the gap of the window iterates is measured at a
    tolerance below the slack margin the schedule leaves, so a true-gap
    guarantee turns into a certified (estimate + slack) one.
    """
    C = objective.curvature_bound
    K = certified_iteration_count(C, eps, lmo_mode)
    schedule = StepSchedule.two_phase(K)
    inner_tol = None
    if lmo_mode == "approx":
        # the proof's true-gap bound on the window [K, 2K+1]; measure tighter
        # than the leftover margin so slack cannot spoil certification
        bound_true = 4.0 * C * (2 * K + 3) / ((K + 1) * (K + 2))
        margin = eps - bound_true
        eps_meas = margin / 2.0 if margin > 0 else eps / 10.0

        def inner_tol(k, _K=K, _C=C, _s=schedule, _m=eps_meas):
            step_tol = _s.alpha_at(k) * _C
            return min(step_tol, _m) if k >= _K else step_tol

    run = fw_run(objective, domain, stop=StopRule(max_iters=2 * K + 1),
                 schedule=schedule, lmo_mode=lmo_mode, seed=seed,
                 inner_tol=inner_tol, track_best_gap=True)
    gap_bound, k_hat, x_best, atoms, weights = run.best
    ledger = IterateLedger(atoms=atoms, weights=weights)
    return CertifiedRun(point=x_best, ledger=ledger, trace=run.trace,
                        gap_bound=gap_bound, k_hat=k_hat,
                        certified=bool(gap_bound <= eps))


class RandomizedLMO:
    """Wraps a domain with a sampling oracle that hits the exact atom with
    probability at least success_prob; the run must use line search."""

    requires_line_search = True

    def __init__(self, domain, sampler, success_prob: float):
        if not 0.0 < success_prob <= 1.0:  # NaN too
            raise ValueError(f"success_prob must lie in (0, 1], got {success_prob!r}")
        self.inner = domain
        self.sampler = sampler
        self.success_prob = success_prob
        self.name = f"randomized({domain.name},p={success_prob:g})"
        self.diam_sq = domain.diam_sq

    def lmo(self, grad, eps=0.0, rng=None):
        assert rng is not None, "sampling oracle needs the run's generator"
        # a sampled atom underestimates the gap; the exact atom certifies it
        return LmoResult(self.sampler(rng), cert=self.inner.lmo(grad))

    def start_atom(self):
        return self.inner.start_atom()

    def contains(self, x, tol=1e-12):
        return self.inner.contains(x, tol)


def uniform_simplex_sampler(n):
    """Uniform coordinate sampling on the simplex: success probability 1/n."""
    def sample(rng):
        i = int(rng.integers(n))
        return CoordinateAtom(n, i, 1.0, f"e{i}")
    return sample
