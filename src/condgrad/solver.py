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

from .core import (IterateLedger, LazyPoint, ObjectiveOracle, RunClock, RunTrace,
                   StepSchedule, StopRule, make_rng)

LINE_SEARCH_DERIV_TOL = 1e-10
LINE_SEARCH_MAX_ITERS = 60


@dataclass
class RunResult:
    """fw_run's final iterate (point and ledger), trace and stop reason;
    matvecs counts every eigensolver matvec, certifying solves included."""

    point: np.ndarray = LazyPoint()  # built on first read for a factored run
    ledger: IterateLedger
    trace: RunTrace
    stopped_on: str  # max_iters | gap | f_target | f_lower
    matvecs: int


@dataclass
class CertifiedRun(RunResult):
    """A run whose point and ledger are those of its smallest-gap row k_hat;
    gap_bound is that row's certified gap, certified says gap_bound <= eps."""

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
        if not 0.0 <= a <= 1.0:  # NaN too
            raise ValueError(f"{objective.name}'s alpha_hook returned {a!r}, outside [0, 1]")
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


class DenseIterate(IterateLedger):
    """fw_run's iterate as a dense array x, and its ledger, where the domain
    has no factored one.  start_ledger holds the start atom alone.  The gap
    <x - s, grad f(x)> reads the gradient of the last value_and_grad."""

    def __init__(self, objective: ObjectiveOracle, start_ledger: IterateLedger):
        super().__init__(start_ledger.atoms, start_ledger.weights)
        self.objective, self.x, self._grad = objective, self.atoms[0].dense(), None
        self._moved = False

    def value_and_grad(self) -> tuple:
        fx, grad = float(self.objective.eval(self.x)), self.objective.grad(self.x)
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError("non-finite objective gradient")
        self._grad = grad
        return fx, grad

    def gap(self, atom) -> float:
        return float(np.vdot(self.x, self._grad) - atom.inner(self._grad))

    def line_search(self, atom, a_fix: float) -> float:
        """The exact step toward the atom's dense point (line_search_alpha), or
        a_fix where that gives a lower f, so the searched step is never worse
        than the scheduled one.  The point lives only for this call."""
        x, s, f = self.x, atom.dense(), self.objective.eval
        alpha = line_search_alpha(self.objective, x, s)
        if f(x + a_fix * (s - x)) < f(x + alpha * (s - x)):
            return a_fix
        return alpha

    def step(self, atom, alpha: float):
        """x += alpha (s - x) in place, the atom's dense copy s as scratch: the
        bits of x + alpha * (s - x) without its two temporaries."""
        super().step(atom, alpha)
        s = atom.dense()
        s -= self.x
        s *= alpha
        self.x += s
        self._moved = True

    def point_builder(self, final: bool = False):
        """A copy of x (before the first step, the start atom's builder); when
        final, x itself, and the gradient is dropped: a result holds x alone."""
        if final:
            self._grad = None
            return self.x
        return self.x.copy() if self._moved else self.atoms[0].dense


def fw_run(objective: ObjectiveOracle, domain, stop: StopRule,
           schedule: Optional[StepSchedule] = None, lmo_mode: str = "exact", seed=0,
           inner_tol: Optional[Callable[[int], float]] = None,
           on_iterate: Optional[Callable] = None) -> RunResult:
    """Run the greedy iteration from domain.start_atom() until the stop rule
    fires.

    Every visited iterate gets a trace row (f, certified gap, step, matvecs
    so far, LmoResult.cert's counted); the last row has alpha = 0.  In approx
    mode the oracle is called with inner accuracy eps' = alpha_k * C_f, with
    C_f the objective's curvature_bound, unless inner_tol overrides it.

    The domain's factored_ledger hook is asked once, before row 0, with the
    start ledger and whether the oracle is asked for eps 0: for
    f = ||x - r||^2 the simplex's keeps x on its support in either mode, the
    spectahedron's keeps X factored in approx mode, and complete's builds its
    own, so objective may be None there.  Otherwise x is a DenseIterate.  x
    is also the ledger; it gives f, the gradient, the gap, the line search
    and the step.  on_iterate(k, x, f, gap) sees each row before its stop
    test and step: a caller keeps its per-row state there (a best row, a
    history).
    """
    if lmo_mode not in ("exact", "approx"):
        raise ValueError(f"lmo_mode must be 'exact' or 'approx', got {lmo_mode!r}")
    schedule = schedule or StepSchedule.harmonic()
    C = None if objective is None else objective.curvature_bound
    if lmo_mode == "approx" and inner_tol is None and C is None:
        raise ValueError("approximate LMO mode needs a curvature bound or inner_tol")
    rng = make_rng(seed)
    clock = RunClock()

    start = IterateLedger([domain.start_atom()], [1.0])
    factored = getattr(domain, "factored_ledger", None)
    exact_lmo = not (lmo_mode == "approx" and C)  # eps 0, also asked for when C is 0
    x = factored(objective, start, exact_lmo) if factored is not None else None
    x = x if x is not None else DenseIterate(objective, start)
    trace = RunTrace()
    matvecs = 0

    k = 0
    while True:
        fx, grad = x.value_and_grad()
        if not math.isfinite(fx):
            raise FloatingPointError(f"non-finite objective value at step {k}")

        if inner_tol is not None:
            eps_in = float(inner_tol(k))
        elif lmo_mode == "approx":
            eps_in = schedule.alpha_at(k) * C
        else:
            eps_in = 0.0
        res = domain.lmo(grad, eps_in, rng)
        atom = res.atom
        # the gap is certified by res.cert when the oracle set one, else by
        # the step atom; weak duality makes it an upper bound on the primal error
        cert = res if res.cert is None else res.cert
        matvecs += res.matvecs + (0 if cert is res else cert.matvecs)
        gap_cert = x.gap(cert.atom) + cert.slack

        if on_iterate is not None:
            on_iterate(k, x, fx, gap_cert)

        hit_gap = stop.target_gap is not None and gap_cert <= stop.target_gap
        hit_f = stop.target_f is not None and fx <= stop.target_f
        hit_lower = stop.target_lower is not None and fx - gap_cert > stop.target_lower
        hit_iters = stop.max_iters is not None and k >= stop.max_iters
        if hit_gap or hit_f or hit_lower or hit_iters:
            trace.append(k, fx, gap_cert, 0.0, res.atom.label, matvecs, clock.millis())
            stopped = ("gap" if hit_gap else "f_target" if hit_f
                       else "f_lower" if hit_lower else "max_iters")
            break

        alpha = schedule.alpha_at(k)
        if schedule.kind == "line_search":
            alpha = x.line_search(atom, alpha)  # the scheduled step is its fallback
        trace.append(k, fx, gap_cert, alpha, atom.label, matvecs, clock.millis())
        x.step(atom, alpha)
        k += 1

    return RunResult(point=x.point_builder(final=True), ledger=x, trace=trace,
                     stopped_on=stopped, matvecs=matvecs)


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
                      lmo_mode: str = "exact", seed=0,
                      target_lower: Optional[float] = None) -> CertifiedRun:
    """Two-phase schedule (K harmonic steps, then K+1 at fixed alpha=2/(K+2))
    guaranteeing an iterate with duality gap <= eps by row 2K+1.  The run
    takes at most 2K+1 steps and stops at its first row with certified gap
    <= eps; every earlier row's gap is above eps, so that row is the
    smallest-gap row.  Returns the smallest-gap row of the rows run, which
    fw_run's on_iterate keeps (for an uncertified run, the best row).

    With target_lower it stops at its first row with f - gap > target_lower,
    which certifies f* > target_lower, and not on the gap: a later row can
    still certify f* > target_lower after a row with gap <= eps.  The best
    row is then of the rows run.

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

        def inner_tol(k):
            step_tol = schedule.alpha_at(k) * C
            return min(step_tol, eps_meas) if k >= K else step_tol

    # (gap, k, point or its builder, ledger atoms list, its length then, weights copy):
    # the ledger only appends to its atoms list until a prune replaces it
    best = None

    def on_iterate(k, x, fx, gap):
        nonlocal best
        if best is None or gap < best[0]:
            best = (gap, k, x.point_builder(), x.atoms, len(x.atoms), x.weights.copy())

    stop = StopRule(max_iters=2 * K + 1, target_gap=eps if target_lower is None else None,
                    target_lower=target_lower)
    run = fw_run(objective, domain, stop=stop, schedule=schedule, lmo_mode=lmo_mode, seed=seed,
                 inner_tol=inner_tol, on_iterate=on_iterate)
    gap_bound, k_hat, x_best, atoms, m, weights = best
    ledger = IterateLedger(atoms=atoms[:m], weights=weights)
    return CertifiedRun(point=x_best, ledger=ledger, trace=run.trace,
                        stopped_on=run.stopped_on, matvecs=run.matvecs,
                        gap_bound=gap_bound, k_hat=k_hat, certified=bool(gap_bound <= eps))
