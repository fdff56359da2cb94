"""Epsilon-feasibility for bounded-trace SDPs.

Feasibility of {A_i . X <= b_i, X PSD, tr X = t} is reduced to minimizing
the soft-max potential f(X) = (1/sigma) log sum_i exp(sigma (A_i.X - b_i)),
which sandwiches the maximum violation within log(m)/sigma.  Minimizing f
over the spectahedron with sigma = log(m)/eps either drives f (hence every
violation) below eps, or a certified duality gap proves min f > eps, which
rules out any exactly-feasible point.

Linear SDP objectives reduce to feasibility by bisecting a guessed value
gamma with the extra constraint -C.X <= -gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ObjectiveOracle, RunTrace, StopRule
from .domains.matrices import SpectrahedronDomain
from .eigen import check_symmetric
from .solver import certified_iteration_count, fw_run, gap_certified_run


def _checked_matrix(M, n: int, name: str) -> np.ndarray:
    """M as a float array if it is n x n, finite and symmetric; otherwise
    ValueError naming it."""
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"{name} has shape {M.shape}, expected {(n, n)}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} is not finite")
    return check_symmetric(M, name)


@dataclass
class FeasibilitySDP:
    """Constraints A_i . X <= b_i over {X PSD, tr X = t}.

    Construction takes the A_i as any sequence of n x n matrices (or an
    (m, n, n) array) and holds them once, as one (m, n, n) float array in A,
    so constraint values and the soft-max gradient are one product each.  It
    raises ValueError unless every A_i is n x n, finite and symmetric, b is
    finite with one entry per constraint, m >= 1 and t > 0.
    """

    n: int
    A: np.ndarray
    b: np.ndarray
    t: float = 1.0

    def __post_init__(self):
        A = [_checked_matrix(Ai, self.n, "constraint matrix") for Ai in self.A]
        self.b = np.asarray(self.b, dtype=float)
        if not (len(A) == len(self.b) >= 1):
            raise ValueError("need one right-hand side per constraint, "
                             "and at least one constraint")
        self.A = np.stack(A)
        if not self.t > 0:
            raise ValueError(f"trace bound t must be positive, got {self.t!r}")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("right-hand sides must be finite")

    @property
    def m(self):
        return len(self.A)


def constraint_values(sdp: FeasibilitySDP, X: np.ndarray) -> np.ndarray:
    """A_i . X - b_i for every constraint, as one product with the stack."""
    return sdp.A.reshape(sdp.m, -1).dot(np.ravel(X)) - sdp.b


def max_violation(sdp: FeasibilitySDP, X: np.ndarray) -> float:
    return float(constraint_values(sdp, X).max())


def softmax_eval_grad(sdp: FeasibilitySDP, sigma: float, X):
    """(f, grad, weights) of the soft-max potential at a dense X.

    f uses the max-shifted log-sum-exp, grad = sum_i w_i A_i with the softmax
    weights w summing to one; f always lies between the max violation and
    max violation + log(m)/sigma.  The constraint values and grad are one
    product each with the (m, n, n) constraint stack.  grad is exactly
    symmetric: a product that is not (A_i symmetric only to within the
    construction tolerance, or a BLAS that sums mirrored entries in different
    orders) is averaged with its transpose.
    """
    if not sigma > 0:  # NaN too
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    z = sigma * constraint_values(sdp, X)
    zmax = float(z.max())
    e = np.exp(z - zmax)
    s = float(e.sum())
    f = (zmax + math.log(s)) / sigma
    w = e / s
    grad = w.dot(sdp.A.reshape(sdp.m, -1)).reshape(sdp.n, sdp.n)
    if not np.array_equal(grad, grad.T):
        grad *= 0.5  # halved first, so the sum cannot overflow
        grad += grad.T.copy()
    return f, grad, w


def softmax_objective(sdp: FeasibilitySDP, sigma: float,
                      curvature_bound: float) -> ObjectiveOracle:
    """The soft-max potential of softmax_eval_grad as an ObjectiveOracle, with
    the caller's curvature bound (curvature_estimate gives one)."""
    return ObjectiveOracle(
        eval=lambda X: softmax_eval_grad(sdp, sigma, X)[0],
        grad=lambda X: softmax_eval_grad(sdp, sigma, X)[1],
        curvature_bound=curvature_bound,
        name=f"softmax(m={sdp.m},sigma={sigma:g})")


def curvature_estimate(sdp: FeasibilitySDP, sigma: float) -> float:
    """sigma * t^2 * max_i lambda_max(A_i)^2, the budget constant for the
    soft-max potential; every lambda_max comes from one batched
    np.linalg.eigvalsh over the (m, n, n) constraint stack.  Raises
    FloatingPointError when the bound is not finite."""
    lam = float(np.abs(np.linalg.eigvalsh(sdp.A)[:, -1]).max())
    try:
        C = sigma * (sdp.t * lam) ** 2
    except OverflowError:  # float ** raises past float range, where * gives inf
        C = math.inf
    if not math.isfinite(C):
        raise FloatingPointError(f"curvature bound sigma * (t * lambda_max)^2 is {C!r}")
    return C


@dataclass
class FeasibilityOutcome:
    """What solve_eps_feasible found.  iterations, matvecs and trace are the
    feasibility run's, up to its stop row; the certify run that follows an
    outcome that is not feasible is not counted."""

    status: str  # feasible | infeasible | undetermined
    X: Optional[np.ndarray]
    f: float
    max_violation: float
    iterations: int
    matvecs: int
    trace: RunTrace
    sigma: float
    f_lower: Optional[float] = None  # certified lower bound on min f, if computed
    gap_bound: Optional[float] = None


def solve_eps_feasible(sdp: FeasibilitySDP, eps: float, seed=0,
                       lmo_mode: str = "approx") -> FeasibilityOutcome:
    """Drive the soft-max potential below eps (every violation <= eps then),
    or certify min f > eps (no exactly feasible X exists).

    sigma = log(m)/eps; the iteration cap is the 8 C_f/eps primal budget,
    O(log(m)/eps^2) eigensolver calls for unit-norm constraints.  The run
    stops at its first row with f <= eps (feasible) or with f - gap > eps,
    which proves min f > eps by weak duality (infeasible).  When it ends
    above eps, a gap_certified_run at eps/2 follows with the same stop on
    f - gap; below its row K = ceil(16 C_f/eps) it replays the first run's
    rows bit for bit, so it stops at the same row.  f_lower and gap_bound
    come from the row with the largest f - gap across both traces, X and f
    from the certify run's smallest-gap row.  The outcome is infeasible when
    that f_lower exceeds eps (always when the first run stopped on it), and
    undetermined at this budget otherwise.  iterations, matvecs and trace
    are the first run's, up to its stop row.
    """
    if not 0 < eps < math.inf:  # NaN too
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    sigma = math.log(max(sdp.m, 2)) / eps
    C = curvature_estimate(sdp, sigma)
    objective = softmax_objective(sdp, sigma, curvature_bound=C)
    domain = SpectrahedronDomain(sdp.n, sdp.t)
    max_iters = certified_iteration_count(C, eps, "approx") + 2
    run = fw_run(objective, domain,
                 stop=StopRule(max_iters=max_iters, target_f=eps, target_lower=eps),
                 lmo_mode=lmo_mode, seed=seed)
    # a trace row's f is the objective at that row's iterate, so no re-evaluation
    X, f, f_lower, gap_bound = run.point, run.trace.final().f, None, None
    status = "feasible" if f <= eps else "undetermined"
    if status == "undetermined":
        cert = gap_certified_run(objective, domain, eps / 2.0, lmo_mode=lmo_mode,
                                 seed=seed, target_lower=eps)
        # past row K the replay may diverge, and the first run's stop row still certifies
        row = max(run.trace.rows + cert.trace.rows, key=lambda r: r.f - r.gap)
        f_lower, gap_bound = row.f - row.gap, row.gap
        if f_lower > eps:
            status, X, f = "infeasible", cert.point, cert.trace.rows[cert.k_hat].f
    return FeasibilityOutcome(status, X, f, max_violation(sdp, X), run.trace.final().k,
                              run.matvecs, run.trace, sigma,
                              f_lower=f_lower, gap_bound=gap_bound)


@dataclass
class BinarySearchResult:
    X: Optional[np.ndarray]
    lo: float
    hi: float
    objective_value: float

    @property
    def bracket(self):
        return self.hi - self.lo


def binary_search_objective(C: np.ndarray, sdp: Optional[FeasibilitySDP],
                            eps: float, value_range=None, n: Optional[int] = None,
                            t: float = 1.0, lmo_mode: str = "approx") -> BinarySearchResult:
    """Maximize C . X over the eps-feasible region by bisecting the guess
    gamma with the extra constraint -C.X <= -gamma.

    sdp = None means no side constraints (pure spectral problem).  The value
    range defaults to +-2 ||C||_F t.  C must be a finite symmetric n x n
    matrix, eps positive and finite, and the range must have lo <= hi and a
    finite width, or ValueError.  A feasible round raises lo to gamma and
    keeps the best eps-feasible X with C.X >= lo.  Only an infeasible round
    lowers hi to gamma: its certificate proves that no X meets every
    constraint with C.X >= gamma.  An undetermined round ends the bisection,
    so [lo, hi] is the bracket certified so far, which may be wider than eps.
    """
    if not 0 < eps < math.inf:  # NaN too
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if sdp is not None:
        n, t = sdp.n, sdp.t
    if n is None:
        raise ValueError("binary_search_objective needs n when sdp is None")
    C = _checked_matrix(C, n, "objective matrix C")
    if value_range is None:
        span = 2.0 * float(np.linalg.norm(C)) * t
        lo, hi = -span, span
    else:
        lo, hi = map(float, value_range)
    if not (lo <= hi and math.isfinite(hi - lo)):  # NaN and infinite ends too
        raise ValueError(f"value_range must have lo <= hi and a finite width, got {(lo, hi)!r}")
    rounds = max(1, int(math.ceil(math.log2(max((hi - lo) / max(eps, 1e-12), 2.0)))))

    A = ([] if sdp is None else list(sdp.A)) + [-C]
    best_X = None
    best_val = -math.inf
    for _ in range(rounds):
        gamma = 0.5 * (lo + hi)
        b = ([] if sdp is None else list(sdp.b)) + [-gamma]
        out = solve_eps_feasible(FeasibilitySDP(n=n, A=A, b=b, t=t), eps, lmo_mode=lmo_mode)
        if out.status == "feasible":
            lo = gamma
            val = float(np.vdot(C, out.X))
            if val > best_val:
                best_val, best_X = val, out.X
        elif out.status == "infeasible":
            hi = gamma
        else:
            break
    return BinarySearchResult(X=best_X, lo=lo, hi=hi, objective_value=best_val)


# ---------------------------------------------------------------------------
# plain-text problem files
#
#   # comment
#   n 6
#   t 1.0
#   constraint b=0.5
#   0 0 1.0
#   0 3 -2.0        (i j value, 0-based; value mirrored to (j,i))
#   constraint b=-1
#   ...

def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text!r} is not a finite number")
    return v


def parse_problem(text: str) -> FeasibilitySDP:
    """The FeasibilitySDP of a problem file; a malformed line raises
    ValueError naming its line number: a repeated `n` or `t` header, a
    header or entry with the wrong number of fields, or a constraint header
    other than `constraint b=<value>`."""
    n = None
    t = 1.0
    A, b = [], []
    cur = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] in ("n", "t"):
                if len(parts) != 2:
                    raise ValueError(f"`{parts[0]}` takes one value, got {len(parts) - 1}")
                if parts[0] in seen:
                    raise ValueError(f"`{parts[0]}` is given twice")
                seen.add(parts[0])
            if parts[0] == "n":
                n = int(parts[1])
                if n < 1:
                    raise ValueError(f"n must be at least 1, got {n}")
            elif parts[0] == "t":
                t = _finite(parts[1])
                if not t > 0:
                    raise ValueError(f"t must be positive, got {t!r}")
            elif parts[0] == "constraint":
                if n is None:
                    raise ValueError("n must precede constraints")
                if len(parts) != 2 or not parts[1].startswith("b="):
                    raise ValueError("a constraint header is `constraint b=<value>`")
                b.append(_finite(parts[1][2:]))
                cur = np.zeros((n, n))
                A.append(cur)
            else:
                if len(parts) != 3:
                    raise ValueError(f"an entry is `i j value`, got {len(parts)} fields")
                i, j, v = int(parts[0]), int(parts[1]), _finite(parts[2])
                if cur is None:
                    raise ValueError("entry before any constraint header")
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"index out of range for n = {n}")
                cur[i, j] = v
                cur[j, i] = v
        except ValueError as e:
            raise ValueError(f"problem file line {lineno}: {raw!r}: {e}") from None
    if n is None or not A:
        raise ValueError("problem file needs an `n` header and at least one constraint")
    return FeasibilitySDP(n=n, A=A, b=np.array(b), t=t)


def load_problem(path) -> FeasibilitySDP:
    with open(path) as fh:
        return parse_problem(fh.read())
