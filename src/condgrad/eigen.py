"""Approximate extreme eigenvector computation for symmetric operators.

For an additive accuracy eps and a bound L on the spectral range, with
gamma = eps / L, two methods run on the PSD-shifted operator.  The power
method (the default of approx_largest_ev, and what matrix completion's fixed
budgets use) takes ceil(c * log(n) / gamma) iterations.  Lanczos, which the
spectahedron oracle uses, takes min(power + 1, ceil(c * log(n) / sqrt(gamma)),
n) steps: its (k+1)-step Krylov space holds the k-th power iterate, and n
steps span the whole space, so small problems are solved exactly.

Operators are matvec-closures so gradients never have to be materialized;
when the trace is known the operator is centered by trace/dim first, which
makes the returned iterates invariant to diagonal shifts M -> M + c*Id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import make_rng

POWER_C = 8.0


def check_symmetric(M, name: str) -> np.ndarray:
    """M as a float array if it is a dense square matrix symmetric to 1e-10;
    otherwise ValueError naming it."""
    if isinstance(M, SymmetricOperator):
        raise ValueError(f"{name} needs a dense matrix, not an operator")
    M = np.asarray(M, dtype=float)
    if not (M.ndim == 2 and M.shape[0] == M.shape[1]):
        raise ValueError(f"{name} must be a square symmetric matrix, got shape {M.shape}")
    # the exact test is cheap and settles every gradient built symmetric
    if not (np.array_equal(M, M.T) or np.allclose(M, M.T, atol=1e-10)):
        raise ValueError(f"{name} is not symmetric")
    return M


@dataclass
class SymmetricOperator:
    """Symmetric linear operator given by a matvec closure.

    fro_norm and row_abs_max, when available, feed the spectral range bound;
    trace enables shift-invariant centering.  from_dense takes any matrix
    that check_symmetric accepts.  matvec must return a new array, not its
    argument or a view of it: the eigensolvers shift its result in place.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    trace: Optional[float] = None
    fro_norm: Optional[float] = None
    row_abs_max: Optional[float] = None

    def __call__(self, v):
        return self.matvec(v)

    @staticmethod
    def from_dense(M: np.ndarray) -> "SymmetricOperator":
        M = check_symmetric(M, "operator")
        return SymmetricOperator(
            dim=M.shape[0],
            matvec=M.dot,
            trace=float(np.trace(M)),
            fro_norm=float(np.linalg.norm(M)),
            row_abs_max=float(np.abs(M).sum(axis=1).max()),
        )

    def negated(self) -> "SymmetricOperator":
        M = getattr(self.matvec, "__self__", None)
        if isinstance(M, np.ndarray) and self.matvec == M.dot:
            # a dense operator (from_dense); (-M) @ v is -(M @ v) bit for bit
            matvec = (-M).dot
        else:
            matvec = lambda v, mv=self.matvec: -mv(v)
        return SymmetricOperator(
            dim=self.dim,
            matvec=matvec,
            trace=None if self.trace is None else -self.trace,
            fro_norm=self.fro_norm,
            row_abs_max=self.row_abs_max,
        )


class EigResult(NamedTuple):
    vector: np.ndarray
    rayleigh: float          # v^T M v for the returned unit vector
    iterations: int
    matvecs: int
    history: tuple           # power: rayleigh after each iteration; lanczos:
                             # (final Ritz value, measured rayleigh); original units


def spectral_range_bound(op: SymmetricOperator) -> float:
    """Upper bound on lambda_max - lambda_min: 2 * min(Frobenius norm,
    max absolute row sum), whichever ingredients the operator exposes."""
    cands = []
    if op.fro_norm is not None:
        cands.append(op.fro_norm)
    if op.row_abs_max is not None:
        cands.append(op.row_abs_max)
    if not cands:
        raise ValueError("operator exposes no norm information (fro_norm or "
                         "row_abs_max) to bound its spectral range")
    return 2.0 * min(cands)


def _start_vector(op, start, rng):
    if start == "ones":
        v = np.ones(op.dim)
    else:
        v = rng.standard_normal(op.dim)
    nrm = np.linalg.norm(v)
    if not nrm > 0:
        raise ValueError(f"zero start vector for an operator of dim {op.dim}")
    return v / nrm


def approx_largest_ev(op: SymmetricOperator, eps: float, seed=0, rng=None,
                      iterations: Optional[int] = None, start=None,
                      shift: Optional[float] = None, method: str = "power") -> EigResult:
    """Unit v with v^T M v >= lambda_max(M) - eps, with high probability.

    The iteration count follows the power-method guarantee ceil(c*log(n)/gamma),
    with c = POWER_C, gamma = eps/L and L = spectral_range_bound(op), unless
    a budget iterations >= 1 is given.  method="lanczos" runs min(that + 1,
    ceil(c*log(n)/sqrt(gamma)), n) steps: at that + 1 steps the Krylov space
    holds the power iterate, so the Ritz value is at least its Rayleigh
    quotient, and at n steps it is exact.  start="ones" starts from the
    all-ones vector, otherwise from a random one.  shift overrides the
    internal PSD shift (the caller promises M + shift*Id is PSD enough to make
    the top eigenvalue dominant in magnitude).
    """
    if not eps >= 0:  # NaN too
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    if method not in ("power", "lanczos"):
        raise ValueError(f"unknown eigensolver method {method!r}")
    if iterations is not None and not iterations >= 1:  # NaN too
        raise ValueError(f"iterations must be at least 1, got {iterations!r}")
    if rng is None:
        rng = make_rng(seed)
    L = spectral_range_bound(op)
    v = _start_vector(op, start, rng)
    matvecs = 0

    if L == 0.0 and iterations is None:
        # spectral range zero: every unit vector is an eigenvector
        ray = float(v.dot(op(v)))
        return EigResult(v, ray, 0, 1, (ray,))

    if shift is not None:
        center, t = 0.0, float(shift)
    elif op.trace is not None:
        center, t = op.trace / op.dim, L
    else:
        center, t = 0.0, L
    offset = t - center  # shifted operator is M + offset*Id

    if iterations is None:
        gamma = eps / L
        if gamma <= 0:
            raise ValueError("eps must be positive when no iteration budget is given")
        c_log_n = POWER_C * math.log(max(op.dim, 2))
        # min: a subnormal gamma makes the quotient inf, and math.ceil(inf) raises
        iterations = max(1, math.ceil(min(c_log_n / gamma, 2.0 ** 62)))
        if method == "lanczos":
            iterations = min(iterations + 1, math.ceil(c_log_n / math.sqrt(gamma)),
                             op.dim)
    iterations = int(iterations)

    if method == "lanczos":
        return _lanczos_largest(op, v, iterations, offset)

    history = []
    for _ in range(iterations):
        w = op(v)
        w += offset * v
        matvecs += 1
        ray_shift = float(v.dot(w))
        history.append(ray_shift - offset)
        nrm = math.sqrt(w.dot(w))
        if nrm == 0.0:
            # v is in the kernel of the shifted operator; it is an exact eigenvector
            return EigResult(v, history[-1], len(history), matvecs, tuple(history))
        w /= nrm
        v = w
    ray = float(v.dot(op(v)))
    matvecs += 1
    history.append(ray)
    return EigResult(v, ray, iterations, matvecs, tuple(history))


def approx_smallest_ev(op: SymmetricOperator, eps: float, **kw) -> EigResult:
    """Unit v with v^T M v <= lambda_min(M) + eps (whp): approx_largest_ev on -M."""
    res = approx_largest_ev(op.negated(), eps, **kw)
    return EigResult(res.vector, -res.rayleigh, res.iterations, res.matvecs,
                     tuple(-r for r in res.history))


def _lanczos_largest(op, v0, iterations, offset) -> EigResult:
    """Lanczos with full reorthogonalization against a row-major basis; the
    tridiagonal T is diagonalized once, after the last step, and the returned
    rayleigh is measured on the Ritz vector, so it is a true Rayleigh
    quotient whatever the basis lost to rounding."""
    m = min(iterations, op.dim)
    Q = np.empty((m, op.dim))
    alphas, betas = [], []
    q, q_prev, beta = v0, v0, 0.0
    for j in range(m):
        Q[j] = q
        w = op(q)
        w += offset * q
        a = float(q.dot(w))
        alphas.append(a)
        if j + 1 == m:
            break
        w -= a * q + beta * q_prev
        Qj = Q[:j + 1]
        w -= Qj.dot(w).dot(Qj)
        beta = math.sqrt(w.dot(w))
        if beta < 1e-14:
            break  # the Krylov space is invariant: T holds its exact spectrum
        betas.append(beta)
        w /= beta
        q_prev, q = q, w
    k = len(alphas)
    T = np.diag(alphas)
    if betas:
        T += np.diag(betas, 1) + np.diag(betas, -1)
    vals, vecs = np.linalg.eigh(T)
    ritz = vecs[:, -1].dot(Q[:k])
    ritz /= math.sqrt(ritz.dot(ritz))
    ray = float(ritz.dot(op(ritz)))
    return EigResult(ritz, ray, k, k + 1, (float(vals[-1]) - offset, ray))


def dense_eig_oracle(M: np.ndarray):
    """Test oracle: (eigenvalues descending, orthonormal eigenvectors as columns)
    from one np.linalg.eigh, its reconstruction residual checked <= 1e-9."""
    M = check_symmetric(M, "eigensolve input")
    vals, vecs = np.linalg.eigh(M)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    resid = np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - M)
    if not resid <= 1e-9 * max(1.0, np.linalg.norm(M)):  # NaN too
        raise ValueError(f"eigh reconstruction failed (residual {float(resid)!r})")
    return vals, vecs
