"""Approximate extreme eigenvector computation for symmetric operators, by
Lanczos with full reorthogonalization.

For an additive accuracy eps and a bound L on the spectral range, with
gamma = eps / L, the power method's guarantee needs p = ceil(c log(n) / gamma)
iterations from a random start.  Lanczos runs min(p + 1, ceil(c log(n) /
sqrt(gamma)), n) steps: its (p+1)-step Krylov space holds the p-th power
iterate, so its Ritz value is at least the power method's Rayleigh quotient;
sqrt(gamma) is the rate Kuczynski & Wozniakowski (1992) prove for Lanczos;
and n steps span the whole space, so small problems are solved exactly.
M and M + c*Id span the same Krylov space, so Lanczos needs no centering or
PSD shift.  Operators are matvec-closures so gradients never have to be
materialized.
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

    fro_norm and row_abs_max, when available, feed the spectral range bound
    that sets the eigensolver's step count.  from_dense takes any matrix that
    check_symmetric accepts.  matvec must return a new array, not its
    argument or a view of it: the eigensolver orthogonalizes its result in
    place.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
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
            fro_norm=self.fro_norm,
            row_abs_max=self.row_abs_max,
        )


class EigResult(NamedTuple):
    vector: np.ndarray
    rayleigh: float          # v^T M v for the returned unit vector
    iterations: int          # Lanczos steps; 0 when the spectral range is 0
    matvecs: int             # steps + 1: the last one measures rayleigh
    history: tuple           # (top Ritz value, rayleigh), apart by what the basis
                             # lost to rounding; (rayleigh,) when no step ran


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


def _start_vector(op, start, seed, rng):
    if start is None:
        v = (make_rng(seed) if rng is None else rng).standard_normal(op.dim)
    else:
        v = np.asarray(start, dtype=float)
        if v.shape != (op.dim,):
            raise ValueError(f"start vector of shape {v.shape} for an operator of dim {op.dim}")
    nrm = np.linalg.norm(v)
    if not nrm > 0:
        raise ValueError(f"zero start vector for an operator of dim {op.dim}")
    return v / nrm


def approx_largest_ev(op: SymmetricOperator, eps: float, seed=0, rng=None,
                      iterations: Optional[int] = None, start=None) -> EigResult:
    """Unit v with v^T M v >= lambda_max(M) - eps, with high probability.

    Runs min(p + 1, ceil(c*log(n)/sqrt(gamma)), n) Lanczos steps, p the
    power method's count ceil(c*log(n)/gamma), c = POWER_C, gamma = eps/L
    and L = spectral_range_bound(op) (see the module docstring).  A budget
    iterations = b >= 1 runs b steps instead (at most n), b + 1 matvecs as
    for b power iterations.  A start vector (any nonzero length-n array,
    normalized here) replaces the random one drawn from rng (or
    make_rng(seed)); the high-probability guarantee assumes the random one.
    """
    if not eps >= 0:  # NaN too
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    if iterations is not None and not iterations >= 1:  # NaN too
        raise ValueError(f"iterations must be at least 1, got {iterations!r}")
    L = spectral_range_bound(op)
    v = _start_vector(op, start, seed, rng)

    if L == 0.0 and iterations is None:
        # spectral range zero: every unit vector is an eigenvector
        ray = float(v.dot(op(v)))
        return EigResult(v, ray, 0, 1, (ray,))

    if iterations is None:
        gamma = eps / L
        if gamma <= 0:
            raise ValueError("eps must be positive when no iteration budget is given")
        c_log_n = POWER_C * math.log(max(op.dim, 2))
        # min: a subnormal gamma makes the quotient inf, and math.ceil(inf) raises
        p = max(1, math.ceil(min(c_log_n / gamma, 2.0 ** 62)))
        iterations = min(p + 1, math.ceil(c_log_n / math.sqrt(gamma)), op.dim)
    return _lanczos_largest(op, v, int(iterations))


def approx_smallest_ev(op: SymmetricOperator, eps: float, **kw) -> EigResult:
    """Unit v with v^T M v <= lambda_min(M) + eps (whp): approx_largest_ev on -M."""
    res = approx_largest_ev(op.negated(), eps, **kw)
    return EigResult(res.vector, -res.rayleigh, res.iterations, res.matvecs,
                     tuple(-r for r in res.history))


def _lanczos_largest(op, q, iterations) -> EigResult:
    """Lanczos from the unit vector q against a row-major basis Q.  Each step
    orthogonalizes op(q) against all of Q by classical Gram-Schmidt run
    twice, which also does the three-term subtraction; alpha is the first
    projection's last entry, and alpha and beta go straight into T.  T is
    diagonalized once, after the last step, and the returned rayleigh is
    measured on the Ritz vector, so it is a true Rayleigh quotient whatever
    the basis lost to rounding."""
    m = min(iterations, op.dim)
    Q, T = np.empty((m, op.dim)), np.zeros((m, m))
    for j in range(m):
        Q[j] = q
        w = op(q)
        Qj = Q[:j + 1]
        h = Qj.dot(w)
        T[j, j] = h[j]
        if j + 1 == m:
            break
        w -= h.dot(Qj)
        w -= Qj.dot(w).dot(Qj)
        beta = math.sqrt(w.dot(w))
        if beta < 1e-14:
            break  # the Krylov space is invariant: T holds its exact spectrum
        T[j, j + 1] = T[j + 1, j] = beta
        w /= beta
        q = w
    k = j + 1
    vals, vecs = np.linalg.eigh(T[:k, :k])
    ritz = vecs[:, -1].dot(Q[:k])
    ritz /= math.sqrt(ritz.dot(ritz))
    ray = float(ritz.dot(op(ritz)))
    return EigResult(ritz, ray, k, k + 1, (float(vals[-1]), ray))


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
