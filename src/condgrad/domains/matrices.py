"""Matrix domains: trace-t spectahedron, sparse-PSD atom hull, and the
bounded-diagonal PSD box, with their linear oracles.

Spectahedron atoms are kept as (v, t) (RankOneAtom), so the ledger holds
the iterate's factored (sum of weighted rank-1) representation at O(n)
memory per atom.  For f = ||X - R||^2 with the approximate oracle, fw_run
keeps only that from its first row on (GramLedger), and builds the dense X
when it is read; other runs step dense symmetric arrays.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from ..core import (Atom, DenseApply, FactoredLedger, IterateLedger, LmoResult,
                    ObjectiveOracle, StepSchedule, StopRule, make_rng)
from .. import solver
from ..eigen import SymmetricOperator, approx_smallest_ev, check_symmetric, spectral_range_bound
from ..solver import RunResult
from .vectors import _check_finite, _check_size


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Fix the sign ambiguity of an eigenvector so v and -v label equally."""
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def _digest_label(prefix: str, arr: np.ndarray) -> str:
    h = hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=6)
    return prefix + h.hexdigest()


class RankOneAtom(DenseApply):
    """t * v v^T for a unit vector v, kept as (v, t).

    point is built on every access and never cached.  inner goes through
    that dense point (DenseApply), because v^T G v would not reproduce the
    bits of <t vv^T, G>.
    """

    __slots__ = ("vector", "t", "label")

    def __init__(self, vector: np.ndarray, t: float, label: str):
        self.vector, self.t, self.label = vector, t, label

    @property
    def point(self) -> np.ndarray:
        p = np.outer(self.vector, self.vector)
        p *= self.t
        return p

    def dense(self) -> np.ndarray:
        return self.point


def rank_one_atom(v: np.ndarray, t: float = 1.0) -> RankOneAtom:
    v = _canonical_sign(np.asarray(v, dtype=float))
    nrm = np.linalg.norm(v)
    if not nrm > 0:
        raise ValueError("a rank-one atom needs a nonzero vector")
    v = v / nrm
    return RankOneAtom(vector=v, t=t, label=_digest_label("v", v))


# ---------------------------------------------------------------------------
# factored representation

@dataclass
class FactoredPSD:
    """X = t * sum_j alpha_j v_j v_j^T with unit v_j and convex weights.

    PSD with trace exactly t by construction; rank at most the atom count.
    """

    n: int
    scale: float
    weights: list
    vectors: list

    def __post_init__(self):
        if not (self.scale > 0 and len(self.weights) == len(self.vectors)
                and abs(sum(self.weights) - 1.0) <= 1e-12
                and all(w >= 0 and len(v) == self.n and abs(np.linalg.norm(v) - 1.0) <= 1e-12
                        for w, v in zip(self.weights, self.vectors))):
            raise ValueError("FactoredPSD needs scale > 0, convex weights and unit n-vectors")

    @staticmethod
    def from_ledger(ledger: IterateLedger, n: int, t: float) -> "FactoredPSD":
        return FactoredPSD(n=n, scale=float(t), weights=ledger.weights.tolist(),
                           vectors=[np.asarray(a.vector, dtype=float) for a in ledger.atoms])

    def dense(self) -> np.ndarray:
        B = np.array(self.vectors).T * np.sqrt(self.scale * np.array(self.weights))
        return B @ B.T  # one symmetric product

    def rank(self) -> int:
        return len(self.vectors)


class GramLedger(FactoredLedger):
    """The ledger of a spectahedron run on f(X) = ||X - R||_F^2 (R None for
    0), which is also its iterate X = t * sum_j w_j v_j v_j^T, kept factored.

    Per slot it also keeps the unit vector v_j (a row of V), r_j = v_j^T R v_j
    and the Gram matrix G = V V^T, through merges and prunes.  ||X||^2 =
    t^2 w^T (G o G) w and <X, R> = t w.r then give f, the gradient operator
    u -> 2(X u - R u), the gap and the line search in closed form: a step
    costs one R v plus O(nk) and allocates no n x n array.
    """

    def __init__(self, ledger: IterateLedger, R: Optional[np.ndarray]):
        atoms, self.t, self._probe = ledger.atoms, ledger.atoms[0].t, None
        self.Rmv = np.zeros_like if R is None else R.__matmul__
        self.r_sq = 0.0 if R is None else float(np.vdot(R, R))
        V = self._V = np.array([a.vector for a in atoms])
        self._r, self._G = np.array([v @ self.Rmv(v) for v in V]), V @ V.T
        self._slot = {a.label: j for j, a in enumerate(atoms)}
        super().__init__(atoms, ledger.weights)

    def _load(self, atoms, weights):
        idx = [self._slot[a.label] for a in atoms]  # the slots a prune keeps
        self._V, self._r, self._G = self._V[idx], self._r[idx], self._G[np.ix_(idx, idx)]
        super()._load(atoms, weights)

    def step(self, atom, alpha: float):
        if atom.label not in self._slot:
            (Vv, vRv), v = self._project(atom), atom.vector
            self._G = np.block([[self._G, Vv[:, None]], [Vv, float(v @ v)]])
            self._V, self._r = np.vstack([self._V, v]), np.append(self._r, vRv)
        super().step(atom, alpha)
        self._probe = None

    def _project(self, atom) -> tuple:  # (V v, v^T R v), kept for the step
        if self._probe is None or self._probe[0] is not atom:
            v = atom.vector
            self._probe = (atom, self._V @ v, float(v @ self.Rmv(v)))
        return self._probe[1:]

    def _moments(self) -> tuple:  # (||X||^2, <X, R>)
        w = self.weights
        return self.t ** 2 * float(w @ (self._G * self._G) @ w), self.t * float(w @ self._r)

    def value_and_grad(self) -> tuple:
        xx, xr = self._moments()
        f = xx - 2.0 * xr + self.r_sq
        V, tw, Rmv = self._V, self.t * self.weights, self.Rmv
        return f, SymmetricOperator(dim=V.shape[1],
                                    matvec=lambda u: 2.0 * (V.T @ (tw * (V @ u)) - Rmv(u)),
                                    fro_norm=2.0 * math.sqrt(max(f, 0.0)))

    def atom_terms(self, atom) -> tuple:
        """(<X - S, grad f(X)>, ||S - X||^2) for the atom S = t v v^T."""
        Vv, vRv = self._project(atom)
        xx, xr = self._moments()
        v, t = atom.vector, self.t
        vXv = t * float(self.weights @ (Vv * Vv))
        return (2.0 * (xx - xr) - 2.0 * t * (vXv - vRv),
                t * t * float(v @ v) ** 2 - 2.0 * t * vXv + xx)

    def point_builder(self):
        """A callable that builds today's dense X, as FactoredPSD.dense does."""
        B = self._V.T * np.sqrt(self.t * self.weights)
        return lambda: B @ B.T


# ---------------------------------------------------------------------------
# spectahedron {X PSD, tr X = t}

def spect_lmo(grad, eps: float, t: float = 1.0, rng=None, seed=0) -> LmoResult:
    """Best rank-1 atom t*vv^T for a linear objective: v is an approximate
    smallest eigenvector of grad, so the atom value is within the returned
    slack, at most t*eps, of the true domain minimum t*lambda_min(grad).

    v comes from Lanczos (see approx_largest_ev) on -grad: O(log(n)/sqrt(eps))
    matvecs, never more than one above the power method's O(log(n)/eps)
    count, and exact once the step count reaches n.

    The slack is t*eps unless the solve found its Krylov space invariant,
    on the break or at the dimension; then it is t*(beta + rounding), capped
    at t*eps.  Lanczos from q that ends on the residual norm beta has found
    an exactly invariant Krylov space of a matrix within beta of grad in
    norm.  That space holds the part of q in each eigenspace, and a random q
    has a part in every one almost surely, so the space holds the extreme
    eigenvalue and the Ritz value is within beta of grad's (Kuczynski &
    Wozniakowski's bound for any later step count applies to the same Ritz
    value, and tends to 0).  The exception is a q so close to orthogonal to
    the extreme eigenvector that its part there is rounding: within about
    n ulps of L / (the extreme spectral gap), L = spectral_range_bound(op),
    where the break ends the solve early; a random q lands there with
    probability of order sqrt(n) times that.  At the dimension beta is 0.
    The rounding term adds what the basis lost (the history's two readings)
    and n ulps of L, so it is never 0.

    eps <= 0 requests the exact (dense-eigensolver) oracle and needs a dense
    gradient.
    """
    if eps <= 0.0:
        G = check_symmetric(grad, "eigensolve input")
        return LmoResult(rank_one_atom(np.linalg.eigh(G)[1][:, 0], t), matvecs=G.shape[0])
    op = grad if isinstance(grad, SymmetricOperator) else SymmetricOperator.from_dense(grad)
    res = approx_smallest_ev(op, eps, rng=rng, seed=seed)
    slack = eps
    if res.beta is not None:
        rounding = (abs(res.history[0] - res.rayleigh)
                    + op.dim * math.ulp(1.0) * spectral_range_bound(op))
        slack = min(eps, res.beta + rounding)
    return LmoResult(rank_one_atom(res.vector, t), matvecs=res.matvecs, slack=t * slack)


class SpectrahedronDomain:
    """PSD matrices with trace exactly t; atoms are rank-1 t*vv^T.

    lmo eps is in objective-value units (the additive suboptimality of the
    atom value); the eigensolver tolerance is eps/t.
    """

    def __init__(self, n, t=1.0):
        _check_size(n, t)
        self.n = n
        self.t = float(t)
        self.diam_sq = 2.0 * self.t ** 2 if n >= 2 else 0.0

    def lmo(self, grad, eps=0.0, rng=None) -> LmoResult:
        return spect_lmo(grad, eps / self.t if eps > 0 else 0.0, t=self.t, rng=rng)

    def start_atom(self) -> RankOneAtom:
        e0 = np.zeros(self.n)
        e0[0] = 1.0
        return rank_one_atom(e0, self.t)

    def factored_ledger(self, objective: ObjectiveOracle, ledger,
                        exact_lmo: bool) -> Optional[GramLedger]:
        """fw_run's factored iterate, from the start ledger, for f = ||X - R||^2
        with a symmetric n x n (or zero) R, else None.  The exact oracle
        (eps 0) needs a dense gradient, so exact_lmo runs stay dense."""
        R = objective.target
        zero = R is not None and np.ndim(R) == 0 and R == 0
        if exact_lmo or not (zero or (np.shape(R) == (self.n, self.n) and np.array_equal(R, R.T))):
            return None
        return GramLedger(ledger, None if zero else np.asarray(R, dtype=float))

    def contains(self, X) -> bool:
        X = np.asarray(X, dtype=float)
        if not np.allclose(X, X.T, atol=1e-10):
            return False
        if abs(np.trace(X) - self.t) > 1e-9 * max(1.0, self.t):
            return False
        return bool(np.linalg.eigvalsh(X).min() >= -1e-9 * max(1.0, self.t))


@dataclass
class HazanResult(RunResult):
    """fw_run's result with the final iterate's factors; point is fetched
    from the run when first read, so no dense n x n X is built before that."""

    factored: FactoredPSD

    def _replace(self, **changes) -> "HazanResult":  # NamedTuple-era name; perfbench tests call it
        return replace(self, **changes)


def hazan_run(objective: ObjectiveOracle, n: int, t: float = 1.0,
              stop: Optional[StopRule] = None, variant: str = "plain",
              lmo_mode: str = "approx", seed=0) -> HazanResult:
    """Greedy rank-1 solver on the trace-t spectahedron: fw_run over
    SpectrahedronDomain(n, t), with the iterate's factors read off the ledger.

    Starts from the deterministic e1 e1^T atom; after k steps the iterate has
    rank at most k+1 and, in approx mode, primal error at most 8 C_f/(k+2).
    variant line_search replaces the harmonic step.  Every row's gap is read
    off the step atom's eigensolve.
    """
    if variant not in ("plain", "line_search"):
        raise ValueError(f"unknown hazan_run variant {variant!r}")
    schedule = StepSchedule.line_search() if variant == "line_search" else StepSchedule.harmonic()
    run = solver.fw_run(objective, SpectrahedronDomain(n, t),
                        stop=stop or StopRule(max_iters=100),
                        schedule=schedule, lmo_mode=lmo_mode, seed=seed)
    return HazanResult(point=lambda: run.point, ledger=run.ledger, trace=run.trace,
                       stopped_on=run.stopped_on, matvecs=run.matvecs,
                       factored=FactoredPSD.from_ledger(run.ledger, n, t))


def random_low_rank_psd(n: int, k: int, rng) -> np.ndarray:
    """Random PSD matrix of rank <= k and trace 1: B B^T scaled, with B an
    n x k standard Gaussian draw from rng."""
    B = rng.standard_normal((n, k))
    X = B @ B.T
    return X * (1.0 / np.trace(X))


def spect_lowrank_lowerbound_suite(n: int, k: int, seed=0, samples: int = 200) -> dict:
    """Rank-vs-error floor for f(X) = ||X||_F^2 on the spectahedron.

    The uniform rank-k iterate diag(1/k,...,1/k,0,...) attains the rank-k
    minimum 1/k (exact in rational arithmetic); random rank<=k samples never
    beat it; orthogonal rank-1 vertices realize the squared diameter 2.
    """
    if not 1 <= k <= n:
        raise ValueError(f"rank suite needs 1 <= k <= n, got k={k!r}, n={n!r}")
    Xk = np.zeros((n, n))
    idx = np.arange(k)
    Xk[idx, idx] = 1.0 / k
    f_unif = float(np.vdot(Xk, Xk))
    if k * Fraction(1, k) ** 2 != Fraction(1, k):
        raise AssertionError("uniform rank-k construction must attain 1/k")
    if not abs(f_unif - 1.0 / k) <= 4e-16 * max(1, k):
        raise AssertionError(f"uniform rank-k value {f_unif} is not 1/{k} in floats")

    rng = make_rng(seed)
    worst = math.inf
    for _ in range(samples):
        X = random_low_rank_psd(n, k, rng)
        fX = float(np.vdot(X, X))
        if not fX >= 1.0 / k - 1e-10:
            raise AssertionError(f"sample beat the rank bound: {fX} < 1/{k}")
        worst = min(worst, fX)

    u = np.zeros(n); u[0] = 1.0
    v = np.zeros(n); v[min(1, n - 1)] = 1.0
    d2 = float(np.vdot(np.outer(u, u) - np.outer(v, v),
                       np.outer(u, u) - np.outer(v, v)))
    if n >= 2 and not abs(d2 - 2.0) <= 1e-12:
        raise AssertionError(f"squared diameter {d2} is not 2")
    return {"n": n, "k": k, "uniform_value": f_unif, "sample_min": worst,
            "diameter_sq": d2}


# ---------------------------------------------------------------------------
# sparse-PSD atom hull

@dataclass(frozen=True)
class SparsePsdAtom:
    """(e_i +- e_j)(e_i +- e_j)^T: ones at (i,i),(j,j), sign at (i,j),(j,i).

    PSD with trace 2 and diagonally dominant with equality.
    """

    i: int
    j: int
    sign: int  # +1 or -1

    def __post_init__(self):
        if not (0 <= self.i < self.j and self.sign in (1, -1)):
            raise ValueError(f"sparse-PSD atom needs 0 <= i < j and sign +-1, "
                             f"got {self.i!r}, {self.j!r}, {self.sign!r}")

    @property
    def label(self) -> str:
        return f"{'P' if self.sign > 0 else 'N'}({self.i},{self.j})"

    def matrix(self, n: int) -> np.ndarray:
        A = np.zeros((n, n))
        A[self.i, self.i] = A[self.j, self.j] = 1.0
        A[self.i, self.j] = A[self.j, self.i] = float(self.sign)
        return A

    def inner(self, G) -> float:
        return float(G[self.i, self.i] + G[self.j, self.j]
                     + 2.0 * self.sign * G[self.i, self.j])

    def atom(self, n: int) -> Atom:
        return Atom(point=self.matrix(n), label=self.label)


def sparsepsd_lmo(G, mode: str = "both") -> SparsePsdAtom:
    """Linear pass over the 2*C(n,2) atoms: minimize G_ii+G_jj +- 2G_ij.

    Ties break to the lexicographically smallest (i,j), plus-sign first.
    A non-finite G, or an atom value that overflows, raises ValueError.
    """
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    if n < 2:
        raise ValueError("sparse-PSD atoms need n >= 2")
    if mode not in ("both", "plus", "minus"):
        raise ValueError(f"sparse-PSD mode must be both, plus or minus, got {mode!r}")
    _check_finite(G)
    iu, ju = np.triu_indices(n, 1)  # lexicographic order
    d = np.diag(G)
    base = d[iu] + d[ju]
    off = G[iu, ju]
    # row p holds pair p's (plus, minus) values, so the first minimum of the
    # flattened array breaks ties by (i, j), then plus first
    vals = np.column_stack([base + 2.0 * off, base - 2.0 * off])
    if mode != "both":
        vals[:, 1 if mode == "plus" else 0] = np.inf
    a = int(np.argmin(vals))
    if not math.isfinite(vals.flat[a]):
        raise ValueError("non-finite linearization")
    p, minus = divmod(a, 2)
    return SparsePsdAtom(i=int(iu[p]), j=int(ju[p]), sign=-1 if minus else 1)


class SparsePsdDomain:
    """Convex hull of the trace-2 sparse atoms P(i,j), N(i,j)."""

    def __init__(self, n, mode: str = "both"):
        _check_size(n)
        if not (n >= 2 and mode in ("both", "plus", "minus")):
            raise ValueError(f"sparse-PSD needs n >= 2 and a known mode, got {n!r}, {mode!r}")
        self.n = n
        self.mode = mode
        self.diam_sq = 8.0

    def lmo(self, grad, eps=0.0, rng=None) -> LmoResult:
        return LmoResult(sparsepsd_lmo(grad, self.mode).atom(self.n))

    def start_atom(self) -> Atom:
        return SparsePsdAtom(0, 1, 1).atom(self.n)

    def contains(self, X) -> bool:
        X = np.asarray(X, dtype=float)
        return bool(abs(np.trace(X) - 2.0) <= 1e-9
                    and np.linalg.eigvalsh(0.5 * (X + X.T)).min() >= -1e-9)


def sparsepsd_run(objective: ObjectiveOracle, n: int, mode: str = "both",
                  stop: Optional[StopRule] = None, schedule=None, seed=0) -> RunResult:
    """Greedy run over the sparse-atom hull; the step-k iterate touches at
    most 4(k+1) matrix entries (4 new ones per atom)."""
    dom = SparsePsdDomain(n, mode)
    return solver.fw_run(objective, dom, stop=stop or StopRule(max_iters=50),
                         schedule=schedule, seed=seed)


# ---------------------------------------------------------------------------
# bounded-diagonal PSD box  {X PSD, X_ii <= t}

def _project_rows(V: np.ndarray, radius: float) -> np.ndarray:
    norms = np.linalg.norm(V, axis=1)
    scale = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return V * scale[:, None]


BOUNDEDDIAG_RESTARTS = 5      # descent runs per oracle call
BOUNDEDDIAG_ITERATIONS = 500  # projected-gradient steps per run


class BoundedDiagLmo(NamedTuple):
    result: LmoResult
    value: float


def boundeddiag_lmo(G, t: float = 1.0, eps: float = 0.0, rng=None,
                    seed=0) -> BoundedDiagLmo:
    """min <Y, G> over Y PSD with Y_ii <= t, via projected gradient descent
    on the full-rank factor Y = V V^T (rows of V in the sqrt(t) ball).

    Returns (result, value): the LmoResult whose atom is the best restart's
    Y, and <Y, G> for that Y, evaluated once per restart after its steps.
    Step size 1/(2||G||_F) bounds the factor-gradient Lipschitz constant, so
    descent is monotone in exact arithmetic; the first two restarts are the
    deterministic V = 0 (optimal for PSD G) and V = sqrt(t)*Id, the rest are
    seeded Gaussians.  The additive-error contract (value within t*eps of
    the optimum) is validated against a grid oracle at n <= 3; at larger n
    certificates derived from this oracle are conditional on it.
    """
    G = check_symmetric(G, "boundeddiag_lmo's G")
    n = G.shape[0]
    if rng is None:
        rng = make_rng(seed)
    gnorm = float(np.linalg.norm(G))
    radius = math.sqrt(t)
    if gnorm == 0.0:
        Y = np.zeros((n, n))
        return BoundedDiagLmo(LmoResult(Atom(Y, _digest_label("bd", Y)), slack=t * eps), 0.0)
    step = 1.0 / (2.0 * gnorm)

    best_V, best_val = None, math.inf
    for r in range(BOUNDEDDIAG_RESTARTS):
        if r == 0:
            V = np.zeros((n, n))
        elif r == 1:
            V = radius * np.eye(n)
        else:
            V = _project_rows(rng.standard_normal((n, n)), radius)
        for _ in range(BOUNDEDDIAG_ITERATIONS):
            V = _project_rows(V - step * 2.0 * (G @ V), radius)
        val = float(np.einsum("ij,ik,jk->", G, V, V))
        if val < best_val:
            best_val, best_V = val, V
    Y = best_V @ best_V.T
    Y = 0.5 * (Y + Y.T)
    atom = Atom(point=Y, label=_digest_label("bd", Y))
    matvecs = BOUNDEDDIAG_RESTARTS * BOUNDEDDIAG_ITERATIONS
    return BoundedDiagLmo(LmoResult(atom, matvecs=matvecs, slack=t * eps), best_val)


class BoundedDiagDomain:
    """PSD matrices with diagonal entries at most t (no trace constraint)."""

    def __init__(self, n, t=1.0):
        _check_size(n, t)
        # provable cap ||X - Y||_F <= tr(X) + tr(Y) <= 2nt: a radius-nt diameter
        _check_size(n, n * t)
        self.n = n
        self.t = float(t)
        self.diam_sq = 4.0 * (n * self.t) ** 2

    def lmo(self, grad, eps=0.0, rng=None) -> LmoResult:
        return boundeddiag_lmo(grad, t=self.t, eps=eps, rng=rng).result

    def start_atom(self) -> Atom:
        Y = np.zeros((self.n, self.n))
        return Atom(point=Y, label="0")

    def contains(self, X) -> bool:
        X = np.asarray(X, dtype=float)
        if not np.allclose(X, X.T, atol=1e-10):
            return False
        if np.diag(X).max() > self.t * (1.0 + 1e-12) + 1e-9:
            return False
        return bool(np.linalg.eigvalsh(X).min() >= -1e-10 * max(1.0, self.t))


def maxdiag_run(objective: ObjectiveOracle, n: int, t: float = 1.0,
                stop: Optional[StopRule] = None, seed=0) -> RunResult:
    """Greedy run over the bounded-diagonal box with harmonic steps and the
    exact-mode oracle.

    Each iterate is membership-checked (PSD probe, diagonal bound).  Gap
    certificates inherit the inner oracle's conditional status above n = 3.
    """
    dom = BoundedDiagDomain(n, t)

    def on_iterate(k, x, fx, gap):
        if not dom.contains(x.x):
            raise AssertionError(f"iterate left the domain at step {k}")

    return solver.fw_run(objective, dom, stop=stop or StopRule(max_iters=50),
                         seed=seed, on_iterate=on_iterate)
