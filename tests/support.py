"""Reference code that only the tests use: the duality gap from a domain's
exact oracle, the power method that the eigensolver's budget counts,
small-scale SDP characterizations of the nuclear and max norms, the nuclear
norm and the weighted nuclear norm, an exhaustive bounded-diagonal oracle,
an empirical diameter, the per-constraint soft-max loops, and the
completion losses that tests compare against.
"""

import math

import numpy as np

from condgrad.core import ObjectiveOracle, make_rng
from condgrad.domains.matrices import _project_rows
from condgrad.eigen import POWER_C, EigResult, dense_eig_oracle, spectral_range_bound
from condgrad.matcomp import PredictionStore, RatingDataset, residual_operator


# ---------------------------------------------------------------------------
# the duality gap

def duality_gap(x, grad, domain) -> float:
    """<x - s, grad> for the domain's best atom s, from its exact oracle."""
    res = domain.lmo(grad)
    return float(np.vdot(x, grad) - res.atom.inner(grad)) + res.slack


# ---------------------------------------------------------------------------
# the power method

def power_largest_ev(op, eps: float, seed=0) -> EigResult:
    """The power method whose count approx_largest_ev's budget starts from:
    ceil(POWER_C log n / gamma) iterations, gamma = eps / L, on M + L*Id
    (PSD, since L = spectral_range_bound(op) >= 2 max |lambda|), from the
    random start approx_largest_ev draws at that seed.  Returns the last
    iterate and its Rayleigh quotient on M, at iterations + 1 matvecs."""
    L = spectral_range_bound(op)
    iterations = max(1, math.ceil(POWER_C * math.log(max(op.dim, 2)) / (eps / L)))
    v = make_rng(seed).standard_normal(op.dim)
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        w = op(v) + L * v
        v = w / np.linalg.norm(w)
    ray = float(v @ op(v))
    return EigResult(v, ray, iterations, iterations + 1, (ray,))


# ---------------------------------------------------------------------------
# the SDP characterizations of the nuclear and max norms

def _sqrtm_psd(M: np.ndarray) -> np.ndarray:
    vals, vecs = dense_eig_oracle(M)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


PROBE_TOL = 1e-9  # nuclear_sdp_feasible's eigenvalue and trace tolerance
MAXNORM_RESTARTS = 4
MAXNORM_ITERATIONS = 400  # alternating least-squares sweeps per restart, at most
MAXNORM_CHECK_EVERY = 10  # sweeps between residual checks
MAXNORM_MIN_DROP = 1e-3  # a restart ends once a check finds its residual fell less
MAXNORM_RESID_TOL = 1e-6  # relative residual that counts as L R^T = Z


def nuclear_sdp_feasible(Z, t: float):
    """||Z||_nuc <= t/2 decided through the PSD characterization: the minimal
    completion V = (ZZ^T)^1/2, W = (Z^T Z)^1/2 makes [[V, Z], [Z^T, W]] PSD
    with the smallest possible trace, so feasibility reduces to an eigen
    probe of the assembled block matrix plus its trace against t."""
    Z = np.asarray(Z, dtype=float)
    m, n = Z.shape
    M = np.zeros((m + n, m + n))
    M[:m, :m] = _sqrtm_psd(Z @ Z.T)
    M[m:, m:] = _sqrtm_psd(Z.T @ Z)
    M[:m, m:] = Z
    M[m:, :m] = Z.T
    scale = max(1.0, float(np.abs(M).max()))
    psd_ok = bool(np.linalg.eigvalsh(M).min() >= -PROBE_TOL * scale)
    return psd_ok and float(np.trace(M)) <= t + PROBE_TOL * max(1.0, t)


def maxnorm_sdp_feasible(Z, t: float) -> bool:
    """||Z||_max <= t decided through the factored PSD characterization:
    search L (m x d), R (n x d) with rows in the sqrt(t) ball and L R^T = Z
    by alternating least squares with row projection; the assembled
    [[LL^T, Z], [Z^T, RR^T]] is the eigen-probed completion.  A restart ends
    after MAXNORM_ITERATIONS sweeps, once its max residual meets the
    tolerance, or once it falls by less than MAXNORM_MIN_DROP (relative)
    over MAXNORM_CHECK_EVERY sweeps.  Approximate: nonconvex search, trust
    it only with a tolerance band (tests use 1e-3)."""
    Z = np.asarray(Z, dtype=float)
    m, n = Z.shape
    d = m + n
    radius = math.sqrt(t)
    rng = make_rng(0)
    lam = 1e-10
    tol = MAXNORM_RESID_TOL * max(1.0, float(np.abs(Z).max()))
    best = math.inf
    for r in range(MAXNORM_RESTARTS):
        if r == 0:
            # balanced SVD factors, the natural candidate
            U, s, Vt = np.linalg.svd(Z, full_matrices=False)
            L = np.zeros((m, d))
            R = np.zeros((n, d))
            L[:, :len(s)] = U * np.sqrt(s)
            R[:, :len(s)] = Vt.T * np.sqrt(s)
            L, R = _project_rows(L, radius), _project_rows(R, radius)
        else:
            L = _project_rows(rng.standard_normal((m, d)), radius)
            R = _project_rows(rng.standard_normal((n, d)), radius)
        prev = math.inf
        for sweep in range(1, MAXNORM_ITERATIONS + 1):
            G = R.T @ R + lam * np.eye(d)
            L = _project_rows(np.linalg.solve(G, R.T @ Z.T).T, radius)
            G = L.T @ L + lam * np.eye(d)
            R = _project_rows(np.linalg.solve(G, L.T @ Z).T, radius)
            if sweep % MAXNORM_CHECK_EVERY == 0:
                resid = float(np.abs(L @ R.T - Z).max())
                if resid <= tol or resid > prev * (1.0 - MAXNORM_MIN_DROP):
                    break
                prev = resid
        best = min(best, float(np.abs(L @ R.T - Z).max()))
        if best <= tol:
            return True
    return False


def max_norm_oracle(Z, tol: float = 1e-4) -> float:
    """Factorization norm min max(||L||_{2,inf}^2, ||R||_{2,inf}^2) over
    L R^T = Z, by bisection on t with the factored feasibility check.
    Approximate (nonconvex inner search); intended for <= 6x6 test sizes."""
    Z = np.asarray(Z, dtype=float)
    if not np.any(Z):
        return 0.0
    lo = float(np.abs(Z).max())  # ||Z||_max >= max |Z_ij|
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    L = U * np.sqrt(s)
    R = Vt.T * np.sqrt(s)
    hi = float(max((L ** 2).sum(axis=1).max(), (R ** 2).sum(axis=1).max()))
    if hi <= lo * (1.0 + 1e-12):
        return lo
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if maxnorm_sdp_feasible(Z, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def nuclear_norm_oracle(Z) -> float:
    """Sum of singular values via the eigenvalues of Z^T Z."""
    Z = np.asarray(Z, dtype=float)
    vals, _ = dense_eig_oracle(Z.T @ Z)
    return float(np.sqrt(np.clip(vals, 0.0, None)).sum())


def weighted_nuclear_norm(Z, p, q) -> float:
    """||P Z Q||_nuc for P = diag(sqrt(p)), Q = diag(sqrt(q))."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return nuclear_norm_oracle(np.asarray(Z, dtype=float)
                               * np.outer(np.sqrt(p), np.sqrt(q)))


# ---------------------------------------------------------------------------
# bounded-diagonal PSD box

def boundeddiag_grid_oracle_2x2(G, t: float = 1.0, grid_step: float = 1e-3) -> float:
    """Exhaustive reference for n = 2: Y = [[a, c], [c, b]] with the optimal
    off-diagonal c = -sign(G_01)*sqrt(ab) closed-form, grid over (a, b)."""
    G = np.asarray(G, dtype=float)
    assert G.shape == (2, 2)
    ax = np.arange(0.0, t + grid_step / 2, grid_step)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    root = np.sqrt(A * B)
    vals = A * G[0, 0] + B * G[1, 1] - 2.0 * abs(G[0, 1]) * root
    return float(vals.min())


def measure_bounded_diag_diam_sq(n: int, t: float = 1.0, samples: int = 200,
                                 seed=0) -> float:
    """Empirical squared Frobenius diameter of the bounded-diagonal box.

    Scans all +-1 sign-pattern rank-1 members t*ss^T (for n <= 10) plus random
    PSD members; a lower bound on the true diameter, used only to calibrate
    empirical curvature estimates.
    """
    rng = make_rng(seed)
    pts = []
    if n <= 10:
        for mask in range(1 << (n - 1)):  # global sign is irrelevant
            s = np.array([1.0] + [1.0 if (mask >> i) & 1 else -1.0
                                  for i in range(n - 1)])
            pts.append(t * np.outer(s, s))
    for _ in range(samples):
        B = rng.standard_normal((n, n))
        X = B @ B.T
        d = np.diag(X).max()
        if d > 0:
            pts.append(X * (t / d))
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            D = pts[i] - pts[j]
            best = max(best, float(np.vdot(D, D)))
    return best


# ---------------------------------------------------------------------------
# SDP feasibility: the per-constraint loops that the stacked products replace

def loop_constraint_values(sdp, X) -> np.ndarray:
    """A_i . X - b_i, one vdot per constraint."""
    return np.array([float(np.vdot(Ai, X)) for Ai in sdp.A]) - sdp.b


def loop_softmax_eval_grad(sdp, sigma: float, X):
    """(f, grad, weights) of the soft-max potential, one axpy per constraint."""
    z = sigma * loop_constraint_values(sdp, X)
    zmax = float(z.max())
    e = np.exp(z - zmax)
    s = float(e.sum())
    w = e / s
    grad = np.zeros((sdp.n, sdp.n))
    for wi, Ai in zip(w, sdp.A):
        grad += wi * Ai
    return (zmax + math.log(s)) / sigma, grad, w


def loop_curvature_estimate(sdp, sigma: float) -> float:
    """sigma (t max_i |lambda_max(A_i)|)^2, one checked dense eigensolve per
    constraint."""
    lam = max(abs(float(dense_eig_oracle(Ai)[0][0])) for Ai in sdp.A)
    return sigma * (sdp.t * lam) ** 2


# ---------------------------------------------------------------------------
# matrix completion

def squared_loss_objective(ds: RatingDataset, t: float):
    """(ObjectiveOracle, PredictionStore) for f = 1/2 sum (X_ij - y_ij)^2.

    The oracle's callables ignore their argument and read the store, which
    the caller keeps in sync with the factored iterate; grad returns the
    sparse SymmetricOperator.  curvature_bound is the t^2 upper bound for the
    scaled embedding.
    """
    store = PredictionStore(ds)
    y = ds.train_y

    def ev(_x=None):
        r = store.train_values - y
        return 0.5 * float(r @ r)

    def gr(_x=None):
        return residual_operator(ds, store.train_values - y)

    oracle = ObjectiveOracle(eval=ev, grad=gr, curvature_bound=t * t,
                             name="completion")
    return oracle, store


def rect_squared_loss(ds: RatingDataset) -> ObjectiveOracle:
    """Dense rectangular view f(Z) = 1/2 sum_{ij in train} (Z_ij - y_ij)^2
    over Z of shape (ds.m, ds.n) (test-scale reference; compose with
    transforms.nuclear_to_spect)."""
    m, n = ds.m, ds.n
    i, j, y = ds.train_i, ds.train_j, ds.train_y

    def ev(Z):
        r = Z[i, j] - y
        return 0.5 * float(r @ r)

    def gr(Z):
        G = np.zeros((m, n))
        np.add.at(G, (i, j), Z[i, j] - y)
        return G

    def hook(Zx, Zs):
        rx = Zx[i, j] - y
        d = Zs[i, j] - Zx[i, j]
        den = float(d @ d)
        if den <= 0.0:
            return 0.0
        return float(min(1.0, max(0.0, -float(rx @ d) / den)))

    return ObjectiveOracle(eval=ev, grad=gr, name="completion-dense",
                           alpha_hook=hook)
