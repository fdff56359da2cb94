"""Vector domains: unit simplex, l1-ball of radius t, unit sup-norm cube.

Each domain exposes the linear minimization oracle (always exact here), a
membership test and a deterministic start atom; the solver reads the duality
gap off the oracle's atom.  The closed-form gap formulas are free functions
(simplex_gap, l1_gap, cube_gap) for the tests and the lower-bound suites.
Tie-breaks are lowest-index; sign(0) := +1.
Simplex and l1-ball vertices, and the origin, are CoordinateAtoms (index and
value); cube vertices are dense sign vectors.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..core import Atom, CoordinateAtom, LmoResult, make_rng


def _sign_pos(v):
    """Elementwise sign with sign(0) := +1."""
    return np.where(np.asarray(v) >= 0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# oracles as free functions (domain objects below delegate to these)

def simplex_lmo(c) -> CoordinateAtom:
    """Best simplex vertex for the linearization c: e_i at i = argmin c_i."""
    c = np.asarray(c, dtype=float)
    assert np.all(np.isfinite(c)), "non-finite linearization"
    i = int(np.argmin(c))  # np.argmin takes the first (lowest-index) minimum
    return CoordinateAtom(c.shape[0], i, 1.0, f"e{i}")


def simplex_gap(x, grad) -> float:
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return float(x @ grad - grad.min())


def l1_lmo(c, t=1.0) -> CoordinateAtom:
    """Signed scaled basis vector: i = argmax |c_i|, sign(-c_i), radius t."""
    c = np.asarray(c, dtype=float)
    assert np.all(np.isfinite(c)), "non-finite linearization"
    i = int(np.argmax(np.abs(c)))
    sgn = float(_sign_pos(-c[i]))
    return CoordinateAtom(c.shape[0], i, sgn * t, ("+e%d" % i) if sgn > 0 else ("-e%d" % i))


def l1_gap(x, grad, t=1.0) -> float:
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return float(t * np.abs(grad).max() + x @ grad)


def cube_lmo(c) -> Atom:
    """Sign vertex of the unit cube: s_i = sign(-c_i), with sign(0) := +1."""
    c = np.asarray(c, dtype=float)
    assert np.all(np.isfinite(c)), "non-finite linearization"
    point = _sign_pos(-c)
    mask = 0
    for i in range(point.shape[0]):
        if point[i] > 0:
            mask |= 1 << i
    return Atom(point=point, label="c%x" % mask)


def cube_gap(x, grad) -> float:
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return float(np.abs(grad).sum() + x @ grad)


# ---------------------------------------------------------------------------
# domain objects

def _check_size(n, t=1.0):
    """Domain constructor validation: a dimension n >= 1 that numpy can index
    and a radius t > 0 whose squared diameter (at most (2t)^2) is finite."""
    if not 1 <= n <= np.iinfo(np.intp).max:
        raise ValueError(f"domain dimension n must be >= 1 and fit an array index, got {n!r}")
    if not t > 0:  # NaN too
        raise ValueError(f"domain radius t must be positive, got {t!r}")
    if not 4.0 * t * t < np.inf:
        raise ValueError(f"domain radius t is too large for a finite diameter, got {t!r}")


class SimplexDomain:
    """Unit simplex: x >= 0, sum(x) = 1."""

    def __init__(self, n):
        _check_size(n)
        self.n = n
        self.name = f"simplex(n={n})"
        self.diam_sq = 2.0 if n >= 2 else 0.0

    def lmo(self, grad, eps=0.0, rng=None) -> LmoResult:
        return LmoResult(simplex_lmo(grad))

    def start_atom(self) -> CoordinateAtom:
        return CoordinateAtom(self.n, 0, 1.0, "e0")

    def contains(self, x, tol=1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(x.min() >= -tol and abs(x.sum() - 1.0) <= tol * max(1.0, self.n))


class L1BallDomain:
    """l1-ball of radius t: ||x||_1 <= t; vertices are +-t*e_i, start is 0."""

    def __init__(self, n, t=1.0):
        _check_size(n, t)
        self.n = n
        self.t = float(t)
        self.name = f"l1ball(n={n},t={self.t:g})"
        self.diam_sq = 4.0 * self.t ** 2

    def lmo(self, grad, eps=0.0, rng=None) -> LmoResult:
        return LmoResult(l1_lmo(grad, self.t))

    def start_atom(self) -> CoordinateAtom:
        return CoordinateAtom(self.n, 0, 0.0, "0")

    def contains(self, x, tol=1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.abs(x).sum() <= self.t * (1.0 + tol))


class CubeDomain:
    """Unit sup-norm cube: ||x||_inf <= 1; vertices are sign vectors, start 0."""

    def __init__(self, n):
        _check_size(n)
        self.n = n
        self.name = f"cube(n={n})"
        self.diam_sq = 4.0 * n

    def lmo(self, grad, eps=0.0, rng=None) -> LmoResult:
        return LmoResult(cube_lmo(grad))

    def start_atom(self) -> CoordinateAtom:
        return CoordinateAtom(self.n, 0, 0.0, "0")

    def contains(self, x, tol=1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.abs(x).max() <= 1.0 + tol)


# ---------------------------------------------------------------------------
# lower-bound test suites (sparsity vs approximation quality)

def uniform_k_vector(n, k):
    """k coordinates set to 1/k: attains the cardinality-k minimum of ||x||^2."""
    assert 1 <= k <= n
    x = np.zeros(n)
    x[:k] = 1.0 / k
    return x


def sparse_lowerbound_suite(n, k, seed=0, samples=200) -> dict:
    """Checks for min_{x in simplex, card<=k} ||x||^2 = 1/k and gap >= 2/k.

    (a) the uniform-k construction attains 1/k exactly (verified in rational
    arithmetic, since floats cannot represent 1/k for most k); (b) random
    sparse feasible points never beat 1/k - 1e-12 and, for k < n, have
    duality gap >= 2/k - 1e-12.
    """
    assert 1 <= k <= n
    exact = sum(Fraction(1, k) ** 2 for _ in range(k))
    assert exact == Fraction(1, k), "uniform-k construction must attain 1/k"
    x_uni = uniform_k_vector(n, k)
    f_uni = float(x_uni @ x_uni)
    assert abs(f_uni - 1.0 / k) <= 4e-16 * max(1, k)

    rng = make_rng(seed)
    worst_f, worst_gap = np.inf, np.inf
    for _ in range(samples):
        support = rng.choice(n, size=k, replace=False)
        w = rng.dirichlet(np.ones(k))
        x = np.zeros(n)
        x[support] = w
        f = float(x @ x)
        assert f >= 1.0 / k - 1e-12, f"sample beat the cardinality bound: {f} < 1/{k}"
        worst_f = min(worst_f, f)
        if k < n:
            g = simplex_gap(x, 2.0 * x)
            assert g >= 2.0 / k - 1e-12, f"gap below 2/k: {g}"
            worst_gap = min(worst_gap, g)
    return {"n": n, "k": k, "f_uniform": f_uni, "min_sample_f": worst_f,
            "min_sample_gap": worst_gap, "samples": samples}


def l1_lowerbound_suite(n, k, seed=0, samples=200) -> dict:
    """Mirrored-instance lower bound on the l1-ball: f(x) = ||x - r||^2 with
    r = (2/n, ..., 2/n).

    On the positive facet (the simplex) f coincides with ||x||^2, so primal
    error >= 1/k - 1/n there.  Over the whole ball the cardinality-k minimum
    is 4(n-k)/n^2 for k <= n/2 (per-support closed form), which still forces
    support Omega(1/eps) when n is chosen ~ 1/eps.  f* = 1/n at x = (1/n,...).
    """
    assert 1 <= k <= n // 2, "closed form needs k <= n/2"
    r = np.full(n, 2.0 / n)
    f_star = 1.0 / n
    card_min = 4.0 * (n - k) / n ** 2

    def f(x):
        return float((x - r) @ (x - r))

    # the per-support optimum: x_i = 2/n on any size-k support (feasible since 2k/n <= 1)
    x_opt = np.zeros(n)
    x_opt[:k] = 2.0 / n
    assert abs(f(x_opt) - card_min) <= 1e-12

    rng = make_rng(seed)
    for _ in range(samples):
        support = rng.choice(n, size=k, replace=False)
        # random feasible sparse point in the ball
        mass = rng.uniform(0, 1)
        w = rng.dirichlet(np.ones(k)) * mass * rng.choice([-1.0, 1.0], size=k)
        x = np.zeros(n)
        x[support] = w
        assert f(x) - f_star >= card_min - f_star - 1e-12
        # facet-restricted sample: error >= 1/k - 1/n (simplex argument verbatim)
        xf = np.zeros(n)
        xf[support] = rng.dirichlet(np.ones(k))
        assert f(xf) - f_star >= 1.0 / k - 1.0 / n - 1e-12
    return {"n": n, "k": k, "f_star": f_star, "card_min": card_min}
