"""Vector domains: unit simplex, l1-ball of radius t, unit sup-norm cube.

Each domain exposes the linear minimization oracle (always exact here), a
membership test and a deterministic start atom; the solver reads the duality
gap off the oracle's atom.  The closed-form gap formulas are free functions
(simplex_gap, l1_gap, cube_gap) for the tests and the lower-bound suites.
Tie-breaks are lowest-index; sign(0) := +1.
Simplex and l1-ball vertices, and the origin, are CoordinateAtoms (index and
value); cube vertices are dense sign vectors.  For f = ||x - r||^2 on the
simplex, fw_run keeps x on its support from its first row on (SupportLedger)
and builds the dense x when it is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from ..core import Atom, CoordinateAtom, FactoredLedger, LmoResult, ObjectiveOracle, make_rng


def _sign_pos(v):
    """Elementwise sign with sign(0) := +1."""
    return np.where(np.asarray(v) >= 0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# oracles as free functions (domain objects below delegate to these)

def _check_finite(c):
    if not np.all(np.isfinite(c)):
        raise ValueError("non-finite linearization")


def simplex_lmo(c) -> CoordinateAtom:
    """Best simplex vertex for the linearization c (an array or a
    SupportGradient): e_i at i = argmin c_i."""
    if isinstance(c, SupportGradient):
        i, n = c.argmin(), c.n
    else:
        c = np.asarray(c, dtype=float)
        _check_finite(c)
        i, n = int(np.argmin(c)), c.shape[0]  # np.argmin takes the lowest-index minimum
    return CoordinateAtom(n, i, 1.0, f"e{i}")


def simplex_gap(x, grad) -> float:
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return float(x @ grad - grad.min())


def l1_lmo(c, t=1.0) -> CoordinateAtom:
    """Signed scaled basis vector: i = argmax |c_i|, sign(-c_i), radius t."""
    c = np.asarray(c, dtype=float)
    _check_finite(c)
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
    _check_finite(c)
    point = _sign_pos(-c)
    # bit i of the label is set where s_i = +1, packed in linear time
    mask = int.from_bytes(np.packbits(point > 0, bitorder="little").tobytes(), "little")
    return Atom(point=point, label="c%x" % mask)


def cube_gap(x, grad) -> float:
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return float(np.abs(grad).sum() + x @ grad)


# ---------------------------------------------------------------------------
# the simplex iterate on its support

class SupportGradient:
    """The gradient 2(x - r) of a SupportLedger's x, without its n entries:
    values[j] = 2(x_i - r_i) for i = index[j] on the support, and off it,
    where x_i = 0, off = (2(0 - r_i), i) for the smallest entry (largest
    r_i, lowest i on ties), or None when every coordinate is on the support.
    Each entry has the bits of the dense gradient's."""

    __slots__ = ("n", "index", "values", "off")

    def __init__(self, n: int, index: np.ndarray, values: np.ndarray, off: Optional[tuple]):
        self.n, self.index, self.values, self.off = n, index, values, off

    def argmin(self) -> int:
        """np.argmin of the dense gradient: its smallest entry, lowest index
        on ties.  Raises ValueError on a non-finite entry."""
        g = self.values
        p = int(g.argmin())
        gi = g[p]
        if not (math.isfinite(gi) and math.isfinite(g.max())):
            raise ValueError("non-finite linearization")
        i = int(self.index[p])
        if np.count_nonzero(g == gi) > 1:  # slots are not in index order
            i = int(self.index[g == gi].min())
        if self.off is not None and self.off < (gi, i):
            return self.off[1]
        return i


class SupportLedger(FactoredLedger):
    """The ledger of a simplex run on f(x) = ||x - r||^2 (r None for 0),
    which is also its iterate x, kept on its support S: the coordinates a
    step has moved toward.  Off S, x is 0.

    Per coordinate of S it keeps the index, x_i and r_i.  Steps give x_i
    the dense iterate's bits (x - alpha x off the atom's index), and
    f = sum_S (x_i - r_i)^2 + sum_{i not in S} r_i^2, the gradient,
    the gap and the line search cost O(|S|).  The gradient's smallest entry
    off S sits at the largest r_i there: r's maxima over blocks of about
    sqrt(n) coordinates off S, each recomputed when its holder enters S,
    find it without a pass over r or a sorted copy of it.
    """

    def __init__(self, ledger, r: Optional[np.ndarray], n: int):
        super().__init__(ledger.atoms, ledger.weights)
        self.n, self._r = n, r
        self._r_sq = 0.0 if r is None else float(np.dot(r, r))
        if not math.isfinite(self._r_sq):  # max() and the comparisons below drop a NaN r_i
            raise FloatingPointError(f"non-finite target: ||r||^2 is {self._r_sq!r}")
        self._idx, self._x, self._rs = np.empty(8, np.intp), np.empty(8), np.empty(8)
        self._pos, self._m, self._g = {}, 0, None  # index -> slot in S, |S|, gradient on S
        self._block = math.isqrt(n)
        self._members = {}  # block -> offsets of its coordinates in S
        # fw_run's start ledger: x = e0, its one atom at weight 1
        for a, w in zip(ledger.atoms, ledger.weights):
            self._append(a.index, w)
        nb = -(-n // self._block)
        self._bval, self._bidx = np.empty(nb), np.empty(nb, np.intp)
        for b in range(nb):
            self._refresh(b)
        self._pick_off()

    def _append(self, i: int, xi: float):
        m = self._m
        if m == self._idx.shape[0]:
            self._idx, self._x, self._rs = (np.concatenate([a, np.empty_like(a)])
                                            for a in (self._idx, self._x, self._rs))
        self._idx[m], self._x[m] = i, xi
        self._rs[m] = 0.0 if self._r is None else self._r[i]
        self._pos[i], self._m = m, m + 1
        rs = self._rs[:m + 1]
        self._rest = max(0.0, self._r_sq - float(np.dot(rs, rs)))  # sum of r_i^2 off S
        b = i // self._block
        self._members.setdefault(b, []).append(i - b * self._block)

    def _refresh(self, b: int):
        """The largest r_i off S in block b, lowest i on ties (-inf if none)."""
        lo = b * self._block
        hi = min(lo + self._block, self.n)
        vals = np.zeros(hi - lo) if self._r is None else self._r[lo:hi].copy()
        for j in self._members.get(b, ()):
            vals[j] = -np.inf
        j = int(vals.argmax())
        self._bval[b], self._bidx[b] = vals[j], lo + j

    def _pick_off(self):
        b = int(self._bval.argmax())  # the first block wins ties
        r_i = self._bval[b]
        self._off = None if r_i == -np.inf else (2.0 * (0.0 - r_i), int(self._bidx[b]))

    def step(self, atom, alpha: float):
        super().step(atom, alpha)
        self._g = None
        i, p = atom.index, self._pos.get(atom.index)
        x = self._x[:self._m]
        xi = 0.0 if p is None else x[p]
        x -= alpha * x
        xi = xi + alpha * (atom.value - xi)
        if p is not None:
            x[p] = xi
            return
        self._append(i, xi)
        if self._bidx[i // self._block] == i:
            self._refresh(i // self._block)
            self._pick_off()

    def value_and_grad(self) -> tuple:
        m = self._m
        d = self._x[:m] - self._rs[:m]
        f = float(np.dot(d, d)) + self._rest
        d *= 2.0
        self._g = d  # kept for atom_terms until the next step
        return f, SupportGradient(self.n, self._idx[:m], d, self._off)

    def atom_terms(self, atom) -> tuple:
        """(<x - s, grad f(x)>, ||s - x||^2) for the atom s = value * e_index."""
        if self._g is None:
            self.value_and_grad()
        x, g = self._x[:self._m], self._g
        p = self._pos.get(atom.index)
        if p is None:
            xi, gi = 0.0, 2.0 * (0.0 - (0.0 if self._r is None else self._r[atom.index]))
        else:
            xi, gi = x[p], g[p]
        v = atom.value
        return (float(np.dot(x, g) - v * gi),
                float(v * v - 2.0 * v * xi + np.dot(x, x)))

    def point_builder(self, final: bool = False):
        """A callable that builds today's dense x: S's entries scattered into zeros."""
        n, idx, vals = self.n, self._idx[:self._m].copy(), self._x[:self._m].copy()

        def build():
            p = np.zeros(n)
            p[idx] = vals
            return p
        return build


# ---------------------------------------------------------------------------
# domain objects

def _check_size(n, t=1.0):
    """Domain constructor validation: an integer dimension n >= 1 (not a bool)
    that numpy can index and a radius t > 0 whose squared diameter (at most
    (2t)^2) is finite."""
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not 1 <= n <= np.iinfo(np.intp).max):
        raise ValueError(f"domain dimension n must be >= 1, be an integer and fit an array "
                         f"index, got {n!r}")
    if not t > 0:  # NaN too
        raise ValueError(f"domain radius t must be positive, got {t!r}")
    if not 4.0 * t * t < np.inf:
        raise ValueError(f"domain radius t is too large for a finite diameter, got {t!r}")


class SimplexDomain:
    """Unit simplex: x >= 0, sum(x) = 1."""

    def __init__(self, n):
        _check_size(n)
        self.n = n
        self.diam_sq = 2.0 if n >= 2 else 0.0

    def lmo(self, grad, eps=0.0, rng=None) -> LmoResult:
        return LmoResult(simplex_lmo(grad))

    def start_atom(self) -> CoordinateAtom:
        return CoordinateAtom(self.n, 0, 1.0, "e0")

    def factored_ledger(self, objective: ObjectiveOracle, ledger,
                        exact_lmo: bool) -> Optional[SupportLedger]:
        """fw_run's iterate on its support for f = ||x - r||^2 with a
        length-n (or zero) r, else None.  The oracle reads the support
        gradient at any eps, so exact_lmo does not matter here."""
        r = objective.target
        zero = r is not None and np.ndim(r) == 0 and r == 0
        if not (zero or np.shape(r) == (self.n,)):
            return None
        return SupportLedger(ledger, None if zero else np.asarray(r, dtype=float), self.n)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(x.min() >= -1e-12 and abs(x.sum() - 1.0) <= 1e-12 * max(1.0, self.n))


class L1BallDomain:
    """l1-ball of radius t: ||x||_1 <= t; vertices are +-t*e_i, start is 0."""

    def __init__(self, n, t=1.0):
        _check_size(n, t)
        self.n = n
        self.t = float(t)
        self.diam_sq = 4.0 * self.t ** 2

    def lmo(self, grad, eps=0.0, rng=None) -> LmoResult:
        return LmoResult(l1_lmo(grad, self.t))

    def start_atom(self) -> CoordinateAtom:
        return CoordinateAtom(self.n, 0, 0.0, "0")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.abs(x).sum() <= self.t * (1.0 + 1e-12))


class CubeDomain:
    """Unit sup-norm cube: ||x||_inf <= 1; vertices are sign vectors, start 0."""

    def __init__(self, n):
        _check_size(n)
        self.n = n
        self.diam_sq = 4.0 * n

    def lmo(self, grad, eps=0.0, rng=None) -> LmoResult:
        return LmoResult(cube_lmo(grad))

    def start_atom(self) -> CoordinateAtom:
        return CoordinateAtom(self.n, 0, 0.0, "0")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.abs(x).max() <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# lower-bound test suites (sparsity vs approximation quality)

def uniform_k_vector(n, k):
    """k coordinates set to 1/k: attains the cardinality-k minimum of ||x||^2."""
    if not 1 <= k <= n:
        raise ValueError(f"uniform k-vector needs 1 <= k <= n, got k={k!r}, n={n!r}")
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
    if not 1 <= k <= n:
        raise ValueError(f"sparsity suite needs 1 <= k <= n, got k={k!r}, n={n!r}")
    exact = sum(Fraction(1, k) ** 2 for _ in range(k))
    if exact != Fraction(1, k):
        raise AssertionError("uniform-k construction must attain 1/k")
    x_uni = uniform_k_vector(n, k)
    f_uni = float(x_uni @ x_uni)
    if not abs(f_uni - 1.0 / k) <= 4e-16 * max(1, k):
        raise AssertionError(f"uniform-k value {f_uni} is not 1/{k} in floats")

    rng = make_rng(seed)
    worst_f, worst_gap = np.inf, np.inf
    for _ in range(samples):
        support = rng.choice(n, size=k, replace=False)
        w = rng.dirichlet(np.ones(k))
        x = np.zeros(n)
        x[support] = w
        f = float(x @ x)
        if not f >= 1.0 / k - 1e-12:
            raise AssertionError(f"sample beat the cardinality bound: {f} < 1/{k}")
        worst_f = min(worst_f, f)
        if k < n:
            g = simplex_gap(x, 2.0 * x)
            if not g >= 2.0 / k - 1e-12:
                raise AssertionError(f"gap below 2/k: {g}")
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
    if not 1 <= k <= n // 2:
        raise ValueError(f"closed form needs 1 <= k <= n/2, got k={k!r}, n={n!r}")
    r = np.full(n, 2.0 / n)
    f_star = 1.0 / n
    card_min = 4.0 * (n - k) / n ** 2

    def f(x):
        return float((x - r) @ (x - r))

    # the per-support optimum: x_i = 2/n on any size-k support (feasible since 2k/n <= 1)
    x_opt = np.zeros(n)
    x_opt[:k] = 2.0 / n
    if not abs(f(x_opt) - card_min) <= 1e-12:
        raise AssertionError(f"per-support optimum {f(x_opt)} is not {card_min}")

    rng = make_rng(seed)
    for _ in range(samples):
        support = rng.choice(n, size=k, replace=False)
        # random feasible sparse point in the ball
        mass = rng.uniform(0, 1)
        w = rng.dirichlet(np.ones(k)) * mass * rng.choice([-1.0, 1.0], size=k)
        x = np.zeros(n)
        x[support] = w
        if not f(x) - f_star >= card_min - f_star - 1e-12:
            raise AssertionError(f"sample beat the cardinality-k minimum: {f(x)} < {card_min}")
        # facet-restricted sample: error >= 1/k - 1/n (simplex argument verbatim)
        xf = np.zeros(n)
        xf[support] = rng.dirichlet(np.ones(k))
        if not f(xf) - f_star >= 1.0 / k - 1.0 / n - 1e-12:
            raise AssertionError(f"facet sample error {f(xf) - f_star} below 1/k - 1/n")
    return {"n": n, "k": k, "f_star": f_star, "card_min": card_min}
