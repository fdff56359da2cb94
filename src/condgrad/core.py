"""Shared types for the greedy (projection-free) solvers.

Iterates live in a real inner-product space: 1-d arrays for vector domains,
symmetric 2-d arrays (or their factors) for matrix domains.  The inner
product is always the full Euclidean/Frobenius one, np.vdot.  Atoms keep
their compact form (a coordinate and a value, a unit vector and a scale)
where they have one and take inner products with a gradient; the ledger holds
atoms, not dense points, so its memory grows with the support, not with
iterations times dimension.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

WEIGHT_PRUNE_TOL = 1e-15

TRACE_HEADER = "k,f,gap,alpha,atom,matvecs,millis"


def clamped_step(num: float, den: float) -> float:
    """num / den clamped to [0, 1], the minimizer over [0, 1] of a 1-d
    quadratic with slope -num at 0 and curvature den; 0 unless den > 0."""
    return float(min(1.0, max(0.0, num / den))) if den > 0.0 else 0.0


@dataclass
class ObjectiveOracle:
    """Convex objective exposed through value and gradient callables.

    curvature_bound is an upper bound on the curvature constant over the
    intended domain (needed for approximate linear oracles and for gap
    certification schedules).  alpha_hook, when present, returns the exact
    line-search step for a segment [x, s] in closed form.  target, if set,
    means f(x) = ||x - target||^2; clear it when replacing eval or grad.
    """

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    curvature_bound: Optional[float] = None
    name: str = "f"
    alpha_hook: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    target: Optional[np.ndarray] = None


class LazyPoint:
    """A result's dense point: an array, or a callable that builds it when read."""

    key = "_point"

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.key)  # the dataclass field has no default
        if callable(obj.__dict__[self.key]):
            obj.__dict__[self.key] = obj.__dict__[self.key]()
        return obj.__dict__[self.key]

    def __set__(self, obj, value):
        obj.__dict__[self.key] = value


class DenseApply:
    """inner through the dense point, so the gap is bit-for-bit <s, grad>."""

    __slots__ = ()

    def inner(self, grad) -> float:
        return float(np.vdot(self.point, grad))


@dataclass(frozen=True)
class Atom(DenseApply):
    """Extreme point of a domain kept as a dense array, with a compact label.

    label identifies the atom for ledger merging and trace output; two atoms
    with equal labels must be the same point.  vector is the low-rank factor,
    None here.  Atoms with a compact form (CoordinateAtom here, RankOneAtom
    for the spectahedron) offer the same interface: label, point (built on
    demand and never cached), vector, dense() and inner(grad).
    """

    point: np.ndarray
    label: str
    vector = None  # not a field

    def dense(self) -> np.ndarray:
        """A float copy of the point that the caller may overwrite."""
        return np.array(self.point, dtype=float)


class CoordinateAtom:
    """value * e_index in R^n: simplex and l1-ball vertices, and the origin
    (value 0).  inner is one product, with the bits of the dense one."""

    __slots__ = ("n", "index", "value", "label")
    vector = None

    def __init__(self, n: int, index: int, value: float, label: str):
        self.n, self.index, self.value, self.label = n, index, value, label

    @property
    def point(self) -> np.ndarray:
        p = np.zeros(self.n)
        p[self.index] = self.value
        return p

    def dense(self) -> np.ndarray:
        return self.point

    def inner(self, grad) -> float:
        return float(self.value * grad[self.index])


class LmoResult(NamedTuple):
    """An oracle's answer for one gradient.

    atom is the step atom.  slack bounds how far <atom, grad> may lie above
    the true minimum over the domain.  cert, when set, is the result that
    certifies the duality gap because the step atom does not (one solved
    on a modified gradient); the gap is then read off cert.atom and
    cert.slack.  matvecs counts the step's solve only; fw_run adds
    cert.matvecs.
    """

    atom: Atom
    matvecs: int = 0
    slack: float = 0.0
    cert: Optional["LmoResult"] = None


class IterateLedger:
    """Convex-combination bookkeeping for the current iterate.

    atoms[j] carries weights[j].  Invariants: weights nonnegative, sum to 1
    (within float error); atoms are unique by label; entries with weight
    below WEIGHT_PRUNE_TOL are dropped.  A label -> slot dict finds repeated
    atoms, and the weights live in a float64 array that each step scales in
    place (the same bits as scaling each weight as a Python float).
    """

    def __init__(self, atoms=(), weights=()):
        self._load(atoms, weights)

    def _load(self, atoms, weights):
        self.atoms = list(atoms)
        self._w = np.array(weights, dtype=float)  # capacity >= len(atoms)
        if self._w.shape != (len(self.atoms),):
            raise ValueError("ledger needs one weight per atom")
        self._slot = {a.label: j for j, a in enumerate(self.atoms)}

    @property
    def weights(self) -> np.ndarray:
        return self._w[:len(self.atoms)]

    def seed(self, atom):
        self._load([atom], [1.0])

    def step(self, atom, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"step size must lie in [0, 1], got {alpha!r}")
        w = self.weights
        w *= 1.0 - alpha
        j = self._slot.get(atom.label)
        if j is not None:
            w[j] += alpha
        else:
            j = len(self.atoms)
            if j == self._w.shape[0]:
                self._w = np.concatenate([w, np.empty(max(j, 8))])
            self._w[j] = alpha
            self._slot[atom.label] = j
            self.atoms.append(atom)
        keep = self.weights >= WEIGHT_PRUNE_TOL
        if not keep.all():
            self._load([a for a, k in zip(self.atoms, keep) if k], self.weights[keep])

    def reconstruct(self) -> np.ndarray:
        if not self.atoms:
            raise ValueError("empty ledger")
        out = np.zeros_like(self.atoms[0].point, dtype=float)
        for a, w in zip(self.atoms, self.weights):
            out += w * a.point
        return out

    def support_size(self) -> int:
        return len(self.atoms)

    def weight_sum(self) -> float:
        # left to right in Python floats: np.sum's pairwise order changes bits
        return float(sum(self.weights.tolist()))


class FactoredLedger(IterateLedger):
    """A ledger that is also fw_run's iterate x for f(x) = ||x - r||^2, kept
    in a compact form.  Subclasses give value_and_grad() -> (f, gradient),
    atom_terms(atom) -> (<x - s, grad f(x)>, ||s - x||^2) and
    point_builder(final=False) (a callable that builds the dense x of now,
    final when x steps no more); the gap and line search follow in closed form."""

    def gap(self, atom) -> float:
        return self.atom_terms(atom)[0]

    def line_search(self, atom, a_fix: float) -> float:
        """argmin of the quadratic f(x + a (s - x)) on [0, 1], unless a_fix is lower."""
        g, dd = self.atom_terms(atom)
        alpha = clamped_step(g, 2.0 * dd)
        phi = lambda a: a * (a * dd - g)  # phi(a) - f(x)
        return a_fix if phi(a_fix) < phi(alpha) else alpha


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule: harmonic 2/(k+2), line search, or two-phase.

    two_phase(K) runs harmonic steps for k < K and the fixed alpha = 2/(K+2)
    afterwards (the schedule of the gap-certified run).
    """

    kind: str = "harmonic"  # harmonic | line_search | two_phase
    fix_after: Optional[int] = None

    @staticmethod
    def harmonic() -> "StepSchedule":
        return StepSchedule("harmonic")

    @staticmethod
    def line_search() -> "StepSchedule":
        return StepSchedule("line_search")

    @staticmethod
    def two_phase(K: int) -> "StepSchedule":
        if not K >= 0:
            raise ValueError(f"two_phase needs K >= 0, got {K!r}")
        return StepSchedule("two_phase", fix_after=K)

    def alpha_at(self, k: int) -> float:
        """Scheduled step size at iteration k (line search consults this too,
        as the fallback the searched step must beat)."""
        if self.kind == "two_phase" and k >= self.fix_after:
            return 2.0 / (self.fix_after + 2.0)
        return 2.0 / (k + 2.0)


@dataclass
class StopRule:
    max_iters: Optional[int] = None
    target_gap: Optional[float] = None
    target_f: Optional[float] = None
    target_lower: Optional[float] = None  # stop once a row certifies f* >= f - gap > it

    def __post_init__(self):
        for name in ("target_gap", "target_f"):
            if getattr(self, name) is not None and math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        m = self.max_iters  # k >= nan is never true, so a NaN cap would never fire
        if m is not None and (isinstance(m, bool) or not isinstance(m, (int, np.integer))
                              or m < 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {m!r}")
        # target_f or target_lower alone never fires when f* lies above it
        if self.max_iters is None and self.target_gap is None:
            raise ValueError("StopRule needs max_iters or target_gap")
        if self.target_lower is not None and not self.target_lower < float("inf"):  # NaN too
            raise ValueError(f"target_lower must lie below inf, got {self.target_lower!r}")


class TraceRow(NamedTuple):
    k: int
    f: float
    gap: float
    alpha: float
    atom: str
    matvecs: int
    millis: int


@dataclass
class RunTrace:
    """Per-iterate history; serializes to CSV with a fixed header.

    gap holds the certified estimate (inner-oracle slack already added, so
    each row's gap upper-bounds the true duality gap and hence the primal
    error).  matvecs is cumulative.  millis is wall time since run start and
    is the one column excluded from byte-level determinism checks.
    """

    rows: list = field(default_factory=list)

    def append(self, k, f, gap, alpha, atom, matvecs, millis):
        if self.rows and not k > self.rows[-1].k:
            raise AssertionError("trace rows must be monotone in k")
        self.rows.append(TraceRow(int(k), float(f), float(gap), float(alpha),
                                  str(atom), int(matvecs), int(millis)))

    def __len__(self):
        return len(self.rows)

    def final(self) -> TraceRow:
        return self.rows[-1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(TRACE_HEADER + "\n")
        for r in self.rows:
            buf.write("%d,%r,%r,%r,%s,%d,%d\n"
                      % (r.k, r.f, r.gap, r.alpha, r.atom, r.matvecs, r.millis))
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    @staticmethod
    def from_csv(text: str) -> "RunTrace":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not (lines and lines[0] == TRACE_HEADER):
            raise ValueError("bad trace header")
        tr = RunTrace()
        for ln in lines[1:]:
            k, f, gap, alpha, atom, mv, ms = ln.split(",")
            tr.append(int(k), float(f), float(gap), float(alpha), atom, int(mv), int(ms))
        return tr


class RunClock:
    def __init__(self):
        self.t0 = time.perf_counter()

    def millis(self) -> int:
        return int(round((time.perf_counter() - self.t0) * 1000.0))


def make_rng(seed) -> np.random.Generator:
    """Counter-based splittable generator; all randomized paths go through
    this so a config seed pins every stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

