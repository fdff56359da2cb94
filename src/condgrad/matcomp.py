"""Matrix completion over a nuclear-norm ball, solved in the PSD embedding.

The rectangular unknown Z (m users x n items) is the off-diagonal block of a
symmetric (m+n) matrix on the trace-t spectahedron, so ||Z||_nuc <= t/2.
complete is fw_run over one object that is both its domain (Lanczos
eigensolves) and its iterate, kept factored: a list of (weight, unit vector)
rank-1 atoms plus a PredictionStore holding X_ij only at observed and test
positions, so memory and per-step cost are O(|entries| + (m+n) * rank).

Gradient of the embedded loss f(Z) = 1/2 sum_{ij in Omega} (Z_ij - y_ij)^2 is
(1/2) [[0, G], [G^T, 0]] with G the sparse residual (see transforms for the
1/2 convention); its spectrum is symmetric (+-lambda pairs via (v; w) ->
(v; -w)), and its bottom eigenvalue is -(1/2) sigma_max(G).  Each eigensolve
is Lanczos from (1_m; 0), ones on the user block: from there the basis
alternates (x; 0), (0; y), ... exactly, so a step is one sparse pass of G or
G^T (Golub-Kahan bidiagonalization run through the symmetric loop), and only
the Rayleigh quotient of the Ritz vector pays for two.

The trace gap X.G - t*lambda reads the Rayleigh quotient lambda of the
certifying eigenvector, so it is never above the true duality gap and falls
short of it by t times the Lanczos error.  A fixed budget bounds that error
by nothing: the column is an estimate, and where a budget is too small for
the bottom eigenvector it can read far too low.  An eps stop therefore fires
only on a gap confirmed by an eps/(2t)-accurate solve from a random start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import solver
from .core import (LmoResult, RunTrace, StepSchedule, StopRule, WEIGHT_PRUNE_TOL, clamped_step,
                   make_rng)
from .domains.matrices import (FactoredPSD, RankOneAtom, _canonical_sign, _digest_label,
                               rank_one_atom)
from .eigen import SymmetricOperator, approx_smallest_ev
from .transforms import GRADIENT_BLOCK_SCALE, extract_factorization

RATING_SPAN = 4.0  # NMAE denominator: 5 - 1 for 1..5 star ratings


# ---------------------------------------------------------------------------
# data handling

def _first_duplicate(keys: np.ndarray) -> Optional[int]:
    """The smallest repeated key, or None, from one sort (a hash set is ~20x slower)."""
    keys = np.sort(keys)
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    return int(keys[dup[0]]) if len(dup) else None


@dataclass
class RatingDataset:
    """Observed ratings split into train and test triples (user, item, y)."""

    m: int
    n: int
    train_i: np.ndarray
    train_j: np.ndarray
    train_y: np.ndarray
    test_i: np.ndarray
    test_j: np.ndarray
    test_y: np.ndarray

    @staticmethod
    def from_triples(m, n, train, test=()):
        def cols(rows):
            if len(rows) == 0:
                return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                        np.zeros(0))
            a = np.asarray(rows)
            return (a[:, 0].astype(np.int64), a[:, 1].astype(np.int64),
                    a[:, 2].astype(float))

        ti, tj, ty = cols(train)
        si, sj, sy = cols(test)
        return RatingDataset(m, n, ti, tj, ty, si, sj, sy)

    def __post_init__(self):
        for i, j in ((self.train_i, self.train_j), (self.test_i, self.test_j)):
            if len(i):
                if not (i.min() >= 0 and i.max() < self.m):
                    raise ValueError("user index out of range")
                if not (j.min() >= 0 and j.max() < self.n):
                    raise ValueError("item index out of range")
            if _first_duplicate(i.astype(np.int64) * self.n + j) is not None:
                raise ValueError("duplicate (user,item) in split")

    @property
    def n_train(self):
        return len(self.train_y)

    @property
    def n_test(self):
        return len(self.test_y)


def load_movielens(path, fmt: str = "tab_100k") -> RatingDataset:
    """Read a ratings file into a dataset (everything lands in the train
    split; use split_train_test afterwards).

    tab_100k lines are `user<TAB>item<TAB>rating<TAB>timestamp`; dat_1m lines
    use `::` separators.  1-based sparse ids are remapped to dense 0-based.
    A (user, item) pair rated on two lines, or a rating that is not a finite
    number, is a data error (ValueError).
    """
    if fmt not in ("tab_100k", "dat_1m"):
        raise ValueError(f"unknown ratings format {fmt!r}")
    sep = "\t" if fmt == "tab_100k" else "::"
    users, items, ys = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                u, it, y = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            if not math.isfinite(y):
                raise ValueError(f"{path}:{lineno}: rating {parts[2]!r} is not a finite number")
            users.append(u)
            items.append(it)
            ys.append(y)
    if not users:
        raise ValueError(f"{path}: no ratings found")
    u_ids, i_ids = np.array(sorted(set(users))), np.array(sorted(set(items)))
    ti, tj = np.searchsorted(u_ids, users), np.searchsorted(i_ids, items)
    dup = _first_duplicate(ti * len(i_ids) + tj)
    if dup is not None:
        u, i = divmod(dup, len(i_ids))
        raise ValueError(f"{path}: user {u_ids[u]} rated item {i_ids[i]} "
                         "on more than one line")
    return RatingDataset(len(u_ids), len(i_ids), ti, tj, np.array(ys, dtype=float),
                         np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                         np.zeros(0))


def split_train_test(ds: RatingDataset, policy: str, rho: float = 0.5,
                     r: int = 1, seed=0) -> RatingDataset:
    """Disjoint train/test split of the train triples.

    random_fraction keeps a rho fraction (rounded) for training;
    per_user_holdout moves r random ratings of every user having more than r
    ratings into the test split.
    """
    rng = make_rng(seed)
    i, j, y = ds.train_i, ds.train_j, ds.train_y
    if policy == "random_fraction":
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"split fraction rho must lie in [0, 1], got {rho!r}")
        perm = rng.permutation(len(y))
        n_tr = int(round(rho * len(y)))
        tr, te = perm[:n_tr], perm[n_tr:]
    elif policy == "per_user_holdout":
        if r < 1:
            raise ValueError(f"per-user holdout needs r >= 1, got {r!r}")
        # stable, so each user's positions stay ascending: rng.choice's draws depend on order
        order = np.argsort(i, kind="stable")
        start = np.searchsorted(i[order], np.arange(ds.m + 1))
        te_mask = np.zeros(len(y), dtype=bool)
        for u in np.flatnonzero(np.diff(start) > r):
            te_mask[rng.choice(order[start[u]:start[u + 1]], size=r, replace=False)] = True
        tr, te = np.flatnonzero(~te_mask), np.flatnonzero(te_mask)
    else:
        raise ValueError(f"unknown split policy {policy!r}")
    return RatingDataset(ds.m, ds.n, i[tr], j[tr], y[tr], i[te], j[te], y[te])


@dataclass
class MeanDenormalizer:
    """Adds back the (mu_user + mu_item)/2 baseline removed by normalize_means."""

    mu_user: np.ndarray
    mu_item: np.ndarray
    global_mean: float

    def baseline(self, i, j):
        return 0.5 * (self.mu_user[i] + self.mu_item[j])

    def __call__(self, i, j, value):
        return value + self.baseline(i, j)


def normalize_means(ds: RatingDataset):
    """Subtract the simple average (mu_user + mu_item)/2 from every rating,
    with means computed on the train split only; users/items unseen in train
    fall back to the global train mean.  Returns (residual dataset,
    denormalizer)."""
    g = float(ds.train_y.mean()) if ds.n_train else 0.0

    def means(idx, size):  # g where an index has no train rating
        cnt = np.bincount(idx, minlength=size)
        total = np.bincount(idx, weights=ds.train_y, minlength=size)
        return np.divide(total, cnt, out=np.full(size, g), where=cnt > 0)

    den = MeanDenormalizer(means(ds.train_i, ds.m), means(ds.train_j, ds.n), g)
    out = RatingDataset(
        ds.m, ds.n,
        ds.train_i, ds.train_j, ds.train_y - den.baseline(ds.train_i, ds.train_j),
        ds.test_i, ds.test_j,
        ds.test_y - den.baseline(ds.test_i, ds.test_j) if ds.n_test else ds.test_y,
    )
    return out, den


# ---------------------------------------------------------------------------
# factored state

class PredictionStore:
    """Current predictions X_ij at observed-and-test positions only, train
    positions first, each split in the dataset's order.

    A rank-1 step with weight alpha and embedded unit vector v updates every
    stored entry as X_ij <- (1-alpha) X_ij + alpha * t * v_i * v_{m+j}.
    """

    def __init__(self, ds: RatingDataset):
        self.m, self.n = ds.m, ds.n
        self._positions = ((ds.train_i, ds.train_j), (ds.test_i, ds.test_j))  # not copied
        self.n_train = ds.n_train
        self.x = np.zeros(ds.n_train + ds.n_test)
        self._atom = None  # (v, t, values) of the last atom_values call

    def _gather(self, v: np.ndarray, scale: float) -> np.ndarray:
        """(scale * v_i) * v_{m+j} at every stored position, written split by
        split into one new array."""
        out = np.empty(len(self.x))
        vu, vw = v[:self.m], v[self.m:]
        for (i, j), part in zip(self._positions, (out[:self.n_train], out[self.n_train:])):
            np.multiply(scale, vu[i], out=part)
            part *= vw[j]
        return out

    def atom_values(self, v: np.ndarray, t: float) -> np.ndarray:
        """The atom t v v^T at every stored position, t * v_i * v_{m+j}.  The
        result is kept until update, keyed on v's identity and t, so a step's
        line search and update gather it once; v must not change in place."""
        if self._atom is None or self._atom[0] is not v or self._atom[1] != t:
            self._atom = (v, t, self._gather(v, t))
        return self._atom[2]

    def update(self, alpha: float, v: np.ndarray, t: float):
        if not (0.0 <= alpha <= 1.0 and len(v) == self.m + self.n):  # NaN too
            raise ValueError(f"update needs alpha in [0, 1] and an m+n = {self.m + self.n} "
                             f"vector, got {alpha!r} and length {len(v)}")
        s, self._atom = self.atom_values(v, t), None  # no array kept between steps
        self.x *= (1.0 - alpha)
        self.x += alpha * s

    @property
    def train_values(self):
        return self.x[:self.n_train]

    @property
    def test_values(self):
        return self.x[self.n_train:]

    def recompute(self, factored: FactoredPSD) -> np.ndarray:
        """Reference values from the factors (for the sync invariant)."""
        out = np.zeros(len(self.x))
        for w, v in zip(factored.weights, factored.vectors):
            out += self._gather(v, w * factored.scale)
        return out


def residual_operator(ds: RatingDataset, resid: np.ndarray) -> SymmetricOperator:
    """The embedded gradient as a matvec: (1/2)[[0, G],[G^T, 0]] with
    G_ij = resid at train positions; Frobenius norm ||resid||/sqrt(2).

    Each block of the product is one sparse pass over the train entries, of G
    for the user block and of G^T for the item block; a pass whose input
    block is exactly zero is skipped and its output block is exactly zero,
    the bits the pass would give."""
    m, n = ds.m, ds.n
    i, j = ds.train_i, ds.train_j

    def mv(u):
        out = np.zeros(m + n)
        if u[m:].any():
            out[:m] = GRADIENT_BLOCK_SCALE * np.bincount(i, weights=resid * u[m:][j], minlength=m)
        if u[:m].any():
            out[m:] = GRADIENT_BLOCK_SCALE * np.bincount(j, weights=resid * u[:m][i], minlength=n)
        return out

    return SymmetricOperator(dim=m + n, matvec=mv,
                             fro_norm=float(np.linalg.norm(resid)) * math.sqrt(0.5))


def closed_form_alpha(store: PredictionStore, ratings: np.ndarray,
                      v: np.ndarray, t: float) -> float:
    """Exact line-search step for the squared loss:
    alpha = sum (X-y)(X-s) / sum (X-s)^2 over train entries, clamped to
    [0,1], where s_ij = t v_i v_{m+j} is the new atom's prediction; a zero
    denominator means s = x along the observed entries, so step 0."""
    X = store.train_values
    d = X - store.atom_values(v, t)[:store.n_train]
    return clamped_step(float((X - ratings) @ d), float(d @ d))


def metrics(predictions, ratings):
    """(RMSE, NMAE): root mean squared error and mean absolute error scaled
    by the 1..5 rating span (5-1)."""
    predictions = np.asarray(predictions, dtype=float)
    ratings = np.asarray(ratings, dtype=float)
    if predictions.shape != ratings.shape:
        raise ValueError(f"{predictions.shape} predictions for {ratings.shape} ratings")
    if len(ratings) == 0:
        return float("nan"), float("nan")
    err = predictions - ratings
    rmse = float(np.sqrt(np.mean(err ** 2)))
    nmae = float(np.mean(np.abs(err)) / RATING_SPAN)
    return rmse, nmae


def default_power_budget(k: int) -> int:
    """ceil(0.2 k) + 3 Lanczos steps at step k, each one sparse pass of G or
    G^T, plus one two-pass matvec for the Rayleigh quotient; the count was
    set for that many power iterations.  The floor keeps the very first
    steps from running on one or two."""
    return int(math.ceil(0.2 * k)) + 3


class _CompletionIterate:
    """complete's domain and iterate for fw_run, one object because the gap
    X.G - t*lambda reads the eigensolve.  factored_ledger returns it."""

    def __init__(self, ds: RatingDataset, t: float, eps: Optional[float], budget):
        self.ds, self.t, self.eps, self.budget = ds, t, eps, budget
        self.store, self.y, self.k = PredictionStore(ds), ds.train_y, 0
        self.start = np.concatenate([np.ones(ds.m), np.zeros(ds.n)])
        self.low_ray = None  # lambda of the last certifying solve

    def start_atom(self) -> RankOneAtom:  # e_1 e_1^T: every prediction is 0
        return rank_one_atom(np.eye(1, self.ds.m + self.ds.n)[0], self.t)

    def factored_ledger(self, objective, ledger, exact_lmo: bool):
        self.weights, self.vectors = ledger.weights.tolist(), [a.vector for a in ledger.atoms]
        return self

    def lmo(self, grad: SymmetricOperator, eps: float, rng) -> LmoResult:
        """budget(k) Lanczos steps from (1_m; 0) on grad give the step atom,
        which certifies the gap.  Where that gap reads <= self.eps, an
        eps/(2t)-accurate solve from a random start confirms it: the lower
        Rayleigh quotient and its vector are kept, and both solves' matvecs
        are counted."""
        k, self.k = self.k, self.k + 1
        low = approx_smallest_ev(grad, 0.0, iterations=self.budget(k), start=self.start)
        self.low_ray = low.rayleigh
        if self.eps is not None and self.gap(None) <= self.eps:
            conf = approx_smallest_ev(grad, self.eps / (2.0 * self.t), rng=rng)
            low = min(low, conf, key=lambda r: r.rayleigh)._replace(
                matvecs=low.matvecs + conf.matvecs)
            self.low_ray = low.rayleigh
        v = _canonical_sign(low.vector)
        return LmoResult(RankOneAtom(v, self.t, _digest_label("v", v)), low.matvecs)

    def value_and_grad(self) -> tuple:
        self.resid = self.store.train_values - self.y
        return 0.5 * float(self.resid @ self.resid), residual_operator(self.ds, self.resid)

    def gap(self, atom) -> float:  # lambda of lmo's certifying solve; atom is not read
        return float(self.store.train_values @ self.resid) - self.t * self.low_ray

    def line_search(self, atom: RankOneAtom, a_fix: float) -> float:
        # the closed form is the exact minimum on [0, 1]; a_fix cannot beat it
        return closed_form_alpha(self.store, self.y, atom.vector, self.t)

    def step(self, atom: RankOneAtom, alpha: float):
        self.store.update(alpha, atom.vector, self.t)
        weights = [w * (1.0 - alpha) for w in self.weights] + [alpha]
        vectors = self.vectors + [atom.vector]
        keep = [idx for idx, w in enumerate(weights) if w >= WEIGHT_PRUNE_TOL]
        self.weights, self.vectors = [weights[i] for i in keep], [vectors[i] for i in keep]

    def factored(self) -> FactoredPSD:
        return FactoredPSD(len(self.vectors[0]), float(self.t), self.weights, self.vectors)

    def point_builder(self):
        return lambda: self.factored().dense()


@dataclass
class CompletionResult:
    L: np.ndarray
    R: np.ndarray
    factored: FactoredPSD
    store: PredictionStore
    trace: RunTrace
    history: list
    final: dict
    matvecs: int
    stopped_on: str  # max_iters | gap, from fw_run
    denormalizer: Optional[MeanDenormalizer] = None


def complete(ds: RatingDataset, t: float, steps: Optional[int] = None,
             eps: Optional[float] = None, line_search: bool = True,
             normalize: bool = False,
             seed=0, power_budget: Optional[Callable[[int], int]] = None
             ) -> CompletionResult:
    """Greedy rank-1 completion: fw_run until `steps` steps or a gap estimate
    <= eps, with closed-form line search or harmonic steps, power_budget(k)
    Lanczos steps per eigensolve (default ceil(0.2k)+3, each one sparse pass
    over the train entries), and per row the RMSE and NMAE on both splits in
    original rating units (history).  A gap estimate <= eps is confirmed by
    an eps/(2t)-accurate eigensolve from a random start drawn from seed's
    stream, and the run stops only on the confirmed gap; that solve's
    matvecs are counted.  The gap estimate is uncertified (see the module
    docstring), so an eps stop is not a certificate."""
    if steps is None and eps is None:
        raise ValueError("complete needs steps or eps")
    if not t > 0:
        raise ValueError(f"trace bound t must be positive, got {t!r}")
    if steps is not None and steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps!r}")
    if eps is not None and not eps > 0:  # NaN too; the gap test would never fire
        raise ValueError(f"eps must be positive, got {eps!r}")
    raw, denorm = ds, None
    if normalize:
        ds, denorm = normalize_means(ds)
    x = _CompletionIterate(ds, t, eps, power_budget or default_power_budget)
    store, history = x.store, []

    def on_iterate(k, _x, fx, _gap):
        pt, ps = store.train_values, store.test_values
        if denorm is not None:
            pt = denorm(ds.train_i, ds.train_j, pt)
            ps = denorm(ds.test_i, ds.test_j, ps)
        rmse_tr, nmae_tr = metrics(pt, raw.train_y)
        rmse_te, nmae_te = metrics(ps, raw.test_y)
        history.append({"k": k, "f": fx, "rmse_train": rmse_tr, "nmae_train": nmae_tr,
                        "rmse_test": rmse_te, "nmae_test": nmae_te})

    schedule = StepSchedule.line_search() if line_search else StepSchedule.harmonic()
    run = solver.fw_run(None, x, StopRule(max_iters=steps, target_gap=eps), schedule,
                        seed=seed, on_iterate=on_iterate)
    factored = x.factored()
    L, R = extract_factorization(factored, ds.m, ds.n)
    final = {**history[-1], "gap_estimate": run.trace.final().gap, "matvecs": run.matvecs}
    return CompletionResult(L=L, R=R, factored=factored, store=store, trace=run.trace,
                            history=history, final=final, matvecs=run.matvecs,
                            stopped_on=run.stopped_on, denormalizer=denorm)
