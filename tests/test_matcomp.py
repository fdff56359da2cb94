import math

import numpy as np
import pytest

from condgrad import ObjectiveOracle, dense_eig_oracle, line_search_alpha, make_rng
from condgrad.eigen import SymmetricOperator, approx_smallest_ev
from condgrad.matcomp import (
    PredictionStore,
    RatingDataset,
    _first_duplicate,
    closed_form_alpha,
    complete,
    default_power_budget,
    load_movielens,
    metrics,
    normalize_means,
    residual_operator,
    split_train_test,
)
from condgrad.transforms import GRADIENT_BLOCK_SCALE
from support import rect_squared_loss, squared_loss_objective
from test_golden_traces import _ratings


def small_ds(seed=0, m=5, n=4, frac=0.7, test_frac=0.2):
    rng = make_rng(seed)
    cells = [(i, j) for i in range(m) for j in range(n)]
    rng.shuffle(cells)
    k_tr = int(frac * len(cells))
    k_te = int(test_frac * len(cells))
    train = [(i, j, float(rng.uniform(1, 5))) for i, j in cells[:k_tr]]
    test = [(i, j, float(rng.uniform(1, 5))) for i, j in cells[k_tr:k_tr + k_te]]
    return RatingDataset.from_triples(m, n, train, test)


def planted_rank2(seed=3, m=20, n=15):
    rng = make_rng(seed)
    A = rng.standard_normal((m, 2))
    B = rng.standard_normal((2, n))
    Z = A @ B
    train = [(i, j, float(Z[i, j])) for i in range(m) for j in range(n)]
    return RatingDataset.from_triples(m, n, train), Z


# ---------------------------------------------------------------------------
# dataset plumbing


def test_from_triples_rejects_duplicates_and_bad_indices():
    with pytest.raises(ValueError):
        RatingDataset.from_triples(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
    with pytest.raises(ValueError):
        RatingDataset.from_triples(2, 2, [(2, 0, 1.0)])
    with pytest.raises(ValueError):
        RatingDataset.from_triples(2, 2, [(0, 0, 1.0)], [(0, -1, 1.0)])
    # duplicates across splits are fine, within a split are not
    ds = RatingDataset.from_triples(2, 2, [(0, 0, 1.0)], [(0, 0, 2.0)])
    assert ds.n_train == 1 and ds.n_test == 1


def _unique_reference(keys):
    vals, counts = np.unique(keys, return_counts=True)
    repeated = vals[counts > 1]
    return int(repeated[0]) if len(repeated) else None


@pytest.mark.parametrize("seed", range(4))
def test_first_duplicate_matches_unique_reference(seed):
    rng = make_rng(seed)
    for size in (0, 1, 2, 3, 40, 2000):
        keys = rng.permutation(5 * size + 1)[:size].astype(np.int64)  # distinct
        cases = [keys]
        # planted at the first, the last, and the first and last positions
        # (neighbours only after sorting), then at random and twice
        pairs = [(0, 1), (size - 1, size - 2), (0, size - 1),
                 tuple(rng.choice(size, 2, replace=False))] if size >= 2 else []
        for a, b in pairs:
            planted = keys.copy()
            planted[b] = planted[a]
            cases.append(planted)
        if size >= 4:
            planted = keys.copy()
            planted[[1, 3]] = planted[[0, 2]]
            cases.append(planted)
        for case in cases:
            assert _first_duplicate(case) == _unique_reference(case)


def test_splits_reject_duplicates_with_the_same_message():
    ok = [(0, 0, 1.0), (1, 2, 2.0)]
    for train, test in (([(1, 2, 1.0)] + ok, []), (ok, [(0, 1, 1.0), (0, 1, 3.0)])):
        with pytest.raises(ValueError, match=r"^duplicate \(user,item\) in split$"):
            RatingDataset.from_triples(2, 3, train, test)
    # empty and one-entry splits have no duplicates
    assert RatingDataset.from_triples(2, 3, [], []).n_train == 0
    assert RatingDataset.from_triples(2, 3, [(1, 2, 5.0)], [(1, 2, 4.0)]).n_test == 1


def test_load_movielens_duplicate_names_original_ids(tmp_path):
    f = tmp_path / "dup.data"
    f.write_text("42\t1000\t3\t0\n7\t5\t4\t0\n42\t5\t2\t0\n42\t1000\t5\t0\n")
    with pytest.raises(ValueError, match=r"dup\.data: user 42 rated item 1000 on more than one line"):
        load_movielens(f)


def test_load_movielens_small_fixture(tmp_path):
    # sparse 1-based ids must be remapped densely in sorted order
    f = tmp_path / "u.data"
    f.write_text("5\t10\t3\t881250949\n2\t10\t4\t881250950\n5\t7\t1\t881250951\n")
    ds = load_movielens(f)
    assert (ds.m, ds.n) == (2, 2)
    got = sorted(zip(ds.train_i, ds.train_j, ds.train_y))
    assert got == [(0, 1, 4.0), (1, 0, 1.0), (1, 1, 3.0)]
    assert ds.n_test == 0


def test_load_movielens_dat_format(tmp_path):
    f = tmp_path / "ratings.dat"
    f.write_text("1::1193::5::978300760\n1::661::3::978302109\n")
    ds = load_movielens(f, fmt="dat_1m")
    assert (ds.m, ds.n) == (1, 2)
    assert sorted(ds.train_y) == [3.0, 5.0]


def test_load_movielens_malformed_lines(tmp_path):
    f = tmp_path / "bad.data"
    f.write_text("1\t1\t3\t0\n1\t2\t4\n")
    with pytest.raises(ValueError, match=r":2: expected 4 fields"):
        load_movielens(f)
    f.write_text("1\t1\t3\t0\nx\t2\t4\t0\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_movielens(f)
    f.write_text("")
    with pytest.raises(ValueError, match="no ratings"):
        load_movielens(f)


@pytest.mark.parametrize("rating", ["inf", "-inf", "nan", "1e999"])
def test_load_movielens_rejects_non_finite_ratings(tmp_path, rating):
    f = tmp_path / "bad.data"
    f.write_text(f"1\t1\t3\t0\n2\t1\t{rating}\t0\n")
    with pytest.raises(ValueError, match=r"bad\.data:2: rating .* not a finite number"):
        load_movielens(f)


def test_load_movielens_rejects_unknown_format(tmp_path):
    f = tmp_path / "ok.data"
    f.write_text("1\t1\t3\t0\n")
    with pytest.raises(ValueError, match="unknown ratings format"):
        load_movielens(f, "csv")


def test_split_random_fraction_sizes_and_disjointness():
    rng = make_rng(11)
    triples = [(i, j, float(rng.uniform(1, 5)))
               for i in range(10) for j in range(11)]
    ds = RatingDataset.from_triples(10, 11, triples)
    out = split_train_test(ds, "random_fraction", rho=0.5, seed=4)
    assert abs(out.n_train - out.n_test) <= 1
    assert out.n_train + out.n_test == 110
    keys = set(zip(out.train_i, out.train_j)) | set(zip(out.test_i, out.test_j))
    assert len(keys) == 110  # disjoint and complete

    full = split_train_test(ds, "random_fraction", rho=1.0, seed=4)
    assert full.n_test == 0 and full.n_train == 110
    with pytest.raises(ValueError, match="unknown split policy"):
        split_train_test(ds, "alternate")


def test_split_per_user_holdout():
    # user 0 has 4 ratings, user 1 has 2, user 2 has 3
    triples = [(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0), (0, 3, 4.0),
               (1, 0, 1.0), (1, 1, 2.0),
               (2, 0, 5.0), (2, 1, 4.0), (2, 2, 3.0)]
    ds = RatingDataset.from_triples(3, 4, triples)
    out = split_train_test(ds, "per_user_holdout", r=2, seed=1)
    held = np.bincount(out.test_i, minlength=3)
    # only users with more than r ratings lose exactly r
    assert list(held) == [2, 0, 2]
    assert out.n_train + out.n_test == 9


def _holdout_reference(ds, r, seed):
    """per_user_holdout as a plain loop over users: O(m N), one scan each."""
    rng = make_rng(seed)
    te_mask = np.zeros(ds.n_train, dtype=bool)
    for u in range(ds.m):
        idx = np.flatnonzero(ds.train_i == u)
        if len(idx) > r:
            te_mask[rng.choice(idx, size=r, replace=False)] = True
    return np.flatnonzero(~te_mask), np.flatnonzero(te_mask)


@pytest.mark.parametrize("seed", range(6))
def test_split_per_user_holdout_matches_the_reference_loop(seed):
    rng = make_rng(100 + seed)
    m, n = 25, 12
    counts = rng.integers(0, 7, size=m)  # users with none, <= r and > r ratings
    counts[:2] = 0
    rows = [(u, j, float(rng.integers(1, 6))) for u in range(m)
            for j in rng.choice(n, counts[u], replace=False)]
    rows = [rows[k] for k in rng.permutation(len(rows))]  # users interleaved
    ds = RatingDataset.from_triples(m, n, rows)
    for r in (1, 2, 4):
        out = split_train_test(ds, "per_user_holdout", r=r, seed=seed)
        tr, te = _holdout_reference(ds, r, seed)
        for got, arr, pos in ((out.train_i, ds.train_i, tr), (out.train_j, ds.train_j, tr),
                              (out.train_y, ds.train_y, tr), (out.test_i, ds.train_i, te),
                              (out.test_j, ds.train_j, te), (out.test_y, ds.train_y, te)):
            np.testing.assert_array_equal(got, arr[pos])
            assert got.dtype == arr.dtype


# ---------------------------------------------------------------------------
# mean normalization


def test_normalize_means_hand_fixture():
    train = [(0, 0, 4.0), (0, 1, 2.0), (0, 2, 3.0), (1, 0, 1.0), (1, 2, 5.0)]
    ds = RatingDataset.from_triples(2, 3, train, [(1, 1, 4.0)])
    out, den = normalize_means(ds)
    # user means (3, 3); item means (2.5, 2, 4); global 3
    assert den.mu_user == pytest.approx([3.0, 3.0])
    assert den.mu_item == pytest.approx([2.5, 2.0, 4.0])
    assert den.global_mean == 3.0
    want = {(0, 0): 4 - 2.75, (0, 1): 2 - 2.5, (0, 2): 3 - 3.5,
            (1, 0): 1 - 2.75, (1, 2): 5 - 3.5}
    for i, j, y in zip(out.train_i, out.train_j, out.train_y):
        assert y == pytest.approx(want[(i, j)])
    # test residual uses train-only means: baseline(1,1) = (3+2)/2
    assert out.test_y[0] == pytest.approx(4.0 - 2.5)
    # round trip
    back = den(out.train_i, out.train_j, out.train_y)
    assert back == pytest.approx(ds.train_y)


def test_normalize_means_constant_data_and_unseen_fallback():
    const = RatingDataset.from_triples(
        2, 2, [(0, 0, 3.0), (0, 1, 3.0), (1, 0, 3.0), (1, 1, 3.0)])
    out, _ = normalize_means(const)
    assert np.max(np.abs(out.train_y)) == 0.0

    # user 1 / item 1 appear only in test: their means fall back to the
    # global train mean
    ds = RatingDataset.from_triples(2, 2, [(0, 0, 2.0)], [(1, 1, 3.0)])
    out, den = normalize_means(ds)
    assert den.mu_user[1] == 2.0 and den.mu_item[1] == 2.0
    assert out.test_y[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# objective, gradients, line search


def test_squared_loss_zero_predictions_unit_ratings():
    triples = [(i, j, 1.0) for i in range(3) for j in range(4)]
    ds = RatingDataset.from_triples(3, 4, triples)
    oracle, store = squared_loss_objective(ds, t=2.0)
    assert oracle.eval(None) == pytest.approx(ds.n_train / 2.0)
    assert oracle.curvature_bound == 4.0
    assert store.x.shape == (12,)


def test_rect_gradient_finite_difference():
    ds = small_ds(seed=5)
    obj = rect_squared_loss(ds)
    rng = make_rng(6)
    Z = rng.standard_normal((5, 4))
    G = obj.grad(Z)
    h = 1e-6
    for _ in range(8):
        D = rng.standard_normal((5, 4))
        fd = (obj.eval(Z + h * D) - obj.eval(Z - h * D)) / (2 * h)
        assert fd == pytest.approx(float(np.sum(G * D)), abs=1e-5)
    # gradient is supported on observed entries only
    mask = np.zeros((5, 4), dtype=bool)
    mask[ds.train_i, ds.train_j] = True
    assert np.all(G[~mask] == 0.0)


def test_residual_operator_matches_block_embedding():
    ds = small_ds(seed=7)
    resid = make_rng(8).standard_normal(ds.n_train)
    op = residual_operator(ds, resid)
    m, n = ds.m, ds.n
    G = np.zeros((m, n))
    np.add.at(G, (ds.train_i, ds.train_j), resid)
    M = 0.5 * np.block([[np.zeros((m, m)), G], [G.T, np.zeros((n, n))]])
    dense = np.column_stack([op.matvec(e) for e in np.eye(m + n)])
    assert np.allclose(dense, M, atol=1e-12)
    assert op.fro_norm == pytest.approx(np.linalg.norm(M))


def test_gradient_spectrum_is_symmetric():
    # (v; w) -> (v; -w) flips the sign of the bipartite block form, so
    # eigenvalues come in +/- pairs
    ds = small_ds(seed=9)
    resid = make_rng(10).standard_normal(ds.n_train)
    op = residual_operator(ds, resid)
    dense = np.column_stack([op.matvec(e) for e in np.eye(ds.m + ds.n)])
    vals, _ = dense_eig_oracle(dense)
    assert np.allclose(np.sort(vals), np.sort(-vals), atol=1e-10)


def _user_block_start(ds):
    return np.concatenate([np.ones(ds.m), np.zeros(ds.n)])


def _sparse_residual(ds, resid):
    G = np.zeros((ds.m, ds.n))
    np.add.at(G, (ds.train_i, ds.train_j), resid)
    return G


@pytest.mark.parametrize("seed", range(3))
def test_lanczos_from_the_user_block_keeps_one_block_exactly_zero(seed, monkeypatch):
    # from (1_m; 0) the basis alternates (x; 0), (0; y), ...: the projections
    # across parities are sums of 0 * x terms, so the zero blocks stay exactly
    # 0 and each step is one sparse pass; only the Ritz vector pays for two
    ds = small_ds(seed=100 + seed, m=9, n=7)
    op = residual_operator(ds, make_rng(seed).standard_normal(ds.n_train))
    seen, passes, bincount = [], [], np.bincount
    recorded = SymmetricOperator(dim=op.dim, fro_norm=op.fro_norm,
                                 matvec=lambda u: seen.append(u.copy()) or op(u))
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: passes.append(1) or bincount(*a, **kw))
    res = approx_smallest_ev(recorded, 0.0, iterations=10, start=_user_block_start(ds))
    assert res.iterations == 10 and len(seen) == res.matvecs == 11
    for k, q in enumerate(seen[:-1]):
        zero, full = (q[ds.m:], q[:ds.m]) if k % 2 == 0 else (q[:ds.m], q[ds.m:])
        assert not zero.any() and full.any(), k
    assert seen[-1][:ds.m].any() and seen[-1][ds.m:].any()
    assert len(passes) == res.iterations + 2


def test_residual_operator_matches_the_two_pass_formula_bit_for_bit():
    ds = small_ds(seed=11, m=9, n=7)
    rng = make_rng(12)
    resid = rng.standard_normal(ds.n_train)
    op = residual_operator(ds, resid)
    m, n, i, j = ds.m, ds.n, ds.train_i, ds.train_j

    def two_pass(u):
        top = GRADIENT_BLOCK_SCALE * np.bincount(i, weights=resid * u[m:][j], minlength=m)
        bot = GRADIENT_BLOCK_SCALE * np.bincount(j, weights=resid * u[:m][i], minlength=n)
        return np.concatenate([top, bot])

    for _ in range(5):
        x, y = rng.standard_normal(m), rng.standard_normal(n)
        # half-zero inputs, one with signed zeros, and a full one
        for u in (np.r_[x, np.zeros(n)], np.r_[np.zeros(m), y], np.r_[x, -0.0 * y],
                  np.r_[x, y]):
            assert op(u).tobytes() == two_pass(u).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_user_block_lanczos_is_exact_at_the_full_dimension(seed):
    ds = small_ds(seed=110 + seed, m=8, n=6)
    resid = make_rng(seed).standard_normal(ds.n_train)
    half_sigma = 0.5 * np.linalg.svd(_sparse_residual(ds, resid), compute_uv=False)[0]
    res = approx_smallest_ev(residual_operator(ds, resid), 0.0, iterations=ds.m + ds.n,
                             start=_user_block_start(ds))
    assert res.history[0] == pytest.approx(-half_sigma, rel=1e-10)
    assert res.rayleigh == pytest.approx(-half_sigma, rel=1e-10)


def test_closed_form_alpha_degenerate_and_exact_cases():
    ds = small_ds(seed=12)
    _, store = squared_loss_objective(ds, t=1.5)
    rng = make_rng(13)
    v = rng.standard_normal(ds.m + ds.n)
    v /= np.linalg.norm(v)
    store.update(1.0, v, 1.5)
    # atom equal to the current iterate: zero denominator, step 0
    assert closed_form_alpha(store, ds.train_y, v, 1.5) == 0.0
    # predictions already perfect: numerator 0 regardless of atom
    store.x[:store.n_train] = ds.train_y
    w = rng.standard_normal(ds.m + ds.n)
    w /= np.linalg.norm(w)
    assert closed_form_alpha(store, ds.train_y, w, 1.5) == 0.0


def test_closed_form_alpha_matches_bisection_on_random_states():
    # the closed form and the generic directional-derivative bisection must
    # agree on the restriction of the loss to the segment [x, s]
    ds = small_ds(seed=20, m=6, n=5)
    y = ds.train_y
    obj = ObjectiveOracle(
        eval=lambda p: 0.5 * float((p - y) @ (p - y)),
        grad=lambda p: p - y)
    rng = make_rng(21)
    _, store = squared_loss_objective(ds, t=1.0)
    for trial in range(100):
        t = float(rng.uniform(0.2, 4.0))
        store.x = rng.standard_normal(len(store.x))
        v = rng.standard_normal(ds.m + ds.n)
        v /= np.linalg.norm(v)
        a_closed = closed_form_alpha(store, y, v, t)
        s = t * v[:ds.m][ds.train_i] * v[ds.m:][ds.train_j]
        a_bis = line_search_alpha(obj, store.train_values.copy(), s)
        assert a_closed == pytest.approx(a_bis, abs=1e-8), trial


def test_prediction_store_matches_factor_recomputation():
    ds = small_ds(seed=30)
    res = complete(ds, t=3.0, steps=25, seed=2)
    ref = res.store.recompute(res.factored)
    assert np.max(np.abs(res.store.x - ref)) <= 1e-8


# ---------------------------------------------------------------------------
# metrics


def test_metrics_hand_values():
    assert metrics([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)
    rmse, nmae = metrics([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert rmse == pytest.approx(1.0)
    assert nmae == pytest.approx(0.25)
    rmse, nmae = metrics([], [])
    assert math.isnan(rmse) and math.isnan(nmae)


def test_default_power_budget_values():
    assert [default_power_budget(k) for k in (0, 1, 5, 10, 33)] == [3, 4, 4, 5, 10]


# ---------------------------------------------------------------------------
# completion runs


def test_complete_monotone_train_loss_and_budget():
    ds = small_ds(seed=40, m=8, n=6)
    for steps in (1, 7, 20):
        res = complete(ds, t=4.0, steps=steps, seed=3)
        fs = [row["f"] for row in res.history]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))
        # trace conservation: the factor split carries exactly t/2 each
        budget = 0.5 * (np.linalg.norm(res.L) ** 2 + np.linalg.norm(res.R) ** 2)
        assert budget <= 4.0 / 2.0 + 1e-6
        assert res.final["k"] == steps
        assert len(res.trace.rows) == steps + 1
        assert res.trace.final().alpha == 0.0


def test_complete_recovers_planted_rank2():
    ds, Z = planted_rank2()
    t = 2.0 * float(np.linalg.svd(Z, compute_uv=False).sum())
    res = complete(ds, t=t, steps=200, seed=0, power_budget=lambda k: 40)
    assert res.final["rmse_train"] <= 0.05
    # and the factors reproduce the found predictions
    pred = (res.L @ res.R.T)[ds.train_i, ds.train_j]
    assert np.allclose(pred, res.store.train_values, atol=1e-8)


def test_complete_tiny_t_predicts_zero():
    ds = small_ds(seed=50)
    res = complete(ds, t=1e-9, steps=5, seed=1)
    assert np.max(np.abs(res.store.x)) <= 1e-8
    want = float(np.sqrt(np.mean(ds.test_y ** 2)))
    assert res.final["rmse_test"] == pytest.approx(want, abs=1e-6)


def test_complete_normalized_preset_roundtrip():
    ds = small_ds(seed=60, m=7, n=6)
    res = complete(ds, t=2.0, steps=8, seed=4, normalize=True)
    assert res.denormalizer is not None
    # reported metrics are in the original rating units: recompute by hand
    den = res.denormalizer
    pred = den(ds.test_i, ds.test_j, res.store.test_values)
    rmse, nmae = metrics(pred, ds.test_y)
    assert res.final["rmse_test"] == pytest.approx(rmse)
    assert res.final["nmae_test"] == pytest.approx(nmae)


def test_complete_gap_stopping_and_history_keys():
    ds = small_ds(seed=70)
    res = complete(ds, t=6.0, eps=1e-3, steps=300, seed=5,
                   power_budget=lambda k: 30)
    assert res.final["gap_estimate"] <= 1e-3 or res.final["k"] == 300
    for row in res.history:
        assert set(row) == {"k", "f", "rmse_train", "nmae_train",
                            "rmse_test", "nmae_test"}


def _true_gap(ds, res, t):
    """X.G - t * lambda_min(G) at a normalized run's final iterate, from a dense eigh."""
    inner, _ = normalize_means(ds)
    resid = res.store.train_values - inner.train_y
    op = residual_operator(inner, resid)
    dense = np.column_stack([op(e) for e in np.eye(ds.m + ds.n)])
    return float(res.store.train_values @ resid) - t * dense_eig_oracle(dense)[0][-1]


def test_complete_gap_column_reads_the_true_gap():
    # the column is X.G - t * (Rayleigh quotient of the step's eigenvector), so it
    # never exceeds the true gap X.G - t * lambda_min(G), and Lanczos brings it
    # close.  It is not certified: where the early budgets are too small for the
    # bottom eigenvector it can still read far below the true gap
    ds = small_ds(seed=94, m=16, n=12)
    t = 30.0
    res = complete(ds, t=t, eps=0.5, normalize=True, seed=0)
    assert res.stopped_on == "gap"
    assert min(row.gap for row in res.trace.rows) >= 0.0
    true_gap = _true_gap(ds, res, t)
    assert true_gap * 0.95 <= res.trace.final().gap <= true_gap * (1.0 + 1e-12)


@pytest.mark.parametrize("ds,t,eps", [(_ratings(15), 40.0, 1.0),
                                      (small_ds(seed=96, m=12, n=10), 20.0, 0.3)],
                         ids=["ratings15", "small96"])
def test_complete_eps_stop_confirms_its_gap(ds, t, eps):
    # after mean normalization the budget solves read these gaps far too low,
    # below 0 at rows 4 and 15 without the confirmation; the eps/(2t)-accurate
    # solve from a random start puts the confirmed gap within eps/2 of the truth
    res = complete(ds, t=t, eps=eps, normalize=True, seed=0)
    assert res.stopped_on == "gap"
    assert min(row.gap for row in res.trace.rows) >= 0.0
    true_gap = _true_gap(ds, res, t)
    assert res.trace.final().gap <= true_gap * (1.0 + 1e-12)
    assert true_gap <= 1.5 * eps
    # the confirming solve's matvecs are counted on top of the budget solve's
    k, rows = res.final["k"], res.trace.rows
    assert rows[-1].matvecs - rows[-2].matvecs > min(default_power_budget(k), ds.m + ds.n) + 1


def test_complete_reports_why_it_stopped():
    ds = small_ds(seed=70)
    capped = complete(ds, t=6.0, steps=4, seed=5)
    assert capped.stopped_on == "max_iters" and capped.final["k"] == 4
    for steps in (None, 300):
        res = complete(ds, t=6.0, eps=0.3, steps=steps, seed=5)
        assert res.stopped_on == "gap"
        assert res.final["gap_estimate"] <= 0.3 and res.final["k"] < 300


def test_complete_and_split_reject_bad_parameters():
    ds = small_ds(seed=2)
    for kw, what in ((dict(t=0.0, steps=3), "t must be positive"),
                     (dict(t=float("nan"), steps=3), "t must be positive"),
                     (dict(t=1.0, steps=-1), "steps must be nonnegative"),
                     (dict(t=1.0), "steps or eps")):
        with pytest.raises(ValueError, match=what):
            complete(ds, **kw)
    for rho in (-0.01, 1.5, float("nan")):
        with pytest.raises(ValueError, match="rho"):
            split_train_test(ds, "random_fraction", rho=rho)
    with pytest.raises(ValueError, match="r >= 1"):
        split_train_test(ds, "per_user_holdout", r=0)


def test_complete_harmonic_steps_match_schedule():
    ds = small_ds(seed=90)
    res = complete(ds, t=2.0, steps=6, seed=7, line_search=False)
    alphas = [r.alpha for r in res.trace.rows[:-1]]
    assert alphas == pytest.approx([2.0 / (k + 2) for k in range(6)])
