import itertools

import numpy as np
import pytest

from condgrad.core import StopRule, make_rng
from condgrad.domains.matrices import BoundedDiagDomain, SparsePsdDomain, SpectrahedronDomain
from condgrad.domains.vectors import (
    CubeDomain,
    L1BallDomain,
    SimplexDomain,
    cube_gap,
    cube_lmo,
    l1_gap,
    l1_lmo,
    l1_lowerbound_suite,
    simplex_gap,
    simplex_lmo,
    sparse_lowerbound_suite,
    uniform_k_vector,
)
from condgrad.objectives import least_squares, squared_norm
from condgrad.solver import fw_run


# brute-force vertex scans: the oracles the LMOs are audited against
def _simplex_vertices(n):
    return [np.eye(n)[i] for i in range(n)]


def _l1_vertices(n, t):
    return [s * t * np.eye(n)[i] for i in range(n) for s in (+1.0, -1.0)]


def _cube_vertices(n):
    return [np.array(v, dtype=float) for v in itertools.product([-1.0, 1.0], repeat=n)]


def test_simplex_lmo_matches_vertex_scan():
    rng = make_rng(0)
    for _ in range(300):
        c = rng.standard_normal(8)
        best = min(float(c @ v) for v in _simplex_vertices(8))
        assert float(c @ simplex_lmo(c).point) == best


def test_simplex_lmo_lowest_index_tie_break():
    assert simplex_lmo(np.array([1.0, 0.0, 0.0, 0.0])).label == "e1"
    assert simplex_lmo(np.zeros(4)).label == "e0"


def test_l1_lmo_matches_vertex_scan_and_scales_radius():
    rng = make_rng(1)
    for _ in range(300):
        c = rng.standard_normal(6)
        t = float(rng.uniform(0.5, 3.0))
        best = min(float(c @ v) for v in _l1_vertices(6, t))
        assert float(c @ l1_lmo(c, t=t).point) == pytest.approx(best, rel=1e-15)


def test_cube_lmo_sign_vector_and_scan():
    assert np.allclose(cube_lmo(np.array([1.0, -2.0, 0.0])).point, [-1, 1, 1])
    assert np.allclose(cube_lmo(np.array([-3.0, -0.1])).point, [1, 1])
    rng = make_rng(2)
    for _ in range(100):
        c = rng.standard_normal(5)
        best = min(float(c @ v) for v in _cube_vertices(5))
        assert float(c @ cube_lmo(c).point) == best


def test_gap_formulas_equal_lmo_gap():
    rng = make_rng(3)
    for _ in range(200):
        n = 7
        grad = rng.standard_normal(n)
        x = rng.dirichlet(np.ones(n))
        lmo_based = float((x - simplex_lmo(grad).point) @ grad)
        assert simplex_gap(x, grad) == pytest.approx(lmo_based, abs=1e-14)

        t = 2.0
        y = rng.standard_normal(n)
        y *= t * rng.uniform(0, 1) / max(np.abs(y).sum(), 1e-12)
        lmo_based = float((y - l1_lmo(grad, t=t).point) @ grad)
        assert l1_gap(y, grad, t=t) == pytest.approx(lmo_based, abs=1e-13)

        z = rng.uniform(-1, 1, size=n)
        lmo_based = float((z - cube_lmo(grad).point) @ grad)
        assert cube_gap(z, grad) == pytest.approx(lmo_based, abs=1e-13)


def test_cube_gap_hand_value():
    assert cube_gap(np.zeros(2), np.array([1.0, -2.0])) == pytest.approx(3.0)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 1000])
def test_cube_label_sets_bit_i_where_s_i_is_plus_one(n):
    c = make_rng(n).choice([-1.0, 0.0, 1.0], size=n)
    c[0] = 0.0  # sign(0) = +1
    mask = 0
    for i in range(n):
        if c[i] <= 0.0:
            mask |= 1 << i
    assert cube_lmo(c).label == "c%x" % mask


def test_domain_membership_checks():
    assert SimplexDomain(3).contains(np.array([0.2, 0.3, 0.5]))
    assert not SimplexDomain(3).contains(np.array([0.6, 0.6, -0.2]))
    assert L1BallDomain(2, t=2.0).contains(np.array([1.0, -0.5]))
    assert not L1BallDomain(2, t=2.0).contains(np.array([1.5, -0.8]))
    assert CubeDomain(2).contains(np.array([1.0, -1.0]))
    assert not CubeDomain(2).contains(np.array([1.01, 0.0]))


def test_uniform_k_vector_value():
    x = uniform_k_vector(10, 4)
    assert np.count_nonzero(x) == 4
    assert float(x @ x) == pytest.approx(0.25)


def test_sparse_lowerbound_suite_exact_and_sampled():
    for k, n in [(1, 5), (2, 4), (5, 50), (20, 50)]:
        out = sparse_lowerbound_suite(n, k, seed=0, samples=300)
        # exactness is proved in rational arithmetic inside the suite; the
        # float evaluation of k*(1/k)^2 may sit one ulp off 1.0/k
        assert out["f_uniform"] == pytest.approx(1.0 / k, abs=4e-16 * max(1, k))
        assert out["min_sample_f"] >= 1.0 / k - 1e-12
        if k < n:
            assert out["min_sample_gap"] >= 2.0 / k - 1e-12


def test_sparse_lowerbound_known_small_cases():
    assert sparse_lowerbound_suite(5, 1, samples=10)["f_uniform"] == 1.0
    assert sparse_lowerbound_suite(4, 2, samples=10)["f_uniform"] == 0.5
    assert sparse_lowerbound_suite(6, 6, samples=10)["f_uniform"] == pytest.approx(1 / 6)


def test_l1_lowerbound_suite_mirrored_target():
    # distance to the doubled-uniform point: best k-sparse value 4(n-k)/n^2,
    # asserted sample-by-sample inside the suite
    for n, k in [(8, 2), (8, 4), (12, 3)]:
        out = l1_lowerbound_suite(n, k, seed=1, samples=300)
        assert out["card_min"] == pytest.approx(4.0 * (n - k) / n ** 2)
        assert out["f_star"] == pytest.approx(1.0 / n)


def test_simplex_run_support_bound():
    obj = squared_norm(curvature_bound=2.0)
    for kmax in (3, 10, 30):
        res = fw_run(obj, SimplexDomain(40), stop=StopRule(max_iters=kmax))
        assert res.ledger.support_size() <= kmax + 1


def test_l1_run_starts_at_zero_with_placeholder():
    rng = make_rng(5)
    A = rng.standard_normal((10, 6))
    b = rng.standard_normal(10)
    obj = least_squares(A, b, curvature_bound=None)
    dom = L1BallDomain(6, t=1.5)
    res = fw_run(obj, dom, stop=StopRule(max_iters=12))
    # zero start is not a vertex; the first alpha=1 step replaces it
    assert res.trace.rows[0].alpha == 1.0
    assert res.ledger.support_size() <= 12  # <= k atoms from the zero start
    assert dom.contains(res.point)


def test_slack_variable_simplex_reduction_matches_l1_domain():
    # minimizing over the l1 ball == minimizing over a sign-doubled simplex
    # with one slack coordinate mapped through +/- identity columns
    rng = make_rng(6)
    n = 5
    A = rng.standard_normal((9, n))
    b = rng.standard_normal(9)
    obj = least_squares(A, b)

    E = np.hstack([np.eye(n), -np.eye(n), np.zeros((n, 1))])  # embed Delta_{2n+1}
    emb = least_squares(A @ E, b)

    cp = pytest.importorskip("cvxpy")
    x = cp.Variable(n)
    p1 = cp.Problem(cp.Minimize(cp.sum_squares(A @ x - b)), [cp.norm1(x) <= 1])
    p1.solve()
    y = cp.Variable(2 * n + 1, nonneg=True)
    p2 = cp.Problem(cp.Minimize(cp.sum_squares(A @ E @ y - b)), [cp.sum(y) == 1])
    p2.solve()
    assert p1.value == pytest.approx(p2.value, abs=1e-8)

    # both fw runs approach the common optimum within their final measured gap
    for dom, o in [(L1BallDomain(n, t=1.0), obj), (SimplexDomain(2 * n + 1), emb)]:
        run = fw_run(o, dom, stop=StopRule(max_iters=2000))
        last = run.trace.rows[-1]
        assert o.eval(run.point) - p1.value <= last.gap + 1e-9
    # the embedding maps any simplex point into the ball with equal value
    z = np.full(2 * n + 1, 1.0 / (2 * n + 1))
    assert obj.eval(E @ z) == pytest.approx(emb.eval(z), abs=1e-12)


@pytest.mark.parametrize("make,what", [
    (lambda: SimplexDomain(10 ** 400), "fit an array index"),
    (lambda: CubeDomain(2 ** 63), "fit an array index"),
    (lambda: L1BallDomain(3, t=1e200), "finite diameter"),
    # a dimension that is not an integer would fail later, inside numpy's indexing
    (lambda: SimplexDomain(2.5), "an integer"),
    (lambda: SimplexDomain(True), "an integer"),
    (lambda: SpectrahedronDomain(2.5), "an integer"),
    (lambda: CubeDomain(np.float64(3.0)), "an integer"),
    (lambda: BoundedDiagDomain(2.5), "an integer"),
    (lambda: SparsePsdDomain(float("inf")), "an integer"),
    # the bounded-diagonal diameter 4 (n t)^2 must be finite too, or gaps read nan
    (lambda: BoundedDiagDomain(3, t=1e200), "too large for a finite diameter"),
    (lambda: BoundedDiagDomain(3, t=float("inf")), "too large for a finite diameter"),
])
def test_domains_reject_sizes_past_numeric_range(make, what):
    with pytest.raises(ValueError, match=what):
        make()
