import numpy as np
import pytest

from condgrad.core import make_rng
from condgrad.eigen import (
    SymmetricOperator,
    approx_largest_ev,
    approx_smallest_ev,
    dense_eig_oracle,
    spectral_range_bound,
)
from support import power_largest_ev


def test_operator_from_dense_applies_matvec():
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    op = SymmetricOperator.from_dense(M)
    assert np.allclose(op(np.array([1.0, 0.0])), M[:, 0])
    assert op.dim == 2


def test_operator_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        SymmetricOperator.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dense_oracle_diagonal_and_flip():
    vals, vecs = dense_eig_oracle(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [3.0, 2.0, 1.0])
    vals, _ = dense_eig_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [1.0, -1.0])


def test_dense_oracle_reconstructs_random_matrix():
    rng = make_rng(1)
    M = rng.standard_normal((50, 50))
    M = (M + M.T) / 2
    vals, vecs = dense_eig_oracle(M)
    assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - M) <= 1e-9
    assert np.all(np.diff(vals) <= 1e-12)  # sorted descending


def test_range_bound_dominates_true_spectral_range():
    # diag(2,1): Frobenius route alone gives 2*sqrt(5); the row-sum route
    # tightens it to 4; both dominate the true range 1
    op = SymmetricOperator.from_dense(np.diag([2.0, 1.0]))
    assert spectral_range_bound(op) == pytest.approx(4.0)
    fro_only = SymmetricOperator(dim=2, matvec=op.matvec,
                                 fro_norm=float(np.sqrt(5.0)))
    assert spectral_range_bound(fro_only) == pytest.approx(2.0 * np.sqrt(5.0))
    assert spectral_range_bound(SymmetricOperator.from_dense(np.zeros((3, 3)))) == 0.0
    rng = make_rng(2)
    for _ in range(20):
        M = rng.standard_normal((12, 12))
        M = (M + M.T) / 2
        vals, _ = dense_eig_oracle(M)
        L = spectral_range_bound(SymmetricOperator.from_dense(M))
        assert L >= vals[0] - vals[-1] - 1e-12


def test_largest_ev_dominant_diagonal_pair():
    op = SymmetricOperator.from_dense(np.diag([2.0, 1.0]))
    res = approx_largest_ev(op, 0.1, seed=3)
    assert res.rayleigh >= 1.9
    assert abs(abs(res.vector[0]) - 1.0) <= 0.25
    assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12


def test_identity_and_zero_operators_are_exact():
    res = approx_largest_ev(SymmetricOperator.from_dense(np.eye(4)), 0.1, seed=0)
    assert res.rayleigh == pytest.approx(1.0)
    res = approx_largest_ev(SymmetricOperator.from_dense(np.zeros((4, 4))), 0.1, seed=0)
    assert res.rayleigh == 0.0


def test_largest_ev_hits_additive_accuracy_on_random_instances():
    rng = make_rng(5)
    hits = 0
    for trial in range(100):
        M = rng.standard_normal((100, 100))
        M = (M + M.T) / 2
        vals, _ = dense_eig_oracle(M)
        eps = 0.5
        res = approx_largest_ev(SymmetricOperator.from_dense(M), eps, seed=trial)
        if res.rayleigh >= vals[0] - eps:
            hits += 1
    assert hits >= 95


def test_smallest_ev_negates_largest():
    M = np.diag([2.0, 1.0, -3.0])
    res = approx_smallest_ev(SymmetricOperator.from_dense(M), 0.05, seed=0)
    vals, _ = dense_eig_oracle(M)
    assert res.rayleigh <= vals[-1] + 0.05
    assert abs(abs(res.vector[2]) - 1.0) <= 0.2


def test_lanczos_ritz_values_are_shift_invariant():
    # M and M + c*Id span the same Krylov space from the same start, so the
    # top Ritz value moves by exactly c, up to rounding
    rng = make_rng(7)
    for n in (5, 30, 120):
        M = rng.standard_normal((n, n))
        M = (M + M.T) / 2
        vals, _ = dense_eig_oracle(M)
        for c in (11.5, -3.25):
            for steps in (3, 8, 20):
                r0 = approx_largest_ev(SymmetricOperator.from_dense(M), 0.1, seed=4,
                                       iterations=steps)
                r1 = approx_largest_ev(SymmetricOperator.from_dense(M + c * np.eye(n)), 0.1,
                                       seed=4, iterations=steps)
                assert r0.iterations == r1.iterations
                assert abs(r1.history[0] - r0.history[0] - c) <= 1e-12 * (vals[0] - vals[-1])


def test_rayleigh_history_is_monotone_on_shifted_operator():
    rng = make_rng(8)
    M = rng.standard_normal((25, 25))
    M = (M + M.T) / 2
    res = approx_largest_ev(SymmetricOperator.from_dense(M), 0.05, seed=1)
    shifted = [h + spectral_range_bound(SymmetricOperator.from_dense(M))
               for h in res.history]
    assert all(b >= a - 1e-10 for a, b in zip(shifted, shifted[1:]))


def test_doubling_iterations_never_hurts():
    rng = make_rng(9)
    M = rng.standard_normal((40, 40))
    M = (M + M.T) / 2
    op = SymmetricOperator.from_dense(M)
    r1 = approx_largest_ev(op, 0.1, seed=2, iterations=25)
    r2 = approx_largest_ev(op, 0.1, seed=2, iterations=50)
    assert r2.rayleigh >= r1.rayleigh - 1e-12


def test_lanczos_matches_power_on_well_separated_spectrum():
    rng = make_rng(10)
    M = rng.standard_normal((60, 60))
    M = (M + M.T) / 2
    vals, _ = dense_eig_oracle(M)
    op = SymmetricOperator.from_dense(M)
    r = approx_largest_ev(op, 0.2, seed=0)
    assert r.rayleigh >= vals[0] - 0.2
    assert r.rayleigh >= power_largest_ev(op, 0.2, seed=0).rayleigh - 1e-10


def test_lanczos_never_below_power_at_one_extra_matvec():
    rng = make_rng(12)
    for trial in range(30):
        n = int(rng.integers(5, 101))
        M = rng.standard_normal((n, n))
        op = SymmetricOperator.from_dense((M + M.T) / 2)
        for eps in (0.5, 1.0, 2.0):
            p = power_largest_ev(op, eps, seed=trial)
            lz = approx_largest_ev(op, eps, seed=trial)
            assert lz.rayleigh >= p.rayleigh - 1e-10
            assert lz.matvecs <= p.matvecs + 1
            assert lz.matvecs == lz.iterations + 1
            assert abs(np.linalg.norm(lz.vector) - 1.0) <= 1e-12


def test_lanczos_is_exact_once_steps_reach_the_dimension():
    rng = make_rng(13)
    for n in (1, 2, 5, 12, 25):
        M = rng.standard_normal((n, n))
        M = (M + M.T) / 2
        vals, _ = dense_eig_oracle(M)
        res = approx_largest_ev(SymmetricOperator.from_dense(M), 0.5, seed=n)
        assert res.iterations <= n
        assert res.rayleigh == pytest.approx(vals[0], abs=1e-10)
        # history: the final Ritz value, then the measured Rayleigh quotient
        assert res.history[-1] == res.rayleigh
        assert res.history[0] == pytest.approx(res.rayleigh, abs=1e-10)


def test_lanczos_stops_on_an_invariant_krylov_space():
    # rank 2: the Krylov space of a generic start vector is 3-dimensional
    # (two eigenvectors plus the kernel component), so Lanczos stops early
    u = np.linspace(1.0, 2.0, 30)
    w = np.cos(np.arange(30.0))
    M = np.outer(u, u) / (u @ u) * 3.0 - np.outer(w, w) / (w @ w)
    res = approx_largest_ev(SymmetricOperator.from_dense(M), 1e-3, seed=0)
    assert res.iterations <= 4
    assert res.rayleigh == pytest.approx(dense_eig_oracle(M)[0][0], abs=1e-10)


def test_negated_dense_operator_matches_negated_matvec_bitwise():
    rng = make_rng(14)
    M = rng.standard_normal((20, 20))
    op = SymmetricOperator.from_dense((M + M.T) / 2)
    closure = SymmetricOperator(dim=20, matvec=lambda v: op.matvec(v))
    v = rng.standard_normal(20)
    assert np.array_equal(op.negated()(v), -op(v))
    assert np.array_equal(closure.negated()(v), -op(v))


def test_negated_from_dense_keeps_the_dense_path():
    # the dense matvec is M.dot, and negated() binds (-M).dot, not a closure
    rng = make_rng(15)
    B = rng.standard_normal((9, 9))
    M = B + B.T
    neg = SymmetricOperator.from_dense(M).negated()
    negM = neg.matvec.__self__
    assert isinstance(negM, np.ndarray) and neg.matvec == negM.dot
    assert np.array_equal(negM, -M)
    for _ in range(4):
        v = rng.standard_normal(9)
        assert neg(v).tobytes() == (-(M @ v)).tobytes()


def test_matvec_count_is_reported():
    # 15 distinct eigenvalues: no Krylov space of a random start is invariant before 15 steps
    op = SymmetricOperator.from_dense(np.diag(np.arange(15.0)))
    res = approx_largest_ev(op, 0.5, seed=0, iterations=12)
    assert res.iterations == 12 and res.matvecs == 13  # final rayleigh matvec


def test_dense_oracle_rejects_asymmetric_and_overflowing_input():
    with pytest.raises(ValueError, match="symmetric"):
        dense_eig_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            dense_eig_oracle(np.full((2, 2), 1e308) * 2.0)


def test_lanczos_budget_caps_at_dimension_for_subnormal_accuracy():
    # c log(n) / gamma overflows to inf; the Lanczos count is still n
    M = np.diag([3.0, 1.0, -2.0])
    res = approx_largest_ev(SymmetricOperator.from_dense(M), 1e-310, seed=0)
    assert res.iterations <= 3
    assert res.rayleigh == pytest.approx(3.0)
