import numpy as np
import pytest

from condgrad.core import StopRule, make_rng
from condgrad.domains.matrices import FactoredPSD, SpectrahedronDomain, hazan_run
from condgrad.objectives import squared_distance
from condgrad.solver import fw_run
from condgrad.transforms import (
    BlockEmbedding,
    extract_factorization,
    nuclear_to_spect,
    weighted_nuclear_wrap,
)
from support import (max_norm_oracle, maxnorm_sdp_feasible, nuclear_norm_oracle,
                     nuclear_sdp_feasible, weighted_nuclear_norm)


def test_block_embedding_round_trip():
    emb = BlockEmbedding(2, 3)
    Z = np.arange(6.0).reshape(2, 3)
    X = emb.embed_z(Z)
    assert X.shape == (5, 5)
    assert np.allclose(emb.z_block(X), Z)
    assert np.allclose(X, X.T)
    assert np.allclose(X[:2, :2], 0) and np.allclose(X[2:, 2:], 0)


def test_nuclear_norm_oracle_known_values():
    assert nuclear_norm_oracle(np.diag([1.0, 2.0])) == pytest.approx(3.0)
    assert nuclear_norm_oracle(np.ones((2, 2))) == pytest.approx(2.0)
    rng = make_rng(0)
    Z = rng.standard_normal((5, 3))
    svd_sum = float(np.linalg.svd(Z, compute_uv=False).sum())
    assert nuclear_norm_oracle(Z) == pytest.approx(svd_sum, abs=1e-10)


def test_max_norm_oracle_known_values():
    assert max_norm_oracle(np.ones((2, 2))) == pytest.approx(1.0, abs=1e-3)
    assert max_norm_oracle(np.zeros((2, 3))) == 0.0
    # diag: max norm of a diagonal matrix is its largest absolute entry
    assert max_norm_oracle(np.diag([1.0, 2.0])) == pytest.approx(2.0, abs=1e-3)


def test_embedded_objective_agrees_with_original_on_z_blocks():
    # hand instance: Z=[1] embeds feasibly at t=2 as X=[[1,1],[1,1]]
    # (PSD, trace 2, Z block extracts back)
    emb = BlockEmbedding(1, 1)
    X = np.ones((2, 2))
    assert np.allclose(emb.z_block(X), [[1.0]])
    assert np.trace(X) == 2.0 and np.linalg.eigvalsh(X).min() >= 0.0
    assert nuclear_sdp_feasible(np.array([[1.0]]), 2.0)

    rng = make_rng(1)
    m, n = 3, 2
    target = rng.standard_normal((m, n))
    obj = squared_distance(target, name="dist2")
    hat, embedding = nuclear_to_spect(obj, m, n, t=2.0)
    Z = rng.standard_normal((m, n))
    Xz = embedding.embed_z(Z)
    assert hat.eval(Xz) == pytest.approx(obj.eval(Z))


def test_embedded_gradient_matches_finite_differences():
    # directional derivative of the embedded objective along symmetric
    # perturbations must match <grad_hat, D> under the full inner product
    rng = make_rng(2)
    m, n = 2, 3
    obj = squared_distance(rng.standard_normal((m, n)), name="dist2")
    hat, emb = nuclear_to_spect(obj, m, n, t=1.0)
    X = emb.embed_z(rng.standard_normal((m, n)))
    G = hat.grad(X)
    h = 1e-6
    for _ in range(10):
        D = rng.standard_normal((m + n, m + n))
        D = (D + D.T) / 2
        fd = (hat.eval(X + h * D) - hat.eval(X - h * D)) / (2 * h)
        assert float(np.sum(G * D)) == pytest.approx(fd, abs=1e-5)


def test_extract_factorization_reconstructs_and_respects_budget():
    rng = make_rng(3)
    m, n, t = 4, 3, 2.5
    vs = [v / np.linalg.norm(v) for v in rng.standard_normal((5, m + n))]
    w = rng.dirichlet(np.ones(5)).tolist()
    X = FactoredPSD(n=m + n, scale=t, weights=w, vectors=vs)
    L, R = extract_factorization(X, m, n)
    assert np.max(np.abs(L @ R.T - X.dense()[:m, m:])) <= 1e-10
    assert 0.5 * (np.sum(L ** 2) + np.sum(R ** 2)) <= t / 2 + 1e-9


def test_rank_one_nuclear_feasibility_boundary():
    # ||uv^T||_nuc = ||u|| ||v||; feasible iff that is <= t/2
    rng = make_rng(4)
    for _ in range(50):
        u = rng.standard_normal(4)
        v = rng.standard_normal(3)
        Z = np.outer(u, v)
        nuc = np.linalg.norm(u) * np.linalg.norm(v)
        assert nuclear_sdp_feasible(Z, 2 * nuc + 1e-6)
        assert not nuclear_sdp_feasible(Z, 2 * nuc - 1e-3)


def test_nuclear_feasibility_equivalence_200_random():
    rng = make_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        Z = rng.standard_normal((m, n)) * rng.uniform(0.2, 3.0)
        nuc = nuclear_norm_oracle(Z)
        t = float(rng.uniform(0.2, 2.0) * 2 * nuc)
        want = nuc <= t / 2
        got = nuclear_sdp_feasible(Z, t)
        if abs(nuc - t / 2) > 1e-8:  # outside the tolerance band
            assert got == want


def test_maxnorm_feasibility_equivalence_small():
    # smoke version; the full 200-instance protocol runs in the
    # acceptance suite
    rng = make_rng(6)
    checked = 0
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        Z = rng.standard_normal((m, n))
        mn = max_norm_oracle(Z, tol=1e-6)
        t = float(rng.uniform(0.4, 1.8) * max(mn, 1e-3))
        if abs(mn - t) <= 1e-3 * max(1.0, mn):
            continue  # skip the tolerance band
        got = maxnorm_sdp_feasible(Z, t)
        assert got == (mn <= t)
        checked += 1
    assert checked >= 45


def test_maxnorm_hand_instances():
    assert maxnorm_sdp_feasible(np.array([[1.0]]), 1.0 + 1e-9)
    assert not maxnorm_sdp_feasible(np.array([[2.0]]), 1.0)


def test_maxnorm_feasibility_against_sdp_oracle():
    cp = pytest.importorskip("cvxpy")

    def maxnorm_cvx(Z):
        m, n = Z.shape
        V = cp.Variable((m, m), symmetric=True)
        W = cp.Variable((n, n), symmetric=True)
        t = cp.Variable()
        M = cp.bmat([[V, Z], [Z.T, W]])
        cons = [M >> 0, cp.diag(V) <= t, cp.diag(W) <= t]
        cp.Problem(cp.Minimize(t), cons).solve(solver=cp.SCS, eps=1e-8)
        return float(t.value)

    rng = make_rng(7)
    for _ in range(10):
        Z = rng.standard_normal((3, 2))
        ours = max_norm_oracle(Z, tol=1e-5)
        ref = maxnorm_cvx(Z)
        # the bisection can only overshoot: a found factorization certifies
        # feasibility, while a missed one just raises the lower bracket
        assert ours >= ref - 1e-3
        assert ours <= ref + 0.05


def test_weighted_wrap_uniform_weights_rescale_the_norm():
    rng = make_rng(8)
    Z = rng.standard_normal((4, 3))
    # row weights 4 with unit column weights scale singular values by
    # sqrt(4) = 2, so the weighted norm doubles the plain one
    p = np.full(4, 4.0)
    q = np.ones(3)
    assert weighted_nuclear_norm(Z, p, q) == pytest.approx(
        2.0 * nuclear_norm_oracle(Z), abs=1e-9)
    assert weighted_nuclear_norm(Z, np.ones(4), np.ones(3)) == pytest.approx(
        nuclear_norm_oracle(Z), abs=1e-9)


def test_weighted_wrap_objective_round_trip():
    rng = make_rng(9)
    m, n = 3, 4
    p = rng.uniform(0.5, 2.0, size=m)
    q = rng.uniform(0.5, 2.0, size=n)
    obj = squared_distance(rng.standard_normal((m, n)), name="dist2")
    wrapped, to_original = weighted_nuclear_wrap(obj, p, q)
    Zbar = rng.standard_normal((m, n))
    assert wrapped.eval(Zbar) == pytest.approx(obj.eval(to_original(Zbar)))
    # gradient consistency by finite differences in the wrapped coordinates
    G = wrapped.grad(Zbar)
    h = 1e-6
    D = rng.standard_normal((m, n))
    fd = (wrapped.eval(Zbar + h * D) - wrapped.eval(Zbar - h * D)) / (2 * h)
    assert float(np.sum(G * D)) == pytest.approx(fd, abs=1e-5)


def test_nuclear_regularized_solve_recovers_low_rank_target():
    # minimize ||Z - Z*||^2 over ||Z||_nuc <= t/2 via the embedded run;
    # with t = 2*||Z*||_nuc the target itself is feasible
    rng = make_rng(10)
    m, n = 4, 3
    Zs = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    t = 2.0 * nuclear_norm_oracle(Zs)
    obj = squared_distance(Zs, curvature_bound=t * t, name="dist2")
    hat, emb = nuclear_to_spect(obj, m, n, t=t)
    run = hazan_run(hat, n=m + n, t=t, stop=StopRule(max_iters=300),
                    variant="line_search", lmo_mode="approx", seed=0)
    L, R = extract_factorization(run.factored, m, n)
    assert np.max(np.abs(L @ R.T - Zs)) <= 0.05
    assert nuclear_norm_oracle(L @ R.T) <= t / 2 + 1e-6
