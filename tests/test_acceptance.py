"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured margins when its
criterion holds; a failing criterion fails its test.  Criterion 7 needs the
MovieLens 100k ratings file and skips with instructions when the file is not
available.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from condgrad import make_rng
from condgrad.core import StopRule, StepSchedule
from condgrad.domains.matrices import (
    SparsePsdAtom,
    SpectrahedronDomain,
    hazan_run,
    maxdiag_run,
    random_low_rank_psd,
    sparsepsd_lmo,
    sparsepsd_run,
    spect_lmo,
    spect_lowrank_lowerbound_suite,
)
from condgrad.domains.vectors import (
    CubeDomain,
    L1BallDomain,
    SimplexDomain,
    cube_lmo,
    l1_lmo,
    simplex_lmo,
    sparse_lowerbound_suite,
)
from condgrad.eigen import dense_eig_oracle
from condgrad.matcomp import (
    RatingDataset,
    closed_form_alpha,
    complete,
    load_movielens,
    split_train_test,
)
from condgrad.objectives import squared_distance, squared_norm
from condgrad.sdpfeas import FeasibilitySDP, solve_eps_feasible
from condgrad.solver import (
    curvature_from_hessian,
    fw_run,
    gap_certified_run,
    line_search_alpha,
)
from condgrad.core import ObjectiveOracle
from support import (
    max_norm_oracle,
    maxnorm_sdp_feasible,
    nuclear_norm_oracle,
    nuclear_sdp_feasible,
    squared_loss_objective,
)


def simplex_quadratic(n):
    dom = SimplexDomain(n)
    obj = squared_norm()
    obj.curvature_bound = curvature_from_hessian(2.0, dom.diam_sq)
    return obj, dom


def test_criterion_01_convergence_envelope():
    start = time.perf_counter()
    worst = -math.inf
    for n in (5, 50, 500):
        obj, dom = simplex_quadratic(n)
        res = fw_run(obj, dom, stop=StopRule(max_iters=1000), lmo_mode="exact")
        for row in res.trace.rows:
            margin = (row.f - 1.0 / n) - 4.0 * 2.0 / (row.k + 2.0)
            worst = max(worst, margin)
            assert margin <= 1e-12, (n, row.k, row.f)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"CRITERION  1 PASS: f-1/n <= 8/(k+2) for all k<=1000, "
          f"n in (5,50,500); worst margin {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_primal_dual_certificates():
    checked = []
    for n in (5, 50, 500):
        obj, dom = simplex_quadratic(n)
        for eps in (0.5, 0.1, 0.02):
            run = gap_certified_run(obj, dom, eps, lmo_mode="exact")
            K = math.ceil(4.0 * 2.0 / eps)
            assert run.certified, (n, eps)
            assert run.gap_bound <= eps, (n, eps, run.gap_bound)
            assert run.k_hat <= 2 * K + 1, (n, eps, run.k_hat)
            checked.append((n, eps, run.k_hat, 2 * K + 1))
    worst = max(k / b for _, _, k, b in checked)
    print(f"CRITERION  2 PASS: certified gap <= eps for eps in "
          f"(0.5,0.1,0.02), n in (5,50,500); max budget use {worst:.0%}")


def test_criterion_03_sparsity_lower_bound():
    worst_f = worst_g = math.inf
    for k in range(1, 21):
        out = sparse_lowerbound_suite(50, k, seed=k, samples=1000)
        assert out["min_sample_f"] >= 1.0 / k - 1e-12
        assert out["min_sample_gap"] >= 2.0 / k - 1e-12
        assert abs(out["f_uniform"] - 1.0 / k) <= 4e-16 * max(1, k)
        worst_f = min(worst_f, out["min_sample_f"] * k)
        worst_g = min(worst_g, out["min_sample_gap"] * k)
    print(f"CRITERION  3 PASS: k=1..20, n=50, 1000 samples each; "
          f"min f*k {worst_f:.4f} >= 1, min gap*k {worst_g:.4f} >= 2")


def test_criterion_04_lmo_brute_force_equivalence():
    rng = make_rng(1004)

    for _ in range(1000):
        g = rng.standard_normal(50)
        atom = simplex_lmo(g)
        brute = min(float(np.dot(np.eye(50)[i], g)) for i in range(50))
        assert float(np.dot(atom.point, g)) == brute

    t = 1.3
    for _ in range(1000):
        g = rng.standard_normal(40)
        atom = l1_lmo(g, t=t)
        cands = []
        for i in range(40):
            e = np.zeros(40)
            for s in (t, -t):
                e[i] = s
                cands.append(float(np.dot(e, g)))
            e[i] = 0.0
        assert float(np.dot(atom.point, g)) == min(cands)

    verts = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
    for _ in range(1000):
        g = rng.standard_normal(8)
        atom = cube_lmo(g)
        assert float(np.dot(atom.point, g)) == min(
            float(np.dot(v, g)) for v in verts)

    n = 10
    for _ in range(1000):
        M = rng.standard_normal((n, n))
        G = 0.5 * (M + M.T)
        got = sparsepsd_lmo(G, mode="both")
        brute = min(SparsePsdAtom(i, j, s).inner(G)
                    for i in range(n) for j in range(i + 1, n) for s in (1, -1))
        assert got.inner(G) == brute

    hits = 0
    eps = 0.5
    for trial in range(1000):
        n = int(rng.integers(5, 101))
        M = rng.standard_normal((n, n))
        G = 0.5 * (M + M.T)
        res = spect_lmo(G, eps=eps, t=1.0, seed=trial)
        lam_min = float(dense_eig_oracle(G)[0][-1])
        if float(np.vdot(G, res.atom.point)) <= lam_min + eps + 1e-12:
            hits += 1
    assert hits >= 950
    print(f"CRITERION  4 PASS: 1000 exact scans per vector/sparse domain "
          f"matched bitwise; spectahedron {hits}/1000 within eps'")


def test_criterion_05_rank_lower_bound():
    n = 12
    rng = make_rng(1005)
    for k in range(1, n + 1):
        out = spect_lowrank_lowerbound_suite(n, k, seed=k, samples=100)
        assert out["sample_min"] >= 1.0 / k - 1e-10
        for _ in range(50):
            X = random_low_rank_psd(n, k, rng)
            grad = 2.0 * X
            lam_min = float(dense_eig_oracle(grad)[0][-1])
            gap = float(np.vdot(X, grad)) - lam_min
            assert gap >= 1.0 / k - 1e-10, (k, gap)

    obj = squared_norm(curvature_bound=2.0)
    for steps in (0, 5, 15, 40, 100):
        run = hazan_run(obj, n=n, t=1.0, stop=StopRule(max_iters=steps),
                        lmo_mode="approx", seed=0)
        assert run.factored.rank() <= steps + 1
        evals = np.linalg.eigvalsh(run.point)
        assert int(np.sum(evals > 1e-9)) <= steps + 1
        for row in run.trace.rows:
            assert row.f <= 1.0 / n + 16.0 / (row.k + 2.0) + 1e-10
    print("CRITERION  5 PASS: rank<=k samples at n=12 respect f,gap >= 1/k; "
          "iterate rank <= k+1 with f <= 1/12 + 16/(k+2)")


def test_criterion_06_norm_oracle_equivalence():
    rng = make_rng(1006)
    nuc_checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        Z = rng.standard_normal((m, n))
        nuc = nuclear_norm_oracle(Z)
        t = float(rng.uniform(0.4, 1.8) * max(2.0 * nuc, 1e-3))
        if abs(2.0 * nuc - t) <= 1e-8:
            continue
        assert nuclear_sdp_feasible(Z, t) == (nuc <= t / 2.0)
        nuc_checked += 1
    assert nuc_checked >= 190

    max_checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        Z = rng.standard_normal((m, n))
        mn = max_norm_oracle(Z, tol=1e-6)
        t = float(rng.uniform(0.4, 1.8) * max(mn, 1e-3))
        if abs(mn - t) <= 1e-3 * max(1.0, mn):
            continue
        assert maxnorm_sdp_feasible(Z, t) == (mn <= t)
        max_checked += 1
    assert max_checked >= 150
    print(f"CRITERION  6 PASS: nuclear feasibility == ||Z||_nuc <= t/2 on "
          f"{nuc_checked}/200; max-norm analog on {max_checked}/200")


def _find_ml100k():
    cand = os.environ.get("CONDGRAD_ML100K")
    if cand and os.path.exists(cand):
        return cand
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for rel in ("data/ml-100k/u.data", "data/u.data", "ml-100k/u.data"):
        p = os.path.join(here, rel)
        if os.path.exists(p):
            return p
    return None


def test_criterion_07_movielens_reproduction():
    path = _find_ml100k()
    if path is None:
        print("CRITERION  7 SKIP: MovieLens 100k u.data not found; set "
              "CONDGRAD_ML100K or place it at data/ml-100k/u.data")
        pytest.skip("MovieLens 100k data not available in this environment")
    start = time.perf_counter()
    ds = load_movielens(path)
    assert (ds.m, ds.n, ds.n_train) == (943, 1682, 100000)
    ds = split_train_test(ds, "random_fraction", rho=0.5, seed=0)
    assert abs(ds.n_train - 50000) <= 1
    res = complete(ds, t=9975.0, steps=15, line_search=True, seed=0)
    elapsed = time.perf_counter() - start
    nmae = res.final["nmae_test"]
    assert 0.195 <= nmae <= 0.215, nmae
    assert res.matvecs <= 3 * 33, res.matvecs
    assert elapsed < 60.0
    print(f"CRITERION  7 PASS: NMAE {nmae:.4f} in [0.195,0.215], "
          f"matvecs {res.matvecs} <= 99, {elapsed:.1f}s")


def test_criterion_08_line_search_consistency():
    rng = make_rng(1008)
    cells = [(i, j) for i in range(6) for j in range(5)]
    triples = [(i, j, float(rng.uniform(1, 5))) for i, j in cells[:22]]
    ds = RatingDataset.from_triples(6, 5, triples)
    y = ds.train_y
    ref = ObjectiveOracle(eval=lambda p: 0.5 * float((p - y) @ (p - y)),
                          grad=lambda p: p - y)
    _, store = squared_loss_objective(ds, t=1.0)
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.2, 5.0))
        store.x = rng.standard_normal(len(store.x))
        v = rng.standard_normal(ds.m + ds.n)
        v /= np.linalg.norm(v)
        a_closed = closed_form_alpha(store, y, v, t)
        s = t * v[:ds.m][ds.train_i] * v[ds.m:][ds.train_j]
        a_bis = line_search_alpha(ref, store.train_values.copy(), s)
        worst = max(worst, abs(a_closed - a_bis))
        assert abs(a_closed - a_bis) <= 1e-8
    print(f"CRITERION  8 PASS: closed-form alpha == bisection on 100 random "
          f"completion states; max |diff| {worst:.2e}")


def test_criterion_09_sdp_feasibility():
    eps = 0.05
    budget = 20 * math.log(5) / eps ** 2
    for seed in range(5):
        rng = make_rng(2000 + seed)
        V = rng.standard_normal((10, 10))
        X0 = V @ V.T
        X0 /= np.trace(X0)
        A = []
        for _ in range(5):
            M = rng.standard_normal((10, 10))
            A.append(0.5 * (M + M.T))
        b = np.array([float(np.vdot(Ai, X0)) + 0.1 for Ai in A])
        sdp = FeasibilitySDP(n=10, A=A, b=b, t=1.0)
        out = solve_eps_feasible(sdp, eps, seed=0)
        assert out.status == "feasible", seed
        assert out.max_violation <= eps, (seed, out.max_violation)
        assert out.iterations <= budget, (seed, out.iterations)

    infeas = FeasibilitySDP(n=10, A=[-np.eye(10)], b=[-2.0], t=1.0)
    out = solve_eps_feasible(infeas, 0.5, seed=0)
    assert out.status == "infeasible"
    assert out.f_lower is not None and out.f_lower > 0.5
    print("CRITERION  9 PASS: 5 planted feasible instances solved to "
          "violation <= 0.05 inside the eigen budget; trace-deficient "
          "instance certified infeasible")


def test_criterion_10_weak_duality_everywhere():
    """Recorded gap certificates (oracle slack folded in where the LMO is
    approximate) must dominate the primal error on every trace row."""
    runs = []

    for n in (5, 30):
        obj, dom = simplex_quadratic(n)
        runs.append(("simplex-n%d" % n, 1.0 / n,
                     fw_run(obj, dom, stop=StopRule(max_iters=300),
                            lmo_mode="exact").trace))
    obj, dom = simplex_quadratic(30)
    runs.append(("simplex-cert", 1.0 / 30,
                 gap_certified_run(obj, dom, 0.1, lmo_mode="exact").trace))

    r = np.zeros(12)
    r[0] = 0.3
    runs.append(("l1", 0.0,
                 fw_run(squared_distance(r), L1BallDomain(12, 1.5),
                        stop=StopRule(max_iters=200), lmo_mode="exact").trace))

    r = np.full(9, 0.4)
    runs.append(("cube", 0.0,
                 fw_run(squared_distance(r), CubeDomain(9),
                        stop=StopRule(max_iters=150),
                        schedule=StepSchedule.line_search(),
                        lmo_mode="exact").trace))

    runs.append(("spect-exact", 1.0 / 10,
                 fw_run(squared_norm(), SpectrahedronDomain(10, 1.0),
                        stop=StopRule(max_iters=120), lmo_mode="exact").trace))
    runs.append(("spect-approx", 1.0 / 12,
                 hazan_run(squared_norm(curvature_bound=2.0), n=12, t=1.0,
                           stop=StopRule(max_iters=80), lmo_mode="approx",
                           seed=3).trace))

    target = SparsePsdAtom(0, 1, 1).matrix(8)
    runs.append(("sparsepsd", 0.0,
                 sparsepsd_run(squared_distance(target), n=8,
                               stop=StopRule(max_iters=50)).trace))

    runs.append(("maxdiag", 0.0,
                 maxdiag_run(squared_distance(np.zeros((3, 3))), n=3, t=1.0,
                             stop=StopRule(max_iters=40)).trace))

    violations = 0
    rows = 0
    for name, fstar, trace in runs:
        for row in trace.rows:
            rows += 1
            if row.gap + 1e-9 < row.f - fstar:
                violations += 1
    assert violations == 0, f"{violations} weak-duality violations"
    assert rows > 900
    print(f"CRITERION 10 PASS: gap certificate >= primal error on all "
          f"{rows} recorded iterates across {len(runs)} runs; 0 violations")
