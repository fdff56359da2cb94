"""The factored spectahedron iterate and the simplex iterate on its support,
against the dense ones.

From its first row on, fw_run keeps X = t * sum_j w_j v_j v_j^T factored
(GramLedger) for f = ||X - R||^2 with the approximate oracle, and a simplex
x on its support (SupportLedger) for f = ||x - r||^2 in either mode.  The
same objective without a recorded target takes the dense path
(DenseIterate), so every run here is made twice and the two traces must
agree row by row: same length, f and the certified gap within 1e-10
relative (one long run excepted, see below).  On the spectahedron the
floating-point order differs, so the eigenvectors (and the atom labels)
differ in their last bits.  On the simplex the gradient entries, the
oracle's atoms and the steps keep the dense bits, so harmonic and certified
runs return the same labels, weights and point bit for bit; f and the gap
come from closed forms, so they agree only to rounding.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condgrad.core import IterateLedger, StepSchedule, StopRule
from condgrad.domains.matrices import (FactoredPSD, GramLedger, SparsePsdDomain,
                                       SpectrahedronDomain, BoundedDiagDomain,
                                       hazan_run, maxdiag_run, rank_one_atom)
from condgrad.domains.vectors import (SimplexDomain, SupportGradient, SupportLedger,
                                      simplex_lmo)
from condgrad.objectives import squared_distance, squared_norm
from condgrad.sdpfeas import FeasibilitySDP
from condgrad.solver import (DenseIterate, RunResult, curvature_from_hessian, fw_run,
                             gap_certified_run)

REL = 1e-10


def _target(n, seed, spectrum=(0.5, 0.3, 0.2)):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, len(spectrum))))
    R = (Q * np.array(spectrum)) @ Q.T
    return 0.5 * (R + R.T)


def _dense_twin(objective):
    """The same eval and grad with no recorded target: fw_run steps X dense."""
    return dataclasses.replace(objective, target=None)


def _assert_rows_agree(fact, dense, rel=REL, floor_ulps=0):
    """Row by row: f and the gap within rel relative, or within floor_ulps
    ulps of the row's f."""
    assert len(fact.rows) == len(dense.rows)
    for a, b in zip(fact.rows, dense.rows):
        assert a.k == b.k
        floor = floor_ulps * np.spacing(max(abs(a.f), abs(b.f)))
        for x, y in ((a.f, b.f), (a.gap, b.gap)):
            assert abs(x - y) <= max(rel * max(abs(x), abs(y)), floor), (a, b)


PROBLEMS = [  # (n, objective)
    (8, squared_norm(curvature_bound=2.0)),
    (12, squared_distance(_target(12, 1), curvature_bound=curvature_from_hessian(2.0, 2.0))),
    (30, squared_distance(_target(30, 2, (0.4, 0.3, 0.2, 0.1)), curvature_bound=4.0)),
    (50, squared_distance(_target(50, 3, (0.7, 0.6)), curvature_bound=4.0)),  # outside
]


# The n = 8 line search reaches the optimum X = I/8 at row 7.  There the
# eigensolves end on the invariance break, so the slack is rounding level,
# and each gap <X, G> - t lambda_min(G) + slack is rounding too: two terms of
# size 2f = 1/4 apart by noise (at row 7, 3.0e-15 on the factored path and
# 2.2e-15 on the dense one).  No relative bound holds between two such
# values.  An inner product over the n^2 entries of X and G rounds by at most
# n^2 ulps of its terms' absolute sum, here 2f, so the two paths' gaps may
# differ by twice that: the floor is 4 n^2 ulps of f (the largest difference
# seen is 77 ulps, against 256).
@pytest.mark.parametrize("n,obj", PROBLEMS)
@pytest.mark.parametrize("schedule", [StepSchedule.harmonic(), StepSchedule.line_search()],
                         ids=["harmonic", "line_search"])
def test_factored_and_dense_runs_agree_on_every_row(n, obj, schedule):
    dom = SpectrahedronDomain(n)
    runs = [fw_run(o, dom, stop=StopRule(max_iters=40), schedule=schedule,
                   lmo_mode="approx", seed=7) for o in (obj, _dense_twin(obj))]
    assert isinstance(runs[0].ledger, GramLedger)
    assert not isinstance(runs[1].ledger, GramLedger)
    _assert_rows_agree(runs[0].trace, runs[1].trace, floor_ulps=4 * n * n)


# The n = 30 run has 162 rows and ends near f* = 0, where the iteration
# itself amplifies last-bit differences: moving one entry of R by one ulp
# moves the dense run's gaps by up to 1.8e-8 relative there.
@pytest.mark.parametrize("n,obj,rel", [(*PROBLEMS[0], REL), (*PROBLEMS[1], REL),
                                       (*PROBLEMS[2], 1e-7)])
def test_factored_and_dense_certified_runs_agree(n, obj, rel):
    runs = [gap_certified_run(o, SpectrahedronDomain(n), eps=0.4, lmo_mode="approx", seed=4)
            for o in (obj, _dense_twin(obj))]
    _assert_rows_agree(runs[0].trace, runs[1].trace, rel)
    assert runs[0].k_hat == runs[1].k_hat and runs[0].certified == runs[1].certified
    assert abs(runs[0].gap_bound - runs[1].gap_bound) <= rel * runs[1].gap_bound
    assert np.allclose(runs[0].point, runs[1].point, atol=1e-9)


def test_exact_mode_stays_dense_and_approx_mode_is_factored():
    obj = squared_distance(_target(10, 4), curvature_bound=2.0)
    run = hazan_run(obj, n=10, stop=StopRule(max_iters=5), lmo_mode="exact")
    assert isinstance(run.ledger, DenseIterate)
    run = hazan_run(obj, n=10, stop=StopRule(max_iters=5))
    assert isinstance(run.ledger, GramLedger)


def test_factored_point_is_built_once_when_read():
    n = 20
    R = _target(n, 5)
    run = hazan_run(squared_distance(R, curvature_bound=2.0), n=n,
                    stop=StopRule(max_iters=25), seed=1)
    assert isinstance(run.ledger, GramLedger)
    X = run.point
    assert run.point is X
    assert np.array_equal(X, X.T)
    assert np.allclose(X, run.ledger.reconstruct(), atol=1e-12)
    assert np.trace(X) == pytest.approx(1.0, abs=1e-12)
    assert run.trace.final().f == pytest.approx(float(np.vdot(X - R, X - R)), rel=1e-10)
    assert np.array_equal(dataclasses.replace(run, point=2 * X).point, 2 * X)


def test_hazan_and_certified_results_build_their_point_when_read():
    # both are RunResults whose point is still a builder after construction:
    # a dense point built up front would cost every caller its memory
    n = 20
    hazan = hazan_run(squared_distance(_target(n, 5), curvature_bound=2.0), n=n,
                      stop=StopRule(max_iters=25), seed=1)
    r = np.linspace(0.0, 1.0, 8) / 4.0
    cert = gap_certified_run(squared_distance(r, curvature_bound=2.0), SimplexDomain(8), eps=0.1)
    assert isinstance(hazan.ledger, GramLedger)
    for res in (hazan, cert):
        assert isinstance(res, RunResult) and callable(vars(res)["_point"])
    assert np.array_equal(hazan.point, hazan.factored.dense())
    assert np.allclose(cert.point, cert.ledger.reconstruct(), atol=1e-12)
    assert not callable(vars(hazan)["_point"]) and not callable(vars(cert)["_point"])


def test_gram_ledger_follows_merges_and_prunes():
    n = 9
    rng = np.random.default_rng(6)
    R = _target(n, 6)
    a, b, c = (rank_one_atom(rng.standard_normal(n), 2.0) for _ in range(3))
    plain = IterateLedger()
    plain.seed(a)
    gram = GramLedger(plain, R)
    for atom, alpha in [(b, 0.5), (c, 0.25), (b, 0.5), (a, 1e-16), (c, 1.0), (a, 0.3)]:
        gram.atom_terms(atom)  # leaves a cached projection for the step
        gram.step(atom, alpha)
        plain.step(atom, alpha)
        assert [x.label for x in gram.atoms] == [x.label for x in plain.atoms]
        assert np.array_equal(gram.weights, plain.weights)
        V = np.array([x.vector for x in gram.atoms])
        assert np.allclose(gram._G, V @ V.T, atol=1e-14)
        assert np.allclose(gram._r, np.einsum("ij,jk,ik->i", V, R, V), atol=1e-14)
        X = plain.reconstruct()
        f, grad = gram.value_and_grad()
        assert f == pytest.approx(float(np.vdot(X - R, X - R)), rel=1e-12)
        u = rng.standard_normal(n)
        assert np.allclose(grad(u), 2.0 * (X - R) @ u, atol=1e-12)


def test_factored_run_memory_is_bounded_by_the_factors():
    # no row, the first included, may allocate a dense n x n array: 8 MB is
    # a quarter of one
    n = 2000
    R = _target(n, 7, (0.4, 0.3, 0.2, 0.1))
    obj = squared_distance(R, curvature_bound=curvature_from_hessian(2.0, 2.0))
    peaks = []

    tracemalloc.start()
    try:
        run = fw_run(obj, SpectrahedronDomain(n), stop=StopRule(max_iters=30),
                     lmo_mode="approx", seed=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert isinstance(run.ledger, GramLedger) and len(run.trace) == 31
    assert peaks[0] < n * n * 8 / 4
    assert run.point.shape == (n, n)


# ---------------------------------------------------------------------------
# the simplex iterate on its support

C = curvature_from_hessian(2.0, 2.0)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _assert_same_iterate(fact, dense):
    assert [a.label for a in fact.ledger.atoms] == [a.label for a in dense.ledger.atoms]
    assert _bits(fact.ledger.weights) == _bits(dense.ledger.weights)
    assert _bits(fact.point) == _bits(dense.point)


def _quantized(n, seed):
    """A point of the simplex with many equal entries, so the oracle breaks
    ties, on and off the support, in most steps."""
    r = np.random.default_rng(seed).integers(1, 4, size=n).astype(float)
    return r / r.sum()


SIMPLEX_PROBLEMS = [  # (n, objective); gaps stay above 1e-3 for 60 steps
    (40, squared_distance(np.random.default_rng(0).dirichlet(np.ones(40)), C)),
    (200, squared_distance(np.random.default_rng(1).dirichlet(np.ones(200)), C)),
    (50, squared_distance(0.3 * np.random.default_rng(2).standard_normal(50), C)),  # outside
    (90, squared_distance(_quantized(90, 3), C)),
    (100, squared_norm(C)),  # the support cannot cover all 100 coordinates
]


@pytest.mark.parametrize("n,obj", SIMPLEX_PROBLEMS)
@pytest.mark.parametrize("mode", ["exact", "approx"])
@pytest.mark.parametrize("schedule", [StepSchedule.harmonic(), StepSchedule.line_search()],
                         ids=["harmonic", "line_search"])
def test_support_and_dense_runs_agree_on_every_row(n, obj, mode, schedule):
    runs = [fw_run(o, SimplexDomain(n), stop=StopRule(max_iters=60), schedule=schedule,
                   lmo_mode=mode, seed=5) for o in (obj, _dense_twin(obj))]
    assert isinstance(runs[0].ledger, SupportLedger)
    assert not isinstance(runs[1].ledger, SupportLedger)
    assert min(r.gap for r in runs[1].trace.rows) > 1e-3
    _assert_rows_agree(runs[0].trace, runs[1].trace)
    if schedule.kind == "harmonic":
        assert [r.atom for r in runs[0].trace.rows] == [r.atom for r in runs[1].trace.rows]
        _assert_same_iterate(*runs)


@pytest.mark.parametrize("n,obj", SIMPLEX_PROBLEMS)
@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_support_and_dense_certified_runs_return_the_same_iterate(n, obj, mode):
    runs = [gap_certified_run(o, SimplexDomain(n), eps=0.1, lmo_mode=mode, seed=2)
            for o in (obj, _dense_twin(obj))]
    assert callable(vars(runs[0])["_point"])  # a builder: the run was kept on its support
    assert runs[0].k_hat == runs[1].k_hat and runs[0].certified == runs[1].certified
    assert abs(runs[0].gap_bound - runs[1].gap_bound) <= REL * runs[1].gap_bound
    _assert_rows_agree(runs[0].trace, runs[1].trace)
    assert [r.atom for r in runs[0].trace.rows] == [r.atom for r in runs[1].trace.rows]
    _assert_same_iterate(*runs)


def test_support_gradient_has_the_dense_bits_and_argmin():
    # quantized r: many equal entries, spread over blocks of isqrt(n) = 15
    n = 240
    r = _quantized(n, 4)
    obj = squared_distance(r, C)
    seen = []

    def check(k, x, fx, gap):
        _, g = x.value_and_grad()
        dense = 2.0 * (x.point_builder()() - r)
        assert isinstance(g, SupportGradient) and g.n == n
        assert _bits(g.values) == _bits(dense[g.index])
        off = np.setdiff1d(np.arange(n), g.index)
        j = off[np.argmin(dense[off])]
        assert g.off[1] == j and _bits(g.off[0]) == _bits(dense[j])
        assert g.argmin() == np.argmin(dense)
        assert simplex_lmo(g).label == simplex_lmo(dense).label
        seen.append(g.argmin() in g.index)

    fw_run(obj, SimplexDomain(n), stop=StopRule(max_iters=120), on_iterate=check)
    assert any(seen) and not all(seen)  # the oracle picked on and off the support


def test_support_ledger_covering_every_coordinate_has_no_off_entry():
    n = 5
    run = fw_run(squared_norm(C), SimplexDomain(n), stop=StopRule(max_iters=30))
    _, g = run.ledger.value_and_grad()
    assert g.off is None and sorted(g.index) == list(range(n))


def test_eps_zero_spectahedron_runs_stay_dense():
    n = 10
    R = np.diag(np.linspace(0.0, 0.2, n))
    spect = SpectrahedronDomain(n)
    for mode, bound in (("exact", C), ("approx", 0.0)):  # both ask for eps 0
        run = fw_run(squared_distance(R, bound), spect, stop=StopRule(max_iters=5),
                     lmo_mode=mode)
        assert not isinstance(run.ledger, GramLedger)
    assert spect.factored_ledger(squared_distance(R, C), run.ledger, exact_lmo=True) is None


@pytest.mark.parametrize("schedule", [StepSchedule.harmonic(), StepSchedule.line_search()],
                         ids=["harmonic", "line_search"])
def test_support_run_memory_after_the_first_row_is_below_half_a_dense_vector(schedule):
    # the whole run, first row included: no row builds a dense n-vector
    n = 100_000
    r = np.random.default_rng(7).dirichlet(np.ones(n))
    obj = squared_distance(r, C)

    tracemalloc.start()
    try:
        run = fw_run(obj, SimplexDomain(n), stop=StopRule(max_iters=200), schedule=schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(run.ledger, SupportLedger) and len(run.trace) == 201
    assert peak < n * 8 / 2
    assert run.point.shape == (n,)


def test_certified_support_run_memory_is_below_half_a_dense_vector():
    # every row, the first included, and every best-gap snapshot stay on the support
    n = 100_000
    r = np.random.default_rng(7).dirichlet(np.ones(n))
    tracemalloc.start()
    try:
        # eps 0.03: the run stops at its first certified row, 90 rows in
        run = gap_certified_run(squared_distance(r, C), SimplexDomain(n), eps=0.03)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.certified and len(run.trace) == 90
    assert peak < n * 8 / 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_support_gradient_rejects_non_finite_entries(bad):
    g = SupportGradient(4, np.array([2, 0]), np.array([0.5, bad]), (0.0, 1))
    with pytest.raises(ValueError, match="finite"):
        simplex_lmo(g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_support_and_dense_runs_raise_on_a_non_finite_target(bad):
    # max(0, nan) is 0 and NaN comparisons drop the coordinate: unchecked, the
    # support run reports f = 0.25 and every gap 0 for the NaN target
    obj = squared_distance(np.array([0.5, bad, 0.2]), curvature_bound=2.0)
    for o in (obj, _dense_twin(obj)):
        with pytest.raises(FloatingPointError, match="non-finite"):
            fw_run(o, SimplexDomain(3), stop=StopRule(max_iters=5))


# drawn problems: the same agreement away from the fixed grids above

def _drawn_schedule(data, max_iters):
    kind = data.draw(st.sampled_from(["harmonic", "line_search", "two_phase"]))
    if kind == "two_phase":
        return StepSchedule.two_phase(data.draw(st.integers(0, max_iters)))
    return StepSchedule(kind)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_support_and_dense_runs_agree_on_drawn_problems(data):
    # n > max_iters + 1 leaves coordinates off the support, so f and the gap
    # stay away from 0 and relative agreement means something
    max_iters = data.draw(st.integers(1, 40))
    n = data.draw(st.integers(max_iters + 2, 120))
    seed = data.draw(st.integers(0, 2 ** 16))
    kind = data.draw(st.sampled_from(["quantized", "dirichlet", "outside", "zero"]))
    r = {"quantized": lambda: _quantized(n, seed),  # ties on and off the support
         "dirichlet": lambda: np.random.default_rng(seed).dirichlet(np.ones(n)),
         "outside": lambda: 0.3 * np.random.default_rng(seed).standard_normal(n),
         "zero": lambda: 0.0}[kind]()  # every off-support entry ties
    obj = squared_distance(r, C)
    schedule = _drawn_schedule(data, max_iters)
    mode = data.draw(st.sampled_from(["exact", "approx"]))
    runs = [fw_run(o, SimplexDomain(n), stop=StopRule(max_iters=max_iters), schedule=schedule,
                   lmo_mode=mode, seed=seed) for o in (obj, _dense_twin(obj))]
    assert isinstance(runs[0].ledger, SupportLedger)
    assert not isinstance(runs[1].ledger, SupportLedger)
    # as on the grids above: near the optimum of an outside target the gap
    # is a difference of O(1) closed-form terms, equal only to their rounding
    assume(min(row.gap for row in runs[1].trace.rows) > 1e-3)
    _assert_rows_agree(runs[0].trace, runs[1].trace)
    if schedule.kind != "line_search":
        assert ([row.atom for row in runs[0].trace.rows]
                == [row.atom for row in runs[1].trace.rows])
        _assert_same_iterate(*runs)


# Fixed draws: Lanczos breaks once beta is rounding (n ulps of the spectral
# range bound), so past a nearly invariant Krylov space it still divides
# last-bit differences by a small beta (7e-8, then 5e-10 at n = 6, seed 7,
# spectrum (0.4, 0.3, 0.2, 0.1), 5 harmonic steps), and the row-5 f then
# differs by 2e-10 relative, in about one random draw in 700.  A break that
# high would leave out the extreme eigenvector of a start that far from
# orthogonal to it (see spect_lmo), so it stays at rounding level
@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.data())
def test_factored_and_dense_runs_agree_on_drawn_problems(data):
    n = data.draw(st.integers(2, 24))
    seed = data.draw(st.integers(0, 2 ** 16))
    # R = 0 ties the oracle on every row: the smallest eigenvalue of 2X is 0
    # on X's whole null space, and ||X||^2 does not depend on which null
    # vector the oracle takes.  A repeated eigenvalue of a nonzero R is left
    # out: there f does depend on the vector taken from the tied eigenspace,
    # the two paths round to different ones, and their runs part (n = 5, R
    # with eigenvalue 0.25 four times, line search: the row-3 gaps differ by
    # 2e-4 relative, each certified)
    spectrum = data.draw(st.sampled_from([(0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1),
                                          (0.7, 0.6), (0.0,)]))
    R = 0.0 if spectrum == (0.0,) else _target(n, seed, spectrum[:n])
    max_iters = data.draw(st.integers(1, 30))
    obj = squared_distance(R, curvature_bound=4.0)
    schedule = _drawn_schedule(data, max_iters)
    dom = SpectrahedronDomain(n)
    runs = [fw_run(o, dom, stop=StopRule(max_iters=max_iters), schedule=schedule,
                   lmo_mode="approx", seed=seed) for o in (obj, _dense_twin(obj))]
    assert isinstance(runs[0].ledger, GramLedger)
    assert not isinstance(runs[1].ledger, GramLedger)
    # a run that reaches R (f* = 0) ends with f and the gap at rounding level
    assume(min(min(row.f, row.gap) for row in runs[1].trace.rows) > 1e-3)
    _assert_rows_agree(runs[0].trace, runs[1].trace)


# validation that python -O keeps

def test_domain_and_factor_checks_raise_value_error():
    with pytest.raises(ValueError):
        maxdiag_run(squared_norm(), n=0)
    with pytest.raises(ValueError):
        BoundedDiagDomain(2, t=-1.0)
    with pytest.raises(ValueError):
        SparsePsdDomain(1)
    with pytest.raises(ValueError):
        SparsePsdDomain(4, mode="diagonal")
    with pytest.raises(ValueError):
        rank_one_atom(np.zeros(3))
    with pytest.raises(ValueError):
        FactoredPSD(n=2, scale=1.0, weights=[0.5], vectors=[np.array([1.0, 0.0])])
    with pytest.raises(ValueError):
        curvature_from_hessian(-1.0, 2.0)


def test_certified_run_without_curvature_raises_value_error():
    with pytest.raises(ValueError, match="curvature"):
        gap_certified_run(squared_norm(), SpectrahedronDomain(3), eps=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_feasibility_sdp_rejects_non_finite_b(bad):
    with pytest.raises(ValueError, match="finite"):
        FeasibilitySDP(n=2, A=[np.eye(2)], b=[bad])
