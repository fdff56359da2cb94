"""Compact atoms and the array-backed ledger against the dense arithmetic.

The ledger must give the same weights, order and pruning, bit for bit, as
the list implementation it replaced (kept below as the reference), and each
atom's inner, and fw_run's dense step toward it, must give the bits of
<point, grad> and x + alpha (point - x).  A tracemalloc test bounds the memory of a large
simplex run by problem size, not by iterations times dimension.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from condgrad.core import WEIGHT_PRUNE_TOL, Atom, CoordinateAtom, IterateLedger
from condgrad.domains.matrices import rank_one_atom
from condgrad.domains.vectors import SimplexDomain
from condgrad.objectives import squared_distance, squared_norm
from condgrad.solver import DenseIterate, curvature_from_hessian, gap_certified_run


class ListLedger:
    """The list-of-floats ledger the array-backed one replaced."""

    def __init__(self, atom):
        self.atoms, self.weights = [atom], [1.0]

    def step(self, atom, alpha):
        self.weights = [w * (1.0 - alpha) for w in self.weights]
        for i, a in enumerate(self.atoms):
            if a.label == atom.label:
                self.weights[i] += alpha
                break
        else:
            self.atoms.append(atom)
            self.weights.append(alpha)
        keep = [i for i, w in enumerate(self.weights) if w >= WEIGHT_PRUNE_TOL]
        if len(keep) != len(self.weights):
            self.atoms = [self.atoms[i] for i in keep]
            self.weights = [self.weights[i] for i in keep]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _dense_step(x, atom, alpha):
    """x + alpha (point - x) as fw_run's DenseIterate steps it: in place."""
    start = IterateLedger()
    start.seed(atom)
    it = DenseIterate(squared_norm(), start)
    it.x = x
    it.step(atom, alpha)
    assert it.x is x
    return x


FINITE = dict(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100)
alphas = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1e-16, 1.0 - 1e-16]),
                   st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), alphas), max_size=120))
def test_ledger_matches_list_implementation(steps):
    n = 13
    start = CoordinateAtom(n, 0, 1.0, "e0")
    new, old = IterateLedger(), ListLedger(start)
    new.seed(start)
    for i, alpha in steps:
        atom = CoordinateAtom(n, i, 1.0, f"e{i}")
        new.step(atom, alpha)
        old.step(atom, alpha)
        assert [a.label for a in new.atoms] == [a.label for a in old.atoms]
        assert _bits(new.weights) == _bits(old.weights)
    assert new.weight_sum() == float(sum(old.weights))


def test_ledger_rejects_bad_steps():
    led = IterateLedger()
    led.seed(CoordinateAtom(2, 0, 1.0, "e0"))
    for alpha in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            led.step(CoordinateAtom(2, 1, 1.0, "e1"), alpha)
    with pytest.raises(ValueError):
        IterateLedger().reconstruct()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coordinate_atom_matches_dense_arithmetic(data):
    n = data.draw(st.integers(1, 40))
    x = data.draw(hnp.arrays(np.float64, n, elements=st.floats(**FINITE)))
    grad = data.draw(hnp.arrays(np.float64, n, elements=st.floats(**FINITE)))
    atom = CoordinateAtom(n, data.draw(st.integers(0, n - 1)),
                          data.draw(st.sampled_from([1.0, -1.0, 2.5, -0.75])), "a")
    alpha = data.draw(alphas)
    s = atom.point
    assert s.shape == (n,) and np.count_nonzero(s) == 1 and atom.vector is None
    dense_inner = float(np.vdot(s, grad))
    # equal, and equal in bits unless both are zeros of different sign
    assert atom.inner(grad) == dense_inner
    assert _bits(atom.inner(grad)) == _bits(dense_inner) or dense_inner == 0.0
    expect = x + alpha * (s - x)
    assert _bits(_dense_step(x, atom, alpha)) == _bits(expect)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dense_and_rank_one_atoms_match_dense_arithmetic(data):
    n = data.draw(st.integers(1, 8))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    v = data.draw(hnp.arrays(np.float64, n, elements=unit))
    v[0] = 1.0  # nonzero
    atom = rank_one_atom(v, data.draw(st.sampled_from([1.0, 2.0, 0.3])))
    X = data.draw(hnp.arrays(np.float64, (n, n), elements=unit))
    G = data.draw(hnp.arrays(np.float64, (n, n), elements=unit))
    alpha = data.draw(alphas)
    s = atom.point
    assert s is not atom.point  # built on every access, never cached
    assert atom.inner(G) == float(np.vdot(s, G))
    expect = X + alpha * (s - X)
    assert _bits(_dense_step(X, atom, alpha)) == _bits(expect)

    generic = Atom(data.draw(hnp.arrays(np.float64, n, elements=unit)), "g")
    kept = generic.point.copy()
    x = data.draw(hnp.arrays(np.float64, n, elements=unit))
    expect = x + alpha * (generic.point - x)
    assert _bits(_dense_step(x, generic, alpha)) == _bits(expect)
    assert _bits(generic.point) == _bits(kept)  # the stored point is untouched


def test_large_simplex_run_memory_is_bounded_by_problem_size():
    # at n = 1e5 one dense atom is 0.8 MB; a 322-step run held about 250 MB
    # of them when every ledger atom was a dense point.  At eps 0.008 the run
    # stops at its first certified row, 334 rows in
    n = 100_000
    r = np.random.default_rng(0).dirichlet(np.ones(n))
    dom = SimplexDomain(n)
    obj = squared_distance(r, curvature_bound=curvature_from_hessian(2.0, dom.diam_sq))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        run = gap_certified_run(obj, dom, eps=0.008)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.certified and len(run.trace) == 334
    assert run.ledger.support_size() > 300
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB in {seconds:.2f} s"
