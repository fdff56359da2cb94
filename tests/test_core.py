import numpy as np
import pytest

from condgrad.core import (
    Atom,
    IterateLedger,
    LmoResult,
    ObjectiveOracle,
    RunTrace,
    StepSchedule,
    StopRule,
    TraceRow,
    WEIGHT_PRUNE_TOL,
    make_rng,
)


def test_atom_is_frozen():
    a = Atom(point=np.array([1.0, 0.0]), label="e0")
    with pytest.raises(Exception):
        a.label = "other"


def test_lmo_result_defaults():
    r = LmoResult(Atom(np.zeros(2), "0"))
    assert r.matvecs == 0 and r.slack == 0.0


def test_ledger_reconstructs_convex_combination():
    led = IterateLedger()
    led.seed(Atom(np.array([1.0, 0.0]), "e0"))
    led.step(Atom(np.array([0.0, 1.0]), "e1"), alpha=0.25)
    x = led.reconstruct()
    assert np.allclose(x, [0.75, 0.25])
    assert abs(led.weight_sum() - 1.0) <= 1e-12


def test_ledger_merges_repeated_atoms_by_label():
    led = IterateLedger()
    led.seed(Atom(np.array([1.0, 0.0]), "e0"))
    for _ in range(5):
        led.step(Atom(np.array([0.0, 1.0]), "e1"), alpha=0.5)
    assert led.support_size() == 2
    assert abs(led.weight_sum() - 1.0) <= 1e-12


def test_ledger_prunes_vanishing_weights():
    led = IterateLedger()
    led.seed(Atom(np.array([1.0, 0.0]), "e0"))
    # alpha=1 wipes the old atom entirely
    led.step(Atom(np.array([0.0, 1.0]), "e1"), alpha=1.0)
    assert led.support_size() == 1
    assert led.atoms[0].label == "e1"
    # decay an atom below the prune threshold
    led = IterateLedger()
    led.seed(Atom(np.array([1.0, 0.0]), "e0"))
    for _ in range(60):
        led.step(Atom(np.array([0.0, 1.0]), "e1"), alpha=0.5)
    assert led.support_size() == 1  # (1/2)^60 < 1e-15
    assert all(w >= WEIGHT_PRUNE_TOL for w in led.weights)


def test_harmonic_schedule_values():
    s = StepSchedule.harmonic()
    assert s.alpha_at(0) == 1.0
    assert s.alpha_at(1) == pytest.approx(2.0 / 3.0)
    assert s.alpha_at(98) == pytest.approx(0.02)


def test_two_phase_schedule_freezes_after_K():
    s = StepSchedule.two_phase(16)
    assert s.alpha_at(15) == pytest.approx(2.0 / 17.0)
    assert s.alpha_at(16) == pytest.approx(2.0 / 18.0)
    assert s.alpha_at(33) == pytest.approx(2.0 / 18.0)


def test_stop_rule_requires_a_criterion():
    with pytest.raises(ValueError):
        StopRule()
    StopRule(max_iters=3)
    StopRule(target_gap=0.1)
    StopRule(max_iters=3, target_lower=-float("inf"))


def test_trace_round_trips_through_csv():
    tr = RunTrace()
    tr.append(0, 1.0, 2.0, 1.0, "e1", 0, 3)
    tr.append(1, 5.0 / 9.0, 2.0 / 3.0, 2.0 / 3.0, "e0", 0, 4)
    text = tr.to_csv()
    assert text.splitlines()[0] == "k,f,gap,alpha,atom,matvecs,millis"
    back = RunTrace.from_csv(text)
    for a, b in zip(tr.rows, back.rows):
        assert a == b  # repr floats survive the round trip exactly


def test_trace_rejects_nonmonotone_iterations():
    tr = RunTrace()
    tr.append(3, 1.0, 1.0, 0.5, "a", 0, 0)
    with pytest.raises(AssertionError):
        tr.append(2, 1.0, 1.0, 0.5, "a", 0, 0)


def test_rng_streams_are_deterministic_and_split():
    a = make_rng(42).standard_normal(4)
    b = make_rng(42).standard_normal(4)
    assert np.array_equal(a, b)


def _fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_objective_oracle_gradient_matches_finite_differences():
    rng = make_rng(0)
    Q = rng.standard_normal((4, 4))
    Q = Q @ Q.T + np.eye(4)
    obj = ObjectiveOracle(eval=lambda x: float(x @ Q @ x),
                          grad=lambda x: 2.0 * Q @ x, name="quad")
    x = rng.standard_normal(4)
    assert np.allclose(obj.grad(x), _fd_gradient(obj.eval, x), atol=1e-5)


@pytest.mark.parametrize("module", ["condgrad", "condgrad.domains"])
def test_every_exported_name_resolves(module):
    # a star import raises AttributeError on a name in __all__ that the module lacks
    exec(f"from {module} import *", {})
