"""Seeded runs whose traces and results must stay byte-identical.

Each case runs one public entry point and produces its trace CSV with the
millis column stripped (the one column excluded from determinism checks),
plus digests of the returned iterate and ledger.  The committed copies live
in tests/data/golden/.  After an intended numerical change, regenerate the
cases it changes, by name, with

    PYTHONPATH=src python tests/test_golden_traces.py sdpfeas_infeasible ...

which rewrites only those CSVs and results.json entries; with no names it
rewrites every case.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from condgrad.core import StepSchedule, StopRule
from condgrad.domains.matrices import SpectrahedronDomain, sparsepsd_run
from condgrad.domains.vectors import CubeDomain, L1BallDomain, SimplexDomain
from condgrad.matcomp import RatingDataset, complete, split_train_test
from condgrad.objectives import least_squares, squared_distance
from condgrad.sdpfeas import FeasibilitySDP, solve_eps_feasible
from condgrad.solver import curvature_from_hessian, fw_run, gap_certified_run

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"


def _strip_millis(csv_text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in csv_text.splitlines())


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def _digest(point, ledger=None, **extra) -> dict:
    out = {"point": _sha1(np.ascontiguousarray(point, dtype=float).tobytes())}
    if ledger is not None:
        out["weights"] = _sha1(np.asarray(ledger.weights, dtype=float).tobytes())
        out["labels"] = _sha1("\n".join(a.label for a in ledger.atoms).encode())
    out.update({k: repr(v) for k, v in extra.items()})
    return out


def _simplex_problem(n=40, seed=0):
    r = np.random.default_rng(seed).dirichlet(np.ones(n))
    dom = SimplexDomain(n)
    return squared_distance(r, curvature_bound=curvature_from_hessian(2.0, dom.diam_sq)), dom


def _lasso_problem(n=30, t=2.0, seed=1):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((20, n))
    b = A @ np.where(rng.uniform(size=n) < 0.2, rng.standard_normal(n), 0.0)
    dom = L1BallDomain(n, t)
    sup = 2.0 * float(np.linalg.eigvalsh(A.T @ A).max())
    return least_squares(A, b, curvature_bound=curvature_from_hessian(sup, dom.diam_sq)), dom


def _cube_problem(n=8, seed=2):
    r = np.random.default_rng(seed).uniform(-2.0, 2.0, size=n)
    dom = CubeDomain(n)
    return squared_distance(r, curvature_bound=curvature_from_hessian(2.0, dom.diam_sq)), dom


def _spect_problem(n=12, seed=3):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, 3)))
    R = (Q * np.array([0.5, 0.3, 0.2])) @ Q.T
    R = 0.5 * (R + R.T)
    return squared_distance(R, curvature_bound=curvature_from_hessian(2.0, 2.0)), n


def _fw(objective, domain, iters, schedule, lmo_mode="exact", seed=0):
    res = fw_run(objective, domain, stop=StopRule(max_iters=iters), schedule=schedule,
                 lmo_mode=lmo_mode, seed=seed)
    return res.trace, _digest(res.point, res.ledger, stopped_on=res.stopped_on,
                              matvecs=res.matvecs)


def _cert(objective, domain, eps, lmo_mode="exact", seed=0):
    run = gap_certified_run(objective, domain, eps, lmo_mode=lmo_mode, seed=seed)
    return run.trace, _digest(run.point, run.ledger, gap_bound=run.gap_bound,
                              k_hat=run.k_hat, certified=run.certified)


H = StepSchedule.harmonic
LS = StepSchedule.line_search


def case_simplex_cert_exact():
    return _cert(*_simplex_problem(), eps=0.05)


def case_simplex_cert_approx():
    return _cert(*_simplex_problem(seed=5), eps=0.05, lmo_mode="approx")


def case_simplex_harmonic():
    return _fw(*_simplex_problem(seed=1), 60, H())


def case_simplex_line_search():
    return _fw(*_simplex_problem(seed=1), 60, LS())


def case_l1_harmonic():
    return _fw(*_lasso_problem(), 60, H())


def case_l1_line_search():
    return _fw(*_lasso_problem(), 60, LS())


def case_l1_cert():
    r = np.random.default_rng(6).standard_normal(10)
    dom = L1BallDomain(10, 1.0)
    obj = squared_distance(2.0 * r / np.abs(r).sum(),
                           curvature_bound=curvature_from_hessian(2.0, dom.diam_sq))
    return _cert(obj, dom, eps=0.2)


def case_cube_harmonic():
    return _fw(*_cube_problem(), 40, H())


def case_cube_line_search():
    return _fw(*_cube_problem(), 40, LS())


def case_spect_exact_harmonic():
    obj, n = _spect_problem()
    return _fw(obj, SpectrahedronDomain(n), 30, H())


def case_spect_exact_line_search():
    obj, n = _spect_problem()
    return _fw(obj, SpectrahedronDomain(n), 30, LS())


def case_spect_approx_harmonic():
    obj, n = _spect_problem(n=20, seed=7)
    return _fw(obj, SpectrahedronDomain(n), 30, H(), lmo_mode="approx", seed=2)


def case_spect_approx_line_search():
    obj, n = _spect_problem(n=20, seed=7)
    return _fw(obj, SpectrahedronDomain(n), 30, LS(), lmo_mode="approx", seed=2)


def case_spect_cert_approx():
    obj, n = _spect_problem(n=10, seed=8)
    return _cert(obj, SpectrahedronDomain(n), eps=0.3, lmo_mode="approx", seed=4)


def case_sparsepsd_line_search():
    rng = np.random.default_rng(10)
    B = rng.standard_normal((6, 6))
    res = sparsepsd_run(squared_distance(0.5 * (B + B.T)), 6, stop=StopRule(max_iters=20),
                        schedule=LS())
    return res.trace, _digest(res.point, res.ledger)


def case_sdpfeas_infeasible():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((6, 6))
    S = 0.5 * (B + B.T)
    S /= np.abs(np.linalg.eigvalsh(S)).max()
    sdp = FeasibilitySDP(n=6, A=[S, -S], b=np.full(2, -0.8), t=1.0)
    out = solve_eps_feasible(sdp, 0.5, seed=3)
    return out.trace, _digest(out.X, status=out.status, f=out.f,
                              f_lower=out.f_lower, gap_bound=out.gap_bound,
                              matvecs=out.matvecs)


def _ratings(seed, m=24, n=16, rank=2):
    """Half of an m x n grid of rounded rank-2 ratings in 1..5, split 80/20."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(m * n, size=(m * n) // 2, replace=False)
    i, j = keys // n, keys % n
    U, V = rng.standard_normal((m, rank)), rng.standard_normal((n, rank))
    y = np.clip(np.rint(3.0 + np.einsum("ij,ij->i", U[i], V[j])), 1, 5)
    full = RatingDataset.from_triples(m, n, np.column_stack([i, j, y]))
    return split_train_test(full, "random_fraction", rho=0.8, seed=seed)


def _complete(ds, **kw):
    res = complete(ds, **kw)
    f = res.factored
    return res.trace, {
        "store": _sha1(res.store.x.tobytes()),
        "L": _sha1(np.ascontiguousarray(res.L).tobytes()),
        "R": _sha1(np.ascontiguousarray(res.R).tobytes()),
        "weights": _sha1(np.asarray(f.weights, dtype=float).tobytes()),
        "vectors": _sha1(np.array(f.vectors).tobytes()),
        "history": _sha1(repr(res.history).encode()),
        "final": _sha1(repr(res.final).encode()),
        "matvecs": repr(res.matvecs)}


def case_complete_line_search():
    return _complete(_ratings(12), t=100.0, steps=30, seed=0)


def case_complete_normalize_eps():
    return _complete(_ratings(14), t=40.0, eps=1.0, normalize=True, seed=2)


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items())
         if name.startswith("case_")}


def _render(name):
    trace, digest = CASES[name]()
    return _strip_millis(trace.to_csv()), digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_and_result_match_golden(name):
    csv, digest = _render(name)
    assert csv == (GOLDEN / f"{name}.csv").read_text()
    assert digest == json.loads((GOLDEN / "results.json").read_text())[name]


def test_golden_set_holds_exactly_the_cases():
    # _write never deletes a CSV, so a removed or renamed case leaves one behind
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(CASES)
    assert sorted(json.loads((GOLDEN / "results.json").read_text())) == sorted(CASES)


def _write(names=()):
    """Rewrite the named cases' CSVs and results.json entries, keeping the
    other entries; with no names, rewrite every case and drop stale entries."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases {unknown}; known: {' '.join(sorted(CASES))}")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    results_path = GOLDEN / "results.json"
    results = json.loads(results_path.read_text()) if names else {}
    for name in names or sorted(CASES):
        csv, results[name] = _render(name)
        (GOLDEN / f"{name}.csv").write_text(csv)
    results_path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


def test_write_by_name_rewrites_only_the_named_cases(tmp_path, monkeypatch):
    results = json.loads((GOLDEN / "results.json").read_text())
    stale = {**results, "cube_harmonic": {"point": "stale"}, "l1_cert": {"point": "stale"}}
    (tmp_path / "results.json").write_text(json.dumps(stale))
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    _write(["cube_harmonic"])
    got = json.loads((tmp_path / "results.json").read_text())
    assert got == {**results, "l1_cert": {"point": "stale"}}
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["cube_harmonic.csv"]
    assert ((tmp_path / "cube_harmonic.csv").read_text()
            == (GOLDEN / "cube_harmonic.csv").read_text())
    with pytest.raises(SystemExit, match="unknown cases"):
        _write(["no_such_case"])


if __name__ == "__main__":
    _write(sys.argv[1:])
