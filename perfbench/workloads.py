"""The four benchmark workloads: seeded inputs, one entry-point call each,
and the checks that every returned result must pass.

All inputs are generated here from the seed; the library receives only the
generated arrays.  Each solve calls a public entry point looked up on its
module at call time, so the tracer's patches (see tracer.py) see the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from condgrad import matcomp, sdpfeas, solver
from condgrad.core import StopRule
from condgrad.domains import matrices
from condgrad.domains.vectors import SimplexDomain
from condgrad.objectives import squared_distance


# Instances per run.  Each run cycles through several seeded instances, so
# its medians do not hinge on one instance's iteration count.
INSTANCES = 3


@dataclass
class Workload:
    name: str
    sizes: dict                     # "full" and "tiny" keyword sets for make
    make: Callable                  # (seed, **size) -> inputs dict
    solve: Callable                 # inputs -> result of the entry point
    check: Callable                 # (inputs, result) -> list of failure messages
    summarize: Callable             # (inputs, result) -> dict of reported values

    def instance(self, seed, i, size="full"):
        """Input i of the run with seed `seed`.  Instance seeds of different
        run seeds never coincide."""
        return self.make(INSTANCES * seed + i, **self.sizes[size])


def _weak_duality_failures(trace) -> list:
    """f* = 0 on both certified vector/matrix workloads, so every trace row
    must satisfy f_k <= gap_k (weak duality checked from outside)."""
    bad = [r.k for r in trace.rows if not r.f <= r.gap]
    return [f"f > gap on {len(bad)} trace rows, first k={bad[0]}"] if bad else []


def _ledger_atom_bytes(ledger) -> int:
    """Bytes held by the ledger's atoms, computed from their array sizes."""
    return sum(a.point.nbytes + (0 if a.vector is None else a.vector.nbytes)
               for a in ledger.atoms)


# ---------------------------------------------------------------------------
# simplex_cert

def make_simplex(seed, n, eps):
    rng = np.random.default_rng(seed)
    r = rng.dirichlet(np.ones(n))           # a point of the simplex, so f* = 0
    domain = SimplexDomain(n)
    objective = squared_distance(
        r, curvature_bound=solver.curvature_from_hessian(2.0, domain.diam_sq))
    return {"objective": objective, "domain": domain, "eps": eps}


def solve_simplex(inp):
    return solver.gap_certified_run(inp["objective"], inp["domain"], eps=inp["eps"])


def check_simplex(inp, run):
    out = []
    if not run.certified:
        out.append(f"not certified: gap_bound {run.gap_bound} > eps {inp['eps']}")
    f_point = inp["objective"].eval(run.point)
    if not f_point <= run.gap_bound:
        out.append(f"f(point) {f_point} > gap_bound {run.gap_bound}")
    if not inp["domain"].contains(run.point):
        out.append("returned point is outside the simplex")
    return out + _weak_duality_failures(run.trace)


def summarize_simplex(inp, run):
    return {"cert_gap": run.gap_bound,
            "ledger_atom_bytes": _ledger_atom_bytes(run.ledger)}


# ---------------------------------------------------------------------------
# spect_hazan

HAZAN_SPECTRUM = np.array([0.3, 0.25, 0.2, 0.15, 0.1])   # trace 1, rank 5


def make_hazan(seed, n, target_gap, max_iters):
    rng = np.random.default_rng(seed)
    # fixed spectrum, seeded eigenvectors: every seed poses the same problem
    # up to rotation, so the step count (and the time) barely moves with it
    Q, _ = np.linalg.qr(rng.standard_normal((n, len(HAZAN_SPECTRUM))))
    R = (Q * HAZAN_SPECTRUM) @ Q.T
    R = 0.5 * (R + R.T)
    objective = squared_distance(
        R, curvature_bound=solver.curvature_from_hessian(2.0, 2.0))  # diam^2 = 2t^2
    return {"objective": objective, "n": n, "seed": seed,
            "stop": StopRule(max_iters=max_iters, target_gap=target_gap)}


def solve_hazan(inp):
    return matrices.hazan_run(inp["objective"], n=inp["n"], t=1.0, stop=inp["stop"],
                              lmo_mode="approx", seed=inp["seed"])


def check_hazan(inp, run):
    out = []
    final = run.trace.final()
    if not (final.gap <= inp["stop"].target_gap and final.k < inp["stop"].max_iters):
        out.append(f"stopped on the step cap, not the gap (k={final.k}, gap={final.gap})")
    return out + _weak_duality_failures(run.trace)


def summarize_hazan(inp, run):
    return {"cert_gap": run.trace.final().gap,
            "ledger_atom_bytes": _ledger_atom_bytes(run.ledger)}


# ---------------------------------------------------------------------------
# matcomp_synth

def make_matcomp(seed, m, n, entries, rank, t, steps):
    rng = np.random.default_rng(seed)
    keys = np.zeros(0, dtype=np.int64)        # distinct (user, item) pairs
    while len(keys) < entries:
        keys = np.sort(np.concatenate([keys, rng.integers(0, m * n, entries - len(keys))]))
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    i, j = keys // n, keys % n
    U = rng.standard_normal((m, rank))
    V = rng.standard_normal((n, rank))
    signal = np.einsum("ij,ij->i", U[i], V[j]) / math.sqrt(rank)
    y = np.clip(np.rint(3.5 + signal + 0.5 * rng.standard_normal(entries)), 1, 5)
    empty = np.zeros(0, dtype=np.int64)
    full = matcomp.RatingDataset(m, n, i.astype(np.int64), j.astype(np.int64), y,
                                 empty, empty, np.zeros(0))
    ds = matcomp.split_train_test(full, "random_fraction", rho=0.5, seed=seed)
    return {"ds": ds, "t": t, "steps": steps, "seed": seed}


def solve_matcomp(inp):
    return matcomp.complete(inp["ds"], t=inp["t"], steps=inp["steps"],
                            line_search=True, normalize=False, seed=inp["seed"])


def _rmse_from_factors(ds, L, R):
    pred = np.einsum("ij,ij->i", L[ds.test_i], R[ds.test_j])
    return float(np.sqrt(np.mean((pred - ds.test_y) ** 2)))


def check_matcomp(inp, res):
    out = []
    fs = [h["f"] for h in res.history]
    # exact line search cannot raise f; allow only float rounding
    rises = [k for k in range(1, len(fs)) if fs[k] > fs[k - 1] * (1.0 + 1e-12)]
    if rises:
        out.append(f"f increased at {len(rises)} steps, first k={rises[0]}")
    ref = res.store.recompute(res.factored)
    if not np.allclose(ref, res.store.x, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(ref).max())):
        out.append("prediction store out of sync with the factored iterate")
    rmse = _rmse_from_factors(inp["ds"], res.L, res.R)
    if not math.isclose(rmse, res.final["rmse_test"], rel_tol=1e-9):
        out.append(f"rmse_test from L, R is {rmse}, reported {res.final['rmse_test']}")
    return out


def summarize_matcomp(inp, res):
    # the trace's gap column is uncertified here (fixed power budgets), so
    # test RMSE is the quality figure
    return {"rmse_test": res.final["rmse_test"]}


# ---------------------------------------------------------------------------
# sdp_infeas

def make_sdp(seed, n, pairs, eps, rhs):
    rng = np.random.default_rng(seed)
    A = []
    for _ in range(pairs):
        B = rng.standard_normal((n, n))
        S = 0.5 * (B + B.T)
        S /= np.abs(np.linalg.eigvalsh(S)).max()           # unit spectral norm
        A += [S, -S]
    # A.X <= -rhs and -A.X <= -rhs cannot both hold: every X violates one by rhs
    sdp = sdpfeas.FeasibilitySDP(n=n, A=A, b=np.full(2 * pairs, -rhs), t=1.0)
    return {"sdp": sdp, "eps": eps, "seed": seed}


def solve_sdp(inp):
    return sdpfeas.solve_eps_feasible(inp["sdp"], inp["eps"], seed=inp["seed"])


def check_sdp(inp, out):
    if out.status != "infeasible":
        return [f"status {out.status!r}, expected 'infeasible'"]
    fails = []
    if not out.f_lower > inp["eps"]:
        fails.append(f"f_lower {out.f_lower} <= eps {inp['eps']}")
    sdp = inp["sdp"]
    for where, X in (("returned X", out.X), ("I/n", np.eye(sdp.n) * (sdp.t / sdp.n))):
        fX = sdpfeas.softmax_eval_grad(sdp, out.sigma, X)[0]
        if not out.f_lower <= fX:
            fails.append(f"f_lower {out.f_lower} > f({where}) {fX}")
    return fails


def summarize_sdp(inp, out):
    return {"cert_gap": out.gap_bound, "f_lower": out.f_lower,
            "matvecs_reported": out.matvecs}


WORKLOADS = {w.name: w for w in [
    # no eigen code: the time is the fw_run loop, ledger steps and objective
    # evals, and the memory is dense ledger atoms (compact atoms should move it)
    Workload("simplex_cert",
             {"full": dict(n=20000, eps=0.01), "tiny": dict(n=300, eps=0.05)},
             make_simplex, solve_simplex, check_simplex, summarize_simplex),
    # dense large-n eigen work on BLAS gemv, dense n x n iterate and atoms
    Workload("spect_hazan",
             {"full": dict(n=600, target_gap=0.05, max_iters=400),
              "tiny": dict(n=30, target_gap=0.2, max_iters=400)},
             make_hazan, solve_hazan, check_hazan, summarize_hazan),
    # sparse bincount residual operator, already-factored iterate, no ledger
    Workload("matcomp_synth",
             {"full": dict(m=943, n=1682, entries=100_000, rank=10, t=9975.0, steps=100),
              "tiny": dict(m=40, n=60, entries=800, rank=3, t=200.0, steps=20)},
             make_matcomp, solve_matcomp, check_matcomp, summarize_matcomp),
    # certified infeasibility: small-n power iterations dominated by Python
    # overhead, and the only workload that runs softmax_eval_grad
    Workload("sdp_infeas",
             {"full": dict(n=40, pairs=5, eps=0.4, rhs=0.8),
              "tiny": dict(n=6, pairs=1, eps=0.5, rhs=0.8)},
             make_sdp, solve_sdp, check_sdp, summarize_sdp),
]}
