"""Command-line front end.

Subcommands:
  solve     config-driven run of a built-in objective over a named domain,
            emitting a trace CSV and a JSON summary
  complete  matrix completion on a ratings file
  sdpfeas   epsilon-feasibility of a constraint SDP problem file
  bench     parameter sweeps aggregated into a CSV (plot data only)

Exit codes: 0 success (certified when a certificate was requested),
1 budget exhausted without a certificate, 2 config/schema error,
3 data error.  The subcommands raise; `main` alone turns an exception
into an exit code, and its docstring states the rule.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import matcomp, sdpfeas
from .core import ObjectiveOracle, StopRule, StepSchedule, clamped_step
from .domains.matrices import SpectrahedronDomain
from .domains.vectors import CubeDomain, L1BallDomain, SimplexDomain
from .eigen import check_symmetric, dense_eig_oracle
from .objectives import least_squares, squared_distance, squared_norm
from .solver import (certified_iteration_count, curvature_from_hessian, fw_run,
                     gap_certified_run)

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


class DataError(ValueError):
    """The contents of a user-named input file were rejected.  Raised in bench
    worker processes too, so it must stay picklable (one message argument)."""


def _data(fn, *args):
    """fn(*args) for a reader of a user-named input file: whatever the reader
    rejects (OSError, ValueError) becomes a DataError."""
    try:
        return fn(*args)
    except (OSError, ValueError) as e:
        raise DataError(str(e)) from None


def _read_json_object(path) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"invalid JSON: {path}: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be an object")
    return obj


def _typed(v, typ, what: str):
    if typ is float and type(v) is int and abs(v) <= sys.float_info.max:
        v = float(v)
    if not isinstance(v, typ) or (isinstance(v, bool) and typ is not bool):
        raise ValueError(f"{what} must be {typ.__name__}")
    return v


def _need(cfg: dict, key: str, typ, where: str):
    if key not in cfg:
        raise ValueError(f"{where}: missing required field {key!r}")
    return _typed(cfg[key], typ, f"{where}: field {key!r}")


def _opt(cfg: dict, key: str, typ, default, where: str):
    if cfg.get(key) is None:
        return default
    return _need(cfg, key, typ, where)


def _choice(cfg: dict, key: str, choices: tuple, where: str) -> str:
    """An optional string field among choices, defaulting to the first."""
    v = _opt(cfg, key, str, choices[0], where)
    if v not in choices:
        raise ValueError(f"{where}: unknown {key} {v!r}")
    return v


def _floats(v) -> np.ndarray:
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, OverflowError) as e:  # a dict, or an int past float range
        raise ValueError(f"expected numbers: {e}") from None


def _out_paths(cfg: dict):
    out = _opt(cfg, "out", dict, {}, "config")
    return _opt(out, "trace", str, None, "out"), _opt(out, "summary", str, None, "out")


# ---------------------------------------------------------------------------
# solve

def _build_domain(spec: dict):
    kind = _need(spec, "kind", str, "domain")
    n = _need(spec, "n", int, "domain")
    if kind == "simplex":
        return SimplexDomain(n)
    if kind == "l1":
        return L1BallDomain(n, _opt(spec, "t", float, 1.0, "domain"))
    if kind == "cube":
        return CubeDomain(n)
    if kind == "spectahedron":
        return SpectrahedronDomain(n, _opt(spec, "t", float, 1.0, "domain"))
    raise ValueError(f"domain: unknown kind {kind!r}")


def _custom_quadratic(path):
    """(Q, c, max(0, top eigenvalue of Q)) from a JSON file {"Q": [[...]], "c": [...]},
    with Q symmetrized and c zero when absent; Q must be finite and PSD, or f is
    not convex."""
    raw = _read_json_object(path)
    if "Q" not in raw:
        raise ValueError(f"custom quadratic file {path}: missing field 'Q'")
    Q = _floats(raw["Q"])
    c = _floats(raw.get("c", np.zeros(Q.shape[:1])))
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or c.shape != Q.shape[:1]:
        raise ValueError(f"custom quadratic file {path}: bad shapes")
    Q = 0.5 * (Q + Q.T)
    if not np.isfinite(Q).all():  # NaN and inf entries, and a sum past float range
        raise ValueError(f"custom quadratic file {path}: Q or (Q + Q^T)/2 is not finite")
    vals, _ = dense_eig_oracle(Q)
    if vals[-1] < -1e-10 * max(1.0, float(np.linalg.norm(Q))):
        raise ValueError(f"custom quadratic file {path}: Q is not positive semidefinite "
                         f"(smallest eigenvalue {vals[-1]:.6g})")
    return Q, c, max(0.0, float(vals[0]))


def _build_objective(spec: dict, domain):
    """The oracle, with its curvature bound filled from the objective Hessian
    and the domain diameter."""
    kind = _need(spec, "kind", str, "objective")
    matrix_shaped = isinstance(domain, SpectrahedronDomain)
    if matrix_shaped and kind != "quadratic":
        raise ValueError(f"objective: {kind!r} needs a vector domain")
    if kind == "quadratic":
        target = spec.get("target")
        if target is not None:
            target = _floats(target).reshape((domain.n,) * (2 if matrix_shaped else 1))
            # the eigensolver needs a symmetric gradient; a non-finite target exits 3 in the solve
            if matrix_shaped and np.isfinite(target).all():
                check_symmetric(target, "objective: target")
            obj = squared_distance(target)
        else:
            obj = squared_norm()
        sup = 2.0  # ||x||^2 or ||x - r||^2
    elif kind in ("least_squares", "lasso"):
        A = _floats(_need(spec, "A", list, "objective"))
        b = _floats(_need(spec, "b", list, "objective"))
        if A.ndim != 2 or not A.size or b.shape != A.shape[:1]:
            raise ValueError("objective: A/b dimension mismatch")
        scale = _opt(spec, "t", float, 1.0, "objective") if kind == "lasso" else \
            _opt(spec, "scale", float, 1.0, "objective")
        obj = least_squares(A, b, scale=scale)
        sup = 2.0 * max(0.0, float(dense_eig_oracle((scale * A).T @ (scale * A))[0][0]))
    elif kind == "custom_quadratic":
        Q, c, sup = _data(_custom_quadratic, _need(spec, "path", str, "objective"))

        def ev(x):
            return 0.5 * float(x @ (Q @ x)) + float(c @ x)

        def gr(x):
            return Q @ x + c

        def hook(x, s):
            d = s - x
            den, slope = float(d @ (Q @ d)), float(gr(x) @ d)
            if den <= 0.0:
                return 0.0 if slope >= 0.0 else 1.0
            return clamped_step(-slope, den)

        obj = ObjectiveOracle(eval=ev, grad=gr, name="custom-quadratic",
                              alpha_hook=hook)
    else:
        raise ValueError(f"objective: unknown kind {kind!r}")
    obj.curvature_bound = curvature_from_hessian(sup, domain.diam_sq)
    return obj


def _write_summary(summary: dict, path):
    text = json.dumps(summary, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _domain_spec(cfg: dict, obj_spec: dict) -> dict:
    """lasso objectives imply the unit l1 ball (the t scaling lives in the
    objective), unless a domain is given explicitly."""
    if obj_spec["kind"] == "lasso" and "domain" not in cfg:
        A = obj_spec.get("A")
        if not isinstance(A, list) or not A or not isinstance(A[0], list):
            raise ValueError("objective: lasso needs a 2-d A")
        return {"kind": "l1", "n": len(A[0]), "t": 1.0}
    return _need(cfg, "domain", dict, "config")


def cmd_solve(args) -> int:
    cfg = _read_json_object(args.config)
    obj_spec = _need(cfg, "objective", dict, "config")
    okind = _need(obj_spec, "kind", str, "objective")
    if okind == "matcomp":
        return _solve_matcomp(cfg, obj_spec)
    if okind == "sdpfeas":
        return _solve_sdpfeas_cfg(cfg, obj_spec)
    dom_spec = _domain_spec(cfg, obj_spec)
    domain = _build_domain(dom_spec)
    eps = _opt(cfg, "eps", float, None, "config")
    max_iters = _opt(cfg, "max_iters", int, None, "config")
    if eps is None and max_iters is None:
        raise ValueError("config: need 'eps' or 'max_iters'")
    schedule = _choice(cfg, "schedule", ("harmonic", "line_search"), "config")
    mode = _choice(cfg, "mode", ("exact", "approx"), "config")
    seed = _opt(cfg, "seed", int, 0, "config")
    trace_path, summary_path = _out_paths(cfg)
    objective = _build_objective(obj_spec, domain)
    if eps is not None and max_iters is not None:
        budget = 2 * certified_iteration_count(objective.curvature_bound, eps, mode) + 1
        if budget > max_iters:
            raise ValueError(f"config: a certified run to eps {eps!r} takes {budget:.12g} "
                             f"steps, more than max_iters {max_iters}")

    certified = None
    if eps is not None:
        run = gap_certified_run(objective, domain, eps, lmo_mode=mode, seed=seed)
        gap, certified, iters = run.gap_bound, run.certified, run.k_hat
    else:
        run = fw_run(objective, domain,
                     stop=StopRule(max_iters=max_iters),
                     schedule=StepSchedule.line_search() if schedule == "line_search"
                     else StepSchedule.harmonic(),
                     lmo_mode=mode, seed=seed)
        gap, iters = run.trace.final().gap, run.trace.final().k
    trace, ledger = run.trace, run.ledger

    if trace_path:
        trace.write_csv(trace_path)
    summary = {
        "objective": okind,
        "domain": dom_spec["kind"],
        "f": trace.rows[iters].f,  # the reported iterate's row: no dense point is built
        "gap": float(gap),
        "iterations": int(iters),
        "support": ledger.support_size(),
        "certified": certified,
        "stopped_on": run.stopped_on,
        "seed": seed,
    }
    _write_summary(summary, summary_path)
    if eps is not None and not certified:
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _solve_matcomp(cfg: dict, spec: dict) -> int:
    trace, summary = _out_paths(cfg)
    ns = argparse.Namespace(
        data=_need(spec, "path", str, "objective"),
        format=_choice(spec, "format", ("tab_100k", "dat_1m"), "objective"),
        t=_need(spec, "t", float, "objective"),
        steps=_opt(spec, "steps", int, 15, "objective"),
        line_search=_opt(spec, "line_search", bool, True, "objective"),
        grad_avg=_opt(spec, "grad_avg", bool, False, "objective"),
        normalize=_choice(spec, "preset", ("as_is", "normalized"), "objective") == "normalized",
        split=_opt(spec, "split", str, "random:0.5", "objective"),
        seed=_opt(cfg, "seed", int, 0, "config"),
        trace=trace, summary=summary,
    )
    return cmd_complete(ns)


def _solve_sdpfeas_cfg(cfg: dict, spec: dict) -> int:
    trace, summary = _out_paths(cfg)
    ns = argparse.Namespace(
        problem=_need(spec, "path", str, "objective"),
        eps=_need(spec, "eps", float, "objective"),
        seed=_opt(cfg, "seed", int, 0, "config"),
        trace=trace, summary=summary,
    )
    return cmd_sdpfeas(ns)


# ---------------------------------------------------------------------------
# complete

def _parse_split(text: str):
    try:
        kind, val = text.split(":", 1)
        if kind == "random":
            return ("random_fraction", {"rho": float(val)})
        if kind == "peruser":
            return ("per_user_holdout", {"r": int(val)})
    except ValueError:
        pass
    raise ValueError(f"--split must be random:<rho> or peruser:<r>, got {text!r}")


def cmd_complete(args) -> int:
    policy, kw = _parse_split(args.split)
    ds = _data(matcomp.load_movielens, args.data, args.format)
    ds = matcomp.split_train_test(ds, policy, seed=args.seed, **kw)
    result = matcomp.complete(
        ds, t=args.t, steps=args.steps, line_search=args.line_search,
        grad_averaging=args.grad_avg, normalize=args.normalize, seed=args.seed)
    if args.trace:
        result.trace.write_csv(args.trace)
    summary = {
        "m": ds.m, "n": ds.n,
        "train": int(ds.n_train), "test": int(ds.n_test),
        "t": args.t, "steps": args.steps,
        "rank": result.factored.rank(),
        "matvecs": result.matvecs,
        **{k: (None if isinstance(v, float) and np.isnan(v) else v)
           for k, v in result.final.items()},
    }
    _write_summary(summary, args.summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sdpfeas

def cmd_sdpfeas(args) -> int:
    sdp = _data(sdpfeas.load_problem, args.problem)
    out = sdpfeas.solve_eps_feasible(sdp, args.eps, seed=args.seed)
    if args.trace:
        out.trace.write_csv(args.trace)
    summary = {
        "status": out.status,
        "n": sdp.n, "m": sdp.m, "t": sdp.t, "eps": args.eps,
        "f": out.f, "max_violation": out.max_violation,
        "f_lower": out.f_lower, "gap_bound": out.gap_bound,
        "iterations": out.iterations, "matvecs": out.matvecs,
        "sigma": out.sigma,
    }
    _write_summary(summary, args.summary)
    return EXIT_OK if out.status in ("feasible", "infeasible") else EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# bench

# Overflow reaches the solvers' finiteness checks and exits 3; numpy's
# RuntimeWarning on the way would add lines to stderr.  The bench point
# functions also run in worker processes, outside main.
@np.errstate(over="ignore", invalid="ignore")
def _bench_k_point(payload):
    n, k_max, seed = payload
    domain = SimplexDomain(n)
    obj = squared_norm()
    obj.curvature_bound = curvature_from_hessian(2.0, domain.diam_sq)
    res = fw_run(obj, domain, stop=StopRule(max_iters=k_max), seed=seed)
    return ["%d,%d,%r,%r,%r" % (n, r.k, r.f, r.f - 1.0 / n,
                                8.0 * obj.curvature_bound / (r.k + 2.0))
            for r in res.trace.rows]


@np.errstate(over="ignore", invalid="ignore")
def _bench_t_point(payload):
    data, fmt, t, steps, seed, rho = payload
    ds = _data(matcomp.load_movielens, data, fmt)
    ds = matcomp.split_train_test(ds, "random_fraction", rho=rho, seed=seed)
    f = matcomp.complete(ds, t=t, steps=steps, seed=seed).final
    return ["%r,%r,%r,%r,%d" % (t, f["rmse_train"], f["rmse_test"], f["nmae_test"], steps)]


def _need_list(cfg: dict, key: str, typ, where: str) -> list:
    return [_typed(v, typ, f"{where}: entries of {key!r}")
            for v in _need(cfg, key, list, where)]


def cmd_bench(args) -> int:
    cfg = _read_json_object(args.config)
    kind = _need(cfg, "kind", str, "bench")
    seed = _opt(cfg, "seed", int, 0, "bench")
    out_path = _need(cfg, "out", str, "bench")
    workers = _opt(cfg, "workers", int, 1, "bench")
    if kind == "k_sweep":
        k_max = _opt(cfg, "k_max", int, 200, "bench")
        header, fn = "n,k,f,error,envelope", _bench_k_point
        payloads = [(n, k_max, seed) for n in _need_list(cfg, "n_values", int, "bench")]
    elif kind == "t_sweep":
        t_values = _need_list(cfg, "t_values", float, "bench")
        data = _need(cfg, "data", str, "bench")
        fmt = _choice(cfg, "format", ("tab_100k", "dat_1m"), "bench")
        steps = _opt(cfg, "steps", int, 15, "bench")
        rho = _opt(cfg, "rho", float, 0.5, "bench")
        header, fn = "t,rmse_train,rmse_test,nmae_test,steps", _bench_t_point
        payloads = [(data, fmt, t, steps, seed, rho) for t in t_values]
    else:
        raise ValueError(f"bench: unknown kind {kind!r}")

    if workers > 1 and payloads:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, payloads))  # in payload order
    else:
        results = [fn(p) for p in payloads]
    lines = [header] + [line for rows in results for line in rows]
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # see _bench_k_point
def main(argv=None) -> int:
    """Run one subcommand and map what it raises to an exit code.

    EXIT_DATA: a DataError (the contents of a --data, --problem or
    custom-quadratic file), or a FloatingPointError from a solve (the
    problem's numbers overflow float64).  EXIT_CONFIG: any other ValueError
    or OSError (the config file, its fields, flag values the library
    rejects, unwritable output paths).  Anything else is a bug and keeps its
    traceback.
    """
    p = argparse.ArgumentParser(prog="condgrad",
                                description="Projection-free convex optimization "
                                            "with duality-gap certificates")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run a config-driven solve")
    ps.add_argument("config", help="JSON run configuration")
    ps.set_defaults(fn=cmd_solve)

    pc = sub.add_parser("complete", help="matrix completion on a ratings file")
    pc.add_argument("--data", required=True)
    pc.add_argument("--format", default="tab_100k", choices=["tab_100k", "dat_1m"])
    pc.add_argument("--t", type=float, required=True)
    pc.add_argument("--steps", type=int, default=15)
    pc.add_argument("--line-search", dest="line_search", action="store_true",
                    default=True)
    pc.add_argument("--no-line-search", dest="line_search", action="store_false")
    pc.add_argument("--grad-avg", action="store_true", default=False)
    pc.add_argument("--normalize", action="store_true", default=False)
    pc.add_argument("--split", default="random:0.5",
                    help="random:<rho> or peruser:<r>")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--trace", default=None)
    pc.add_argument("--summary", default=None)
    pc.set_defaults(fn=cmd_complete)

    pf = sub.add_parser("sdpfeas", help="epsilon-feasibility of an SDP")
    pf.add_argument("--problem", required=True)
    pf.add_argument("--eps", type=float, required=True)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--trace", default=None)
    pf.add_argument("--summary", default=None)
    pf.set_defaults(fn=cmd_sdpfeas)

    pb = sub.add_parser("bench", help="parameter sweep to CSV")
    pb.add_argument("config", help="JSON sweep configuration")
    pb.set_defaults(fn=cmd_bench)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except (DataError, FloatingPointError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
