"""Command-line front end.

Subcommands:
  solve     config-driven run of a built-in objective over a named domain,
            emitting a trace CSV and a JSON summary
  complete  matrix completion on a ratings file
  sdpfeas   epsilon-feasibility of a constraint SDP problem file
  bench     parameter sweeps aggregated into a CSV (plot data only)

Exit codes: 0 success (certified when a certificate was requested),
1 budget exhausted without a certificate, 2 config/schema error,
3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import matcomp, sdpfeas
from .core import StopRule, StepSchedule
from .domains.matrices import SpectrahedronDomain
from .domains.vectors import CubeDomain, L1BallDomain, SimplexDomain
from .eigen import dense_eig_oracle
from .objectives import least_squares, squared_distance, squared_norm
from .solver import curvature_from_hessian, fw_run, gap_certified_run

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


class SchemaError(ValueError):
    pass


def _need(cfg: dict, key: str, typ, where: str):
    if key not in cfg:
        raise SchemaError(f"{where}: missing required field {key!r}")
    v = cfg[key]
    if typ is float and isinstance(v, int):
        v = float(v)
    if not isinstance(v, typ):
        raise SchemaError(f"{where}: field {key!r} must be {typ.__name__}")
    return v


def _opt(cfg: dict, key: str, typ, default, where: str):
    if key not in cfg:
        return default
    return _need(cfg, key, typ, where)


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
    raise SchemaError(f"domain: unknown kind {kind!r}")


def _quadratic_sup_eig(A=None, scale=1.0, Q=None):
    if Q is not None:
        vals, _ = dense_eig_oracle(Q)
        return max(0.0, float(vals[0]))
    if A is not None:
        vals, _ = dense_eig_oracle((scale * A).T @ (scale * A))
        return 2.0 * max(0.0, float(vals[0]))
    return 2.0  # ||x||^2 or ||x - r||^2


def _build_objective(spec: dict, domain):
    """Returns (oracle, matrix_shaped) with curvature bound filled from the
    objective Hessian and the domain diameter."""
    kind = _need(spec, "kind", str, "objective")
    matrix_shaped = isinstance(domain, SpectrahedronDomain)
    if kind == "quadratic":
        target = spec.get("target")
        if target is not None:
            r = np.asarray(target, dtype=float)
            if matrix_shaped:
                r = r.reshape(domain.n, domain.n)
            obj = squared_distance(r)
        else:
            obj = squared_norm()
        sup = _quadratic_sup_eig()
    elif kind in ("least_squares", "lasso"):
        A = np.asarray(_need(spec, "A", list, "objective"), dtype=float)
        b = np.asarray(_need(spec, "b", list, "objective"), dtype=float)
        if A.ndim != 2 or A.shape[0] != len(b):
            raise SchemaError("objective: A/b dimension mismatch")
        scale = _opt(spec, "t", float, 1.0, "objective") if kind == "lasso" else \
            _opt(spec, "scale", float, 1.0, "objective")
        obj = least_squares(A, b, scale=scale)
        sup = _quadratic_sup_eig(A=A, scale=scale)
    elif kind == "custom_quadratic":
        path = _need(spec, "path", str, "objective")
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"custom quadratic file {path}: {e}") from None
        if not isinstance(raw, dict) or "Q" not in raw:
            raise DataError(f"custom quadratic file {path}: missing field 'Q'")
        try:
            Q = np.asarray(raw["Q"], dtype=float)
            c = np.asarray(raw.get("c", np.zeros(Q.shape[:1])), dtype=float)
        except (TypeError, ValueError) as e:
            raise DataError(f"custom quadratic file {path}: {e}") from None
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or c.shape != Q.shape[:1]:
            raise DataError(f"custom quadratic file {path}: bad shapes")
        Q = 0.5 * (Q + Q.T)

        def ev(x, _Q=Q, _c=c):
            return 0.5 * float(x @ (_Q @ x)) + float(_c @ x)

        def gr(x, _Q=Q, _c=c):
            return _Q @ x + _c

        def hook(x, s, _Q=Q, _c=c):
            d = s - x
            den = float(d @ (_Q @ d))
            if den <= 0.0:
                return 0.0 if float(gr(x) @ d) >= 0.0 else 1.0
            return float(min(1.0, max(0.0, -float(gr(x) @ d) / den)))

        from .core import ObjectiveOracle
        obj = ObjectiveOracle(eval=ev, grad=gr, name="custom-quadratic",
                              alpha_hook=hook)
        sup = _quadratic_sup_eig(Q=Q)
    else:
        raise SchemaError(f"objective: unknown kind {kind!r}")
    obj.curvature_bound = curvature_from_hessian(sup, domain.diam_sq)
    return obj


class DataError(ValueError):
    pass


def _write_summary(summary: dict, path):
    text = json.dumps(summary, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _lasso_domain_override(cfg: dict):
    """lasso objectives imply the unit l1 ball (the t scaling lives in the
    objective), unless a domain is given explicitly."""
    obj = cfg.get("objective", {})
    if isinstance(obj, dict) and obj.get("kind") == "lasso" and "domain" not in cfg:
        A = obj.get("A")
        if not isinstance(A, list) or not A or not isinstance(A[0], list):
            raise SchemaError("objective: lasso needs a 2-d A")
        return {"kind": "l1", "n": len(A[0]), "t": 1.0}
    return cfg.get("domain")


def cmd_solve(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as e:
        print(f"config error: invalid JSON: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if not isinstance(cfg, dict):
            raise SchemaError("config: top level must be an object")
        obj_spec = _need(cfg, "objective", dict, "config")
        okind = _need(obj_spec, "kind", str, "objective")
        if okind == "matcomp":
            return _solve_matcomp(cfg, obj_spec)
        if okind == "sdpfeas":
            return _solve_sdpfeas_cfg(cfg, obj_spec)
        dom_spec = _lasso_domain_override(cfg)
        if dom_spec is None:
            raise SchemaError("config: missing required field 'domain'")
        domain = _build_domain(dom_spec)
        eps = _opt(cfg, "eps", float, None, "config")
        max_iters = _opt(cfg, "max_iters", int, None, "config")
        if eps is None and max_iters is None:
            raise SchemaError("config: need 'eps' or 'max_iters'")
        schedule = _opt(cfg, "schedule", str, "harmonic", "config")
        if schedule not in ("harmonic", "line_search"):
            raise SchemaError(f"config: unknown schedule {schedule!r}")
        mode = _opt(cfg, "mode", str, "exact", "config")
        if mode not in ("exact", "approx"):
            raise SchemaError(f"config: unknown mode {mode!r}")
        seed = _opt(cfg, "seed", int, 0, "config")
        out = _opt(cfg, "out", dict, {}, "config")
        objective = _build_objective(obj_spec, domain)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:  # SchemaError, and the domain constructors' checks
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    certified = None
    try:
        if eps is not None:
            run = gap_certified_run(objective, domain, eps, lmo_mode=mode, seed=seed)
            trace, point, ledger = run.trace, run.point, run.ledger
            gap = run.gap_bound
            certified = run.certified
            iters = run.k_hat
        else:
            res = fw_run(objective, domain,
                         stop=StopRule(max_iters=max_iters),
                         schedule=StepSchedule.line_search() if schedule == "line_search"
                         else StepSchedule.harmonic(),
                         lmo_mode=mode, seed=seed)
            trace, point, ledger = res.trace, res.point, res.ledger
            gap = res.trace.final().gap
            iters = res.trace.final().k
    except ValueError as e:  # gap_certified_run's eps check
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    if out.get("trace"):
        trace.write_csv(out["trace"])
    summary = {
        "objective": obj_spec["kind"],
        "domain": dom_spec["kind"],
        "f": float(objective.eval(point)),
        "gap": float(gap),
        "iterations": int(iters),
        "support": ledger.support_size(),
        "certified": certified,
        "seed": seed,
    }
    _write_summary(summary, out.get("summary"))
    if eps is not None and not certified:
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _solve_matcomp(cfg: dict, spec: dict) -> int:
    ns = argparse.Namespace(
        data=_need(spec, "path", str, "objective"),
        format=_opt(spec, "format", str, "tab_100k", "objective"),
        t=_need(spec, "t", float, "objective"),
        steps=_opt(spec, "steps", int, 15, "objective"),
        line_search=_opt(spec, "line_search", bool, True, "objective"),
        grad_avg=_opt(spec, "grad_avg", bool, False, "objective"),
        normalize=_opt(spec, "preset", str, "as_is", "objective") == "normalized",
        split=_opt(spec, "split", str, "random:0.5", "objective"),
        seed=_opt(cfg, "seed", int, 0, "config"),
        trace=_opt(cfg, "out", dict, {}, "config").get("trace"),
        summary=_opt(cfg, "out", dict, {}, "config").get("summary"),
    )
    return cmd_complete(ns)


def _solve_sdpfeas_cfg(cfg: dict, spec: dict) -> int:
    ns = argparse.Namespace(
        problem=_need(spec, "path", str, "objective"),
        eps=_need(spec, "eps", float, "objective"),
        seed=_opt(cfg, "seed", int, 0, "config"),
        trace=_opt(cfg, "out", dict, {}, "config").get("trace"),
        summary=_opt(cfg, "out", dict, {}, "config").get("summary"),
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
    raise SchemaError(f"--split must be random:<rho> or peruser:<r>, got {text!r}")


def cmd_complete(args) -> int:
    try:
        policy, kw = _parse_split(args.split)
    except SchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        ds = matcomp.load_movielens(args.data, args.format)
    except (OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        # the library rejects a bad split fraction, t or step count
        ds = matcomp.split_train_test(ds, policy, seed=args.seed, **kw)
        result = matcomp.complete(
            ds, t=args.t, steps=args.steps, line_search=args.line_search,
            grad_averaging=args.grad_avg, normalize=args.normalize, seed=args.seed)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
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
    try:
        sdp = sdpfeas.load_problem(args.problem)
    except (OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        out = sdpfeas.solve_eps_feasible(sdp, args.eps, seed=args.seed)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
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

def _bench_k_point(payload):
    idx, n, k_max, seed = payload
    domain = SimplexDomain(n)
    obj = squared_norm()
    obj.curvature_bound = curvature_from_hessian(2.0, domain.diam_sq)
    res = fw_run(obj, domain, stop=StopRule(max_iters=k_max), seed=seed)
    rows = [(r.k, r.f, r.f - 1.0 / n, 8.0 * obj.curvature_bound / (r.k + 2.0))
            for r in res.trace.rows]
    return idx, rows

def _bench_t_point(payload):
    idx, data, fmt, t, steps, seed, rho = payload
    ds = matcomp.load_movielens(data, fmt)
    ds = matcomp.split_train_test(ds, "random_fraction", rho=rho, seed=seed)
    result = matcomp.complete(ds, t=t, steps=steps, seed=seed)
    f = result.final
    return idx, [(t, f["rmse_train"], f["rmse_test"], f["nmae_test"], steps)]


def cmd_bench(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise SchemaError("bench config: top level must be an object")
        kind = _need(cfg, "kind", str, "bench")
        seed = _opt(cfg, "seed", int, 0, "bench")
        out_path = _need(cfg, "out", str, "bench")
        workers = _opt(cfg, "workers", int, 1, "bench")
        if kind == "k_sweep":
            n_values = _need(cfg, "n_values", list, "bench")
            k_max = _opt(cfg, "k_max", int, 200, "bench")
            header = "n,k,f,error,envelope"
            payloads = [(i, int(n), k_max, seed) for i, n in enumerate(n_values)]
            fn = _bench_k_point
            def fmt_rows(payload, rows):
                return ["%d,%d,%r,%r,%r" % (payload[1], k, f, e, env)
                        for k, f, e, env in rows]
        elif kind == "t_sweep":
            t_values = _need(cfg, "t_values", list, "bench")
            data = _need(cfg, "data", str, "bench")
            fmt = _opt(cfg, "format", str, "tab_100k", "bench")
            steps = _opt(cfg, "steps", int, 15, "bench")
            rho = _opt(cfg, "rho", float, 0.5, "bench")
            header = "t,rmse_train,rmse_test,nmae_test,steps"
            payloads = [(i, data, fmt, float(t), steps, seed, rho)
                        for i, t in enumerate(t_values)]
            fn = _bench_t_point
            def fmt_rows(payload, rows):
                return ["%r,%r,%r,%r,%d" % r for r in rows]
        else:
            raise SchemaError(f"bench: unknown kind {kind!r}")
    except (OSError, json.JSONDecodeError, SchemaError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if workers > 1 and payloads:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(fn, payloads))
        else:
            results = [fn(p) for p in payloads]
    except (OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA

    results.sort(key=lambda r: r[0])  # deterministic order however workers land
    lines = [header]
    for (idx, rows), payload in zip(results, payloads):
        lines.extend(fmt_rows(payload, rows))
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
