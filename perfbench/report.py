"""Run every workload once and print its end-to-end metrics and answer
quality in one table.

    python3 perfbench/report.py --seed 0 --seconds 20

Each workload runs in its own process through run.py, exactly as a single
benchmark run does.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
ANSWER = [("cert_gap", "obj"), ("rmse_test", "rating"), ("f_lower", "obj"), ("fail_rate", "ratio")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args(argv)

    cols = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] + ANSWER
    print("workload".ljust(14) + "".join(f"{f'{n} ({u})':>22}" for n, u in cols))
    status = 0
    for w in SPEC["workloads"]:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        answer = json.loads(next(ln for ln in lines if ln.startswith("answer "))[7:])
        values = {k: v["value"] for k, v in result["metrics"].items()} | answer
        print(w["name"].ljust(14) + "".join(
            f"{values[n]:>22.6g}" if n in values else f"{'-':>22}" for n, _ in cols))
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
