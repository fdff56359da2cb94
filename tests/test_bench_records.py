"""Every committed BENCH_*.json record parses and names what it measured:
both commits, the command, the environment, and a claim on a metric and a
workload that BENCHMARK.json declares."""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_repository_has_bench_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_names_commits_command_env_and_a_declared_claim(path):
    record = json.loads(path.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("parent_commit", "change_commit"):
        assert re.fullmatch(r"[0-9a-f]{7,40}", record.get(key, "")), key
    assert isinstance(record.get("command"), str) and record["command"]
    assert isinstance(record.get("env"), dict) and record["env"]
    claim = record["claim"]
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert claim["metric"] in metrics
    assert claim["workload"] in {w["name"] for w in spec["workloads"]}
