"""The benchmark's result line: a traced run of perfbench/run.py ends with one
strict JSON object whose metrics are the per-layer metrics BENCHMARK.json
declares."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def strict_loads(text):
    """json.loads that refuses NaN and Infinity, as strict JSON parsers do."""
    def refuse(name):
        raise ValueError(f"{name} is not a number in strict JSON")
    return json.loads(text, parse_constant=refuse)


def test_traced_ingest_run_ends_with_a_strict_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "401",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = strict_loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
