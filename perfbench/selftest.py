"""Fast self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

From the root of a checkout, it asserts that
1. every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
   with its unit, and agrees with the tables in run.py;
2. a deliberately wrong reference value is counted as a failure;
3. two traced runs with different seeds reach every layer and give identical
   counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 1, *extra: str) -> dict:
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, sorted(metrics)
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]


def main() -> int:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]

    for workload in run.WORKLOADS:
        plain = bench(workload, 0)
        assert plain["correct"] and plain["failed"] == 0, plain
        check_metrics(plain, SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in plain["metrics"].values()), plain
        print(f"selftest: {workload} ok")

    # A traced run covers every workload, so one pair checks every layer.
    first, second = bench("minimax", 1, 1), bench("minimax", 1, 2)
    assert first["correct"] and second["correct"], (first, second)
    check_metrics(first, SPEC["per_layer"])
    unreached = [name for name, m in first["metrics"].items()
                 if name != "trace.overhead_s" and not m["value"] > 0]
    assert not unreached, f"layers not reached by the traced run: {unreached}"
    differ = {name: (first["metrics"][name]["value"],
                     second["metrics"][name]["value"])
              for name in counts
              if first["metrics"][name] != second["metrics"][name]}
    assert not differ, f"counts differ between traced runs {differ}"
    print("selftest: traced runs reach every layer with equal counts")

    for workload in ("minimax", "cli"):
        wrong = bench(workload, 0, 1, "--wrong-reference")
        assert not wrong["correct"] and wrong["failed"] > 0, wrong
        print(f"selftest: {workload} counts a wrong reference as "
              f"{wrong['failed']} failed of {wrong['attempted']}")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
