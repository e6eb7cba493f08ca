"""Smoke test: every workload runs one op, and every metric name is reported.

    python3 perfbench/smoke_test.py

For each workload it runs one op untraced and one op traced, and checks that
the result line is correct and carries every end-to-end metric named in
``BENCHMARK.json`` (except ``op_tail_s``, which needs at least 20 ops) and
every per-layer metric.  One extra 20-op run checks that ``op_tail_s``
appears once enough ops exist.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def result_line(workload: str, trace: int, ops: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
        "--seconds", "0", "--trace", str(trace), "--ops", str(ops),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(label: str, line: dict, names: set) -> None:
        got = set(line["metrics"])
        if not line["correct"] or line["failed"] or line["attempted"] < 1:
            problems.append(f"{label}: not correct: {line}")
        if got != names:
            problems.append(f"{label}: missing {sorted(names - got)}, extra {sorted(got - names)}")

    for workload in (w["name"] for w in spec["workloads"]):
        expect(f"{workload} trace 0", result_line(workload, 0, 1), end_to_end - {"op_tail_s"})
        expect(f"{workload} trace 1", result_line(workload, 1, 1), per_layer)
        print(f"{workload}: ok")
    expect("mc_play trace 0, 20 ops", result_line("mc_play", 0, 20), end_to_end)
    for problem in problems:
        print(problem)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
