"""Run every workload untraced and traced, and print one table.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

For each workload: the end-to-end metrics with their units (``op_tail_s``
with its percentile and sample count), ``failed_frac``, the environment,
the share of timed-op time spent in the simplex, the tree analysis and the
Monte Carlo engine, and the tracing overhead: the untraced minus the traced
``ops_per_s``, both taken over the ops the two runs have in common (the
first ops of the pool), also given as a share of the untraced figure.
Runs go one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ce_select", "battery", "deep_tree", "mc_play")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=900)
    path = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        m, t = plain["metrics"], traced["metrics"]
        print(f"== {workload} (seed {args.seed}; python {plain['environment']['python']}, "
              f"nproc {plain['environment']['nproc']}, loadavg {plain['environment']['loadavg']})")
        for name, entry in m.items():
            extra = ""
            if name == "op_tail_s":
                extra = f"  (p{plain['op_tail']['percentile']:.1f} of {plain['op_tail']['samples']} ops)"
            print(f"  {name:<14} {entry['value']:.6g} {entry['unit']}{extra}")
        print(f"  {'failed_frac':<14} {plain['failed_frac']:.6g}  ({plain['failed']} of {plain['ops']} ops)")
        common = min(plain["ops"], traced["ops"])
        untraced = common / sum(plain["latencies_s"][:common])
        overhead = untraced - common / sum(traced["latencies_s"][:common])
        print(f"  tracing overhead {overhead:.6g} ops/s ({overhead / untraced:.1%} of {untraced:.6g}, "
              f"first {common} ops)")
        for share in ("simplex.share", "analysis.share", "mc_engine.share"):
            print(f"  {share:<16} {t[share]['value']:.1%} of timed-op time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
