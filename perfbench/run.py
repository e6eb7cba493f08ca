"""Run one benchmark workload against the ce_sampler package in ``src/``.

    python3 perfbench/run.py --workload ce_select --seed 1 --seconds 20 --trace 0

One single-threaded process, one closed-loop caller: the next op starts
only when the previous one has returned.  Set-up (input generation, CE
solves, emulation, greedy policies) runs at least ``SETUP_REPEATS`` times
and for at least ``SETUP_MIN_S`` seconds, and ``setup_s`` is the median.
The timed phase then runs whole passes over the seeded pool of op inputs
until ``--seconds`` have passed and at least ``MIN_OPS`` ops are done; with
``--trace 1`` it runs whole pool cycles instead, so that the per-layer
counts (reported per pool cycle) repeat exactly for a seed.  Only the op call itself is timed; its output check
runs between ops.

Human-readable lines (environment, every metric with its unit) come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
and with ``--trace 1`` the recorded spans, are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MIN_OPS = 20  # fewer ops than this leave op_tail_s undefined
TAIL_BEYOND = 10  # samples beyond the tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def import_package():
    """Import ce_sampler from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "ce_sampler" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ce_sampler package under {src}")
    sys.path.insert(0, str(src))
    import ce_sampler

    if Path(ce_sampler.__file__).resolve().parent != (src / "ce_sampler").resolve():
        sys.exit(f"perfbench: imported ce_sampler from {ce_sampler.__file__}, not {src}")
    return ce_sampler


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def set_up(workload, seed: int):
    times, fingerprints = [], set()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = perf_counter()
        plan = workload.setup(seed)
        times.append(perf_counter() - start)
        fingerprints.add(plan.fingerprint)
    return plan, statistics.median(times), len(fingerprints) == 1


def attempt(workload, plan, index: int, item, run_op):
    """Time one op and check its output; returns (latency, ok, digest)."""
    start = perf_counter()
    try:
        output = run_op(plan, item)
    except Exception as exc:  # a raising op counts as failed; the run goes on
        latency = perf_counter() - start
        print(f"op {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return latency, False, None
    latency = perf_counter() - start
    try:
        ok, dig = workload.check(plan, index, item, output)
    except Exception as exc:  # an output the check cannot read is a failed op
        print(f"op {index} output check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return latency, False, None
    return latency, ok, dig


def timed_phase(workload, plan, seconds: float, whole_cycles: bool, max_ops, run_op, expected):
    """Run ops until the stop rule holds; returns latencies, failed indices, ops run."""
    pool = plan.pool
    stop_every = len(pool) if whole_cycles else plan.pass_len
    latencies: list[float] = []
    failed: set[int] = set()
    first_digest: dict[int, str] = {}
    begin = perf_counter()
    i = 0
    while max_ops is None or i < max_ops:
        at_boundary = i and i % stop_every == 0
        if at_boundary and perf_counter() - begin >= seconds and (whole_cycles or i >= MIN_OPS):
            break
        slot = i % len(pool)
        latency, ok, dig = attempt(workload, plan, i, pool[slot], run_op)
        latencies.append(latency)
        if dig is not None:
            want = expected[slot] if expected else first_digest.setdefault(slot, dig)
            ok = ok and dig == want
        if not ok:
            failed.add(i)
        i += 1
    failed |= workload.finish(plan)
    return latencies, failed, i


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="stop after this many ops (smoke test)")
    args = parser.parse_args(argv)

    import_package()
    from tracing import OP_SPAN, PER_LAYER, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    expected = None
    if DIGESTS.is_file():
        expected = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(args.seed))

    plan, setup_s, setup_repeatable = set_up(workload, args.seed)
    if expected is not None and len(expected) != len(plan.pool):
        expected = None
    tracer = Tracer()
    run_op = workload.run
    if args.trace:
        tracer.install()
        run_op = tracer.wrap(OP_SPAN, workload.run)
        tracer.active = True
    latencies, failed, ops = timed_phase(
        workload, plan, args.seconds, bool(args.trace), args.ops, run_op, expected
    )
    tracer.active = False
    if not setup_repeatable:
        failed = set(range(ops))

    env = environment()
    n = len(latencies)
    ordered = sorted(latencies)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "ops": n,
        "failed": len(failed),
        "failed_frac": len(failed) / n if n else 1.0,
        "digests_pinned": expected is not None,
        "latencies_s": latencies,
    }
    if args.trace:
        metrics = tracer.layer_metrics(cycles=n / len(plan.pool))
    else:
        metrics = {"setup_s": setup_s}
        metrics["op_p50_s"] = statistics.median(ordered)
        if n >= MIN_OPS:
            metrics["op_tail_s"] = ordered[n - TAIL_BEYOND - 1]
            result["op_tail"] = {"percentile": 100 * (n - TAIL_BEYOND) / n, "samples": n}
        metrics["ops_per_s"] = n / sum(latencies)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    units = dict(END_TO_END) | {name: unit for name, unit, _ in PER_LAYER}
    result["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"env python {env['python']} nproc {env['nproc']} loadavg {env['loadavg']}")
    print(f"ops {n} failed {len(failed)} failed_frac {result['failed_frac']:.6f} "
          f"reference digests {'pinned' if expected is not None else 'not pinned for this seed'}")
    if "op_tail" in result:
        print(f"op_tail_s is p{result['op_tail']['percentile']:.1f} of {n} samples")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": n,
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
