"""Record the reference output digests that ``run.py`` checks ops against.

    python3 perfbench/pin_digests.py 0 1 2 3

For each given seed and each workload whose ops have digests, runs one op
per pool item and writes the digests to ``expected_digests.json``, keeping
the entries already there for other seeds.  Run it only on a commit whose
outputs are known to be right: a later change must reproduce these digests.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, import_package


def main(seeds: list[int]) -> int:
    import_package()
    from workloads import WORKLOADS

    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for workload in WORKLOADS.values():
        for seed in seeds:
            plan = workload.setup(seed)
            digests = []
            for i, item in enumerate(plan.pool):
                ok, dig = workload.check(plan, i, item, workload.run(plan, item))
                if not ok:
                    raise SystemExit(f"{workload.name} seed {seed} item {i} fails its check")
                if dig is None:
                    break
                digests.append(dig)
            if digests:
                pinned.setdefault(workload.name, {})[str(seed)] = digests
                print(f"{workload.name} seed {seed}: {len(digests)} digests", flush=True)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
