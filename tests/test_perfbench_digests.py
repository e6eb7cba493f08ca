"""The benchmark's pinned digests, replayed without timing anything.

``perfbench/workloads.py`` is loaded from its file without writing bytecode
next to it, and pool items of a seed are run once each and checked against
``perfbench/expected_digests.json``: every ``deep_tree`` item of seeds 0 and
1, every ``ce_select`` item of seed 0, and the first ``battery`` pass of
seed 0.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def _replay(name, seed, first_pass_only=False):
    workload = _load_workloads().WORKLOADS[name]
    expected = json.loads((PERFBENCH / "expected_digests.json").read_text())[name][str(seed)]
    plan = workload.setup(seed)
    assert len(plan.pool) == len(expected)
    pool = plan.pool[: plan.pass_len] if first_pass_only else plan.pool
    for index, item in enumerate(pool):
        ok, digest = workload.check(plan, index, item, workload.run(plan, item))
        assert ok, index
        assert digest == expected[index], index


@pytest.mark.parametrize("seed", [0, 1])
def test_deep_tree_digests_replay(seed):
    _replay("deep_tree", seed)


def test_ce_select_digests_replay():
    _replay("ce_select", 0)


def test_battery_first_pass_digests_replay():
    _replay("battery", 0, first_pass_only=True)
