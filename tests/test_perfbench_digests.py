"""The benchmark's pinned ``deep_tree`` digests, replayed without timing anything.

``perfbench/workloads.py`` is loaded from its file without writing bytecode
next to it, and every pool item of a seed is run once and checked against
``perfbench/expected_digests.json``.
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


@pytest.mark.parametrize("seed", [0, 1])
def test_deep_tree_digests_replay(seed):
    workload = _load_workloads().WORKLOADS["deep_tree"]
    expected = json.loads((PERFBENCH / "expected_digests.json").read_text())["deep_tree"][str(seed)]
    plan = workload.setup(seed)
    assert len(plan.pool) == len(expected)
    for index, item in enumerate(plan.pool):
        ok, digest = workload.check(plan, index, item, workload.run(plan, item))
        assert ok, index
        assert digest == expected[index], index
