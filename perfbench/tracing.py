"""Spans around ce_sampler's public calls, and the per-layer metrics they give.

The benchmark does not change the package: ``install`` replaces each traced
public function (and the constructors of ``PreferenceOracle`` and
``RandomStream``) with a wrapper, in every ``ce_sampler`` module that binds
it, so calls the package makes internally are traced too.  A span records
its name, start, end and parent; spans live in flat arrays while the run
lasts and are written out once when it ends.

A span's layer is the part of its name before the first dot.  A layer's
self time is the time its spans cover minus the time their direct child
spans cover; its busy time is the time covered by its outermost spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

OP_SPAN = "bench.op"

# (span name, module, attribute); a class attribute means its constructor.
TARGETS = (
    ("simplex.simplex_solve", "ce_sampler.simplex", "simplex_solve"),
    ("ce_solver.solve_ce", "ce_sampler.ce_solver", "solve_ce"),
    ("ce_solver.ce_slice_bounds", "ce_sampler.ce_solver", "ce_slice_bounds"),
    ("emulation.emulate", "ce_sampler.emulation", "emulate"),
    ("emulation.oracle_build", "ce_sampler.emulation", "PreferenceOracle"),
    ("analysis.verify_distance_bounds", "ce_sampler.analysis", "verify_distance_bounds"),
    ("analysis.verify_payoff_guarantees", "ce_sampler.analysis", "verify_payoff_guarantees"),
    ("analysis.truthful_announcements_optimal", "ce_sampler.analysis", "truthful_announcements_optimal"),
    ("analysis.worst_case_adversary", "ce_sampler.analysis", "worst_case_adversary"),
    ("analysis.honest_output_distribution", "ce_sampler.analysis", "honest_output_distribution"),
    ("protocol.run_protocol", "ce_sampler.protocol", "run_protocol"),
    ("protocol.simulate_outputs", "ce_sampler.protocol", "simulate_outputs"),
    ("extended_game.play_extended_game", "ce_sampler.extended_game", "play_extended_game"),
    ("rng.stream", "ce_sampler.rng", "RandomStream"),
    ("coin_flip.run_honest", "ce_sampler.coin_flip", "run_honest"),
    ("coin_flip.run_with_cheater", "ce_sampler.coin_flip", "run_with_cheater"),
)

# Layers whose time is the Monte Carlo engine, for ``mc_engine.share``.
MC_ENGINE = ("protocol", "extended_game", "rng", "coin_flip", "emulation.oracle_build")

PER_LAYER = (
    ("bench.op_s", "s", "lower"),
    ("bench.ops_per_s", "1/s", "higher"),
    ("simplex.calls", "count", "lower"),
    ("simplex.rows", "count", "lower"),
    ("simplex.busy_s", "s", "lower"),
    ("simplex.share", "fraction", "lower"),
    ("ce_solver.calls", "count", "lower"),
    ("ce_solver.lp_per_call", "count", "lower"),
    ("ce_solver.useful_lp_share", "fraction", "higher"),
    ("ce_solver.self_s", "s", "lower"),
    ("emulation.emulate_calls", "count", "lower"),
    ("emulation.oracle_builds", "count", "lower"),
    ("emulation.oracle_build_s", "s", "lower"),
    ("emulation.busy_s", "s", "lower"),
    ("analysis.calls", "count", "lower"),
    ("analysis.leaves", "count", "lower"),
    ("analysis.busy_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.share", "fraction", "lower"),
    ("protocol.trials", "count", "higher"),
    ("protocol.rounds", "count", "higher"),
    ("protocol.coin_share", "fraction", "lower"),
    ("protocol.self_s", "s", "lower"),
    ("extended_game.self_s", "s", "lower"),
    ("rng.streams", "count", "lower"),
    ("rng.busy_s", "s", "lower"),
    ("coin_flip.flips", "count", "lower"),
    ("coin_flip.busy_s", "s", "lower"),
    ("mc_engine.share", "fraction", "higher"),
)


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    """Flat in-memory span store; wrappers record only while ``active``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.useful_lps: dict[int, int] = {}  # solve_ce span -> LPs up to its last nonzero cell
        self.active = False

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(span, args, kwargs, result)`` adds counts."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(span)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    # -- counts recorded at the span boundaries ---------------------------

    def _after_simplex(self, span, args, kwargs, result):
        self.counts["simplex.rows"] += len(_arg(args, kwargs, 0, "lp").constraints)

    def _after_solve_ce(self, span, args, kwargs, result):
        import ce_sampler as cs

        game = _arg(args, kwargs, 0, "game")
        objective = _arg(args, kwargs, 1, "objective", cs.CeObjective.MAX_TOTAL_LEX)
        preliminary = {
            cs.CeObjective.MAX_FAIR: 2,
            cs.CeObjective.MAX_TOTAL_LEX: 1,
            cs.CeObjective.FEASIBLE: 0,
        }[objective]
        cells = list(game.cells())
        last = max(i for i, cell in enumerate(cells) if result.prob(cell))
        self.useful_lps[span] = preliminary + last + 1

    def _after_adversary(self, span, args, kwargs, result):
        em = _arg(args, kwargs, 0, "em")
        self.counts["analysis.leaves"] += (1 << em.k) + len(result.leaf_distribution)

    def _after_honest_distribution(self, span, args, kwargs, result):
        self.counts["analysis.leaves"] += len(result)

    def _after_simulate(self, span, args, kwargs, result):
        trials = _arg(args, kwargs, 6, "trials")
        self.counts["protocol.trials"] += trials
        self.counts["protocol.rounds"] += trials * _arg(args, kwargs, 2, "config").k

    def _after_run_protocol(self, span, args, kwargs, result):
        self.counts["protocol.trials"] += 1
        self.counts["protocol.rounds"] += _arg(args, kwargs, 2, "config").k

    def install(self) -> None:
        """Wrap every target in every loaded ce_sampler module that binds it."""
        hooks = {
            "simplex.simplex_solve": self._after_simplex,
            "ce_solver.solve_ce": self._after_solve_ce,
            "analysis.worst_case_adversary": self._after_adversary,
            "analysis.honest_output_distribution": self._after_honest_distribution,
            "protocol.simulate_outputs": self._after_simulate,
            "protocol.run_protocol": self._after_run_protocol,
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "ce_sampler"]
        for span_name, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            if isinstance(original, type):
                original.__init__ = self.wrap(span_name, original.__init__)
                continue
            wrapped = self.wrap(span_name, original, hooks.get(span_name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "l"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)

    def layer_metrics(self, cycles: float) -> dict[str, float]:
        """Per-layer metrics, per pool cycle, from the recorded spans."""
        layer_of = [name.split(".")[0] for name in self.names]
        bit = {layer: 1 << i for i, layer in enumerate(sorted(set(layer_of)))}
        name_bit = [bit[layer] for layer in layer_of]
        mc_ids = {i for i, name in enumerate(self.names) if layer_of[i] in MC_ENGINE or name in MC_ENGINE}
        ce_ids = {i for i, layer in enumerate(layer_of) if layer == "ce_solver"}
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        n = len(starts)
        child = [0.0] * n
        mask = [0] * n  # layers of the span and all its ancestors
        in_mc = [False] * n
        lp_children: Counter = Counter()  # ce_solver span -> its simplex calls
        for i in range(n):
            p, nid = parents[i], names[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                mask[i] = mask[p] | name_bit[nid]
                in_mc[i] = in_mc[p] or nid in mc_ids
                if layer_of[nid] == "simplex" and names[p] in ce_ids:
                    lp_children[p] += 1
            else:
                mask[i] = name_bit[nid]
                in_mc[i] = nid in mc_ids
        per_name: Counter = Counter()
        self_by_name: Counter = Counter()
        self_by_mask: Counter = Counter()
        mc_busy = 0.0
        for i in range(n):
            self_time = ends[i] - starts[i] - child[i]
            per_name[names[i]] += 1
            self_by_name[names[i]] += self_time
            self_by_mask[mask[i]] += self_time
            if in_mc[i]:
                mc_busy += self_time
        per_name = Counter({self.names[k]: v for k, v in per_name.items()})
        self_by_name = Counter({self.names[k]: v for k, v in self_by_name.items()})
        busy: Counter = Counter()
        self_by_layer: Counter = Counter()
        for layer, b in bit.items():
            busy[layer] = sum(t for m, t in self_by_mask.items() if m & b)
        for name, t in self_by_name.items():
            self_by_layer[name.split(".")[0]] += t
        op_s = busy["bench"]
        ops = per_name[OP_SPAN]
        ce_calls = per_name["ce_solver.solve_ce"] + per_name["ce_solver.ce_slice_bounds"]
        solve_lps = sum(lp_children[s] for s in self.useful_lps)
        useful = sum(min(u, lp_children[s]) for s, u in self.useful_lps.items())
        rounds = self.counts["protocol.rounds"]
        flips = per_name["coin_flip.run_honest"] + per_name["coin_flip.run_with_cheater"]

        def share(x: float) -> float:
            return x / op_s if op_s else 0.0

        values = {
            "bench.op_s": op_s,
            "bench.ops_per_s": ops / op_s if op_s else 0.0,
            "simplex.calls": per_name["simplex.simplex_solve"],
            "simplex.rows": self.counts["simplex.rows"],
            "simplex.busy_s": busy["simplex"],
            "simplex.share": share(busy["simplex"]),
            "ce_solver.calls": ce_calls,
            "ce_solver.lp_per_call": sum(lp_children.values()) / ce_calls if ce_calls else 0.0,
            "ce_solver.useful_lp_share": useful / solve_lps if solve_lps else 0.0,
            "ce_solver.self_s": self_by_layer["ce_solver"],
            "emulation.emulate_calls": per_name["emulation.emulate"],
            "emulation.oracle_builds": per_name["emulation.oracle_build"],
            "emulation.oracle_build_s": self_by_name["emulation.oracle_build"],
            "emulation.busy_s": busy["emulation"],
            "analysis.calls": sum(c for name, c in per_name.items() if name.startswith("analysis.")),
            "analysis.leaves": self.counts["analysis.leaves"],
            "analysis.busy_s": busy["analysis"],
            "analysis.self_s": self_by_layer["analysis"],
            "analysis.share": share(busy["analysis"]),
            "protocol.trials": self.counts["protocol.trials"],
            "protocol.rounds": rounds,
            "protocol.coin_share": flips / rounds if rounds else 0.0,
            "protocol.self_s": self_by_layer["protocol"],
            "extended_game.self_s": self_by_layer["extended_game"],
            "rng.streams": per_name["rng.stream"],
            "rng.busy_s": busy["rng"],
            "coin_flip.flips": flips,
            "coin_flip.busy_s": busy["coin_flip"],
            "mc_engine.share": share(mc_busy),
        }
        ratios = {"bench.ops_per_s", "ce_solver.lp_per_call", "ce_solver.useful_lp_share", "protocol.coin_share"}
        return {
            name: (v if name in ratios or name.endswith(".share") else v / cycles)
            for name, v in values.items()
        }
