"""Command-line front end.

Subcommands: ``solve-ce`` (compute a correlated equilibrium), ``run``
(Monte Carlo over the sampling protocol), ``play`` (full three-stage
game), ``analyze`` (exact adversary analysis) and ``reproduce`` (the
acceptance suite).  All randomness flows from ``--seed``; omitting it
picks a fresh seed and prints it.  Reports are JSON with exact fractions
as strings plus float conveniences, and re-running with the same seed
and inputs produces byte-identical report bodies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .acceptance import criterion_names, run_acceptance
from .analysis import POWERS, verify_distance_bounds, verify_payoff_guarantees, worst_case_adversary
from .ce_solver import CeObjective, solve_ce
from .emulation import MultisetEmulation, emulate
from .extended_game import play_extended_game, settle
from .games import (
    ZERO,
    Game,
    JointDistribution,
    JointStrategy,
    as_fraction,
    check_ce,
    expected_utility,
    normalize,
)
from .protocol import (
    HonestParty,
    PartyBehavior,
    PolicyParty,
    ProtocolConfig,
    TwoCheatersError,
    run_protocol,
)
from .rng import RandomStream
from .serialization import (
    GameFormatError,
    bit_keyed_json,
    bit_string,
    distribution_to_json,
    emulation_to_json,
    fraction_field,
    parse_game_file,
    parse_script_file,
    transcript_records,
    write_json,
)

PER_TRIAL_LIMIT = 5000  # per-trial rows are included in reports up to this many trials


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(4), "big")


def _build_party(
    spec: str, role: int, game: Game, em, config: ProtocolConfig
) -> PartyBehavior:
    if spec == "honest":
        return HonestParty()
    if spec == "greedy":
        adv = worst_case_adversary(em, normalize(game), config.per_round_bias, role)
        return PolicyParty(adv.policy)
    if spec.startswith("script:"):
        return parse_script_file(spec.split(":", 1)[1], game, role, config.k)
    raise ValueError(f"unknown party spec {spec!r} (use honest, greedy or script:<file>)")


def _config_echo(args, config: ProtocolConfig, **fields) -> dict:
    """A report's config block: the game, objective and budgets, then ``fields``."""
    return {
        "game": os.path.basename(args.game),
        "objective": args.objective,
        "epsilon": str(config.epsilon),
        "delta": str(config.delta),
        "k": config.k,
        "per_round_bias": str(config.per_round_bias),
        **fields,
    }


def _mean_with_half_width(total: Fraction, total_sq: Fraction, n: int) -> dict:
    mean = total / n
    variance = max(total_sq / n - mean * mean, ZERO)
    half_width = 1.96 * math.sqrt(float(variance) / n)
    return {"exact_mean": str(mean), "float": float(mean), "half_width_95": half_width}


def _trial_chunk(payload) -> dict:
    """Worker: run trials [start, start+count) and aggregate.

    Per-trial streams are derived from the absolute trial index, so the
    result is independent of how trials are chunked across processes.
    ``outcomes`` counts the stage-1 outputs in ``run`` mode and the
    (stage-2 profile, checks) pairs in ``play`` mode; ``log`` holds the
    transcript log lines when one is wanted.
    """
    (game, p, em, config, party1, party2, seed, start, count, mode, want_rows, want_log) = payload
    root = RandomStream(seed)
    outcomes: Counter = Counter()
    rows = [] if want_rows else None
    log = [] if want_log else None
    for t in range(start, start + count):
        stream = root.child(t)
        if mode == "run":
            transcript = run_protocol(
                game, p, config, party1, party2, stream,
                em=em, record_messages=want_log, warn_not_ce=False,
            )
            out = transcript.output
            outcomes[(out.s1, out.s2)] += 1
            if rows is not None:
                rows.append({
                    "trial": t,
                    "ell": bit_string(transcript.ell),
                    "output": f"{out.s1},{out.s2}",
                })
            if log is not None:
                log.extend(json.dumps(record) for record in transcript_records(transcript))
        else:
            outcome = play_extended_game(
                game, p, config, party1, party2, stream,
                em=em, record_messages=False, warn_not_ce=False,
            )
            outcomes[(outcome.stage2.s1, outcome.stage2.s2, outcome.checks)] += 1
            if rows is not None:
                out = outcome.transcript.output
                rows.append({
                    "trial": t,
                    "ell": bit_string(outcome.transcript.ell),
                    "suggested": f"{out.s1},{out.s2}",
                    "played": f"{outcome.stage2.s1},{outcome.stage2.s2}",
                    "checks": "".join(outcome.checks),
                    "payoffs": [str(v) for v in outcome.payoffs],
                })
    return {"outcomes": outcomes, "rows": rows, "log": log}


def _chunk_bounds(trials: int, jobs: int) -> list[tuple[int, int]]:
    """(start, count) of each chunk: at most ``jobs`` near-equal runs of trials."""
    per_chunk = math.ceil(trials / jobs)
    return [(start, min(per_chunk, trials - start)) for start in range(0, trials, per_chunk)]


def _worker_count(jobs: int, n_chunks: int) -> int:
    """Processes to start: never more than there are chunks to run."""
    return min(jobs, n_chunks)


def _run_trials(game, p, em, config, args, mode: str) -> tuple[dict, list[str] | None]:
    """Run every trial once; returns the report and, if asked, the log lines.

    Both parties are built, and any script file checked, before the first trial.
    """
    seed = args.seed if args.seed is not None else _fresh_seed()
    if args.seed is None:
        print(f"seed: {seed}")
    trials = args.trials
    want_rows = trials <= PER_TRIAL_LIMIT
    want_log = bool(getattr(args, "transcript", None))
    party1 = _build_party(args.party1, 1, game, em, config)
    party2 = _build_party(args.party2, 2, game, em, config)
    chunks = [
        (game, p, em, config, party1, party2, seed, start, count, mode, want_rows, want_log)
        for start, count in _chunk_bounds(trials, args.jobs)
    ]
    workers = _worker_count(args.jobs, len(chunks))
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_trial_chunk, chunks))
        else:
            results = [_trial_chunk(chunk) for chunk in chunks]
    except TwoCheatersError as exc:
        raise ValueError(f"--party1 {args.party1} and --party2 {args.party2}: {exc}") from None

    outcomes: Counter = Counter()
    rows = [] if want_rows else None
    log = [] if want_log else None
    for result in results:
        outcomes.update(result["outcomes"])
        if rows is not None:
            rows.extend(result["rows"])
        if log is not None:
            log.extend(result["log"])
    if rows is not None:
        rows.sort(key=lambda r: r["trial"])

    outputs: Counter = Counter()
    payoff_sum = [ZERO, ZERO]
    payoff_sq = [ZERO, ZERO]
    for key, n in outcomes.items():
        outputs[key[:2]] += n
        if mode == "play":
            payoffs = settle(game, JointStrategy(*key[:2]), key[2])
            for i in (0, 1):
                payoff_sum[i] += n * payoffs[i]
                payoff_sq[i] += n * payoffs[i] ** 2

    report: dict = {
        "command": mode,
        "config": _config_echo(
            args, config, party1=args.party1, party2=args.party2, trials=trials, seed=seed,
            jobs=args.jobs,
        ),
        "frequencies": {
            f"{s1},{s2}": {"count": n, "empirical": n / trials}
            for (s1, s2), n in sorted(outputs.items())
        },
        "per_trial": rows,
    }
    if mode == "play":
        report["payoffs"] = {
            f"p{i + 1}": _mean_with_half_width(payoff_sum[i], payoff_sq[i], trials)
            for i in (0, 1)
        }
    return report, log


def _prepare(args) -> tuple[Game, JointDistribution, MultisetEmulation, ProtocolConfig]:
    """The game, its selected equilibrium, the emulation and the round plan.

    ``--epsilon`` is checked against the round count before any work, so a
    per-round coin bias epsilon/(2k) of 1/2 or more is reported as a flag error.
    """
    game = parse_game_file(args.game)
    config = ProtocolConfig.plan(game, args.epsilon, args.delta)
    if config.per_round_bias >= Fraction(1, 2):
        raise ValueError(
            f"--epsilon {args.epsilon} is too large for k = {config.k} rounds: the per-round "
            f"coin bias epsilon/(2k) must be below 1/2, so --epsilon must be below {config.k}"
        )
    p = solve_ce(game, CeObjective.from_string(args.objective))
    return game, p, emulate(game, p, config.delta), config


def _cmd_solve_ce(args) -> int:
    game = parse_game_file(args.game)
    dist = solve_ce(game, CeObjective.from_string(args.objective))
    _emit_report(distribution_to_json(dist), args.out)
    return 0


def _cmd_run(args) -> int:
    if args.transcript and args.trials > PER_TRIAL_LIMIT:
        raise ValueError(f"transcript logging is capped at {PER_TRIAL_LIMIT} trials")
    game, p, em, config = _prepare(args)
    report, log = _run_trials(game, p, em, config, args, "run")
    if args.analyze:
        exact = verify_distance_bounds(em, game, config.epsilon, dishonest=1)
        report["exact_honest_distribution"] = bit_keyed_json(exact.honest_distribution)
        report["exact_verdicts"] = exact.verdicts
    if log is not None:
        with open(args.transcript, "w") as handle:
            handle.writelines(line + "\n" for line in log)
    _emit_report(report, args.report)
    return 0


def _cmd_play(args) -> int:
    game, p, em, config = _prepare(args)
    report, _ = _run_trials(game, p, em, config, args, "play")
    report["exact"] = {
        "input_is_ce": check_ce(game, p),
        "source_payoffs": {
            f"p{player}": fraction_field(expected_utility(game, p, player)) for player in (1, 2)
        },
    }
    if args.analyze:
        verdicts = verify_payoff_guarantees(em, game, config)
        report["exact"]["payoff_guarantees"] = verdicts
    _emit_report(report, args.report)
    return 0


def _cmd_analyze(args) -> int:
    game, p, em, config = _prepare(args)
    report = verify_distance_bounds(em, game, config.epsilon, args.dishonest, power=args.power)
    payoff_verdicts = verify_payoff_guarantees(em, game, config, power=args.power)

    payload = {
        "command": "analyze",
        "config": _config_echo(args, config, dishonest=args.dishonest, adversary_power=args.power),
        "equilibrium": distribution_to_json(p),
        "emulation": emulation_to_json(em),
        "honest_distribution": bit_keyed_json(report.honest_distribution),
        "adversarial_distribution": bit_keyed_json(report.adversarial_distribution),
        "adversary_value": fraction_field(report.adversary_value),
        "l1_per_round": [str(v) for v in report.l1_per_round],
        "utilities": {name: fraction_field(v) for name, v in report.utilities.items()},
        "verdicts": {**report.verdicts, **payoff_verdicts},
        "policy": bit_keyed_json(report.policy),
    }
    _emit_report(payload, args.report)
    return 0 if all(payload["verdicts"].values()) else 1


def _cmd_reproduce(args) -> int:
    if not criterion_names(args.only):
        raise ValueError(f"--only {args.only}: no criterion name contains it")
    results = run_acceptance(only=args.only)
    width = max(len(r.name) for r in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name:<{width}}  {result.elapsed:7.2f}s  {result.detail}")
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def _emit_report(payload: dict, path: str | None) -> None:
    if path:
        write_json(path, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _add_protocol_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--game", required=True, help="game JSON file")
    sub.add_argument(
        "--objective",
        default="max-total-lex",
        choices=[o.value for o in CeObjective],
        help="equilibrium selection rule (default: max-total-lex)",
    )
    sub.add_argument(
        "--epsilon", type=_positive_rational, default="1/10", help="cheating budget (rational)"
    )
    sub.add_argument(
        "--delta", type=_positive_rational, default="1/2", help="emulation budget (rational)"
    )


def _positive_rational(text: str) -> Fraction:
    """An argparse type: a rational above 0, else an error that names the option."""
    try:
        value = as_fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _at_least_one(noun: str):
    """An argparse type: an int of at least 1, else an error that names the option."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"need at least 1 {noun}, got {value}")
        return value

    return parse


_trial_count = _at_least_one("trial")
_job_count = _at_least_one("job")


def _add_trial_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trials", type=_trial_count, default=1000)
    sub.add_argument("--seed", type=int, default=None, help="root seed (fresh one printed if omitted)")
    # A string default goes through ``type`` too, so the variable is checked like the flag.
    sub.add_argument(
        "--jobs",
        type=_job_count,
        default=os.environ.get("CE_SAMPLER_JOBS", "1"),
        help="worker processes (default: env CE_SAMPLER_JOBS, else 1)",
    )
    sub.add_argument("--party1", default="honest", help="honest | greedy | script:<file>")
    sub.add_argument("--party2", default="honest", help="honest | greedy | script:<file>")
    sub.add_argument("--report", default=None, help="write the JSON report here instead of stdout")
    sub.add_argument("--analyze", action="store_true", help="include exact verdicts in the report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ce-sampler",
        description="Correlated-equilibrium sampling without a mediator: solver, simulator, analyzer.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve-ce", help="compute a correlated equilibrium")
    solve.add_argument("--game", required=True)
    solve.add_argument(
        "--objective", default="max-total-lex", choices=[o.value for o in CeObjective]
    )
    solve.add_argument("--out", default=None, help="distribution JSON output path")
    solve.set_defaults(fn=_cmd_solve_ce)

    run = commands.add_parser("run", help="Monte Carlo over the sampling protocol")
    _add_protocol_args(run)
    _add_trial_args(run)
    run.add_argument("--transcript", default=None, help="write a JSON-lines message log")
    run.set_defaults(fn=_cmd_run)

    play = commands.add_parser("play", help="Monte Carlo over the full three-stage game")
    _add_protocol_args(play)
    _add_trial_args(play)
    play.set_defaults(fn=_cmd_play)

    analyze = commands.add_parser("analyze", help="exact adversary analysis and verdicts")
    _add_protocol_args(analyze)
    analyze.add_argument("--dishonest", type=int, choices=(1, 2), default=1)
    analyze.add_argument(
        "--power",
        default="bias-only",
        choices=POWERS,
        help="adversary class (bias-only is the class with guarantees)",
    )
    analyze.add_argument("--report", default=None)
    analyze.set_defaults(fn=_cmd_analyze)

    reproduce = commands.add_parser("reproduce", help="run the acceptance suite")
    reproduce.add_argument("--only", default=None, help="run criteria whose name contains this")
    reproduce.set_defaults(fn=_cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output early (``| head``): end quietly,
        # with stdout pointed at devnull so that the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except GameFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
