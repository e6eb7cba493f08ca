"""Command-line interface: reports, determinism, error paths."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ce_sampler import cli
from ce_sampler.analysis import POWERS
from ce_sampler.cli import _chunk_bounds, _worker_count, main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "ce_sampler" / "data"
BOS = str(DATA / "bos.json")


def run_cli(*argv) -> int:
    return main(list(argv))


class TestSolveCe:
    def test_writes_distribution_file(self, tmp_path):
        out = tmp_path / "dist.json"
        assert run_cli("solve-ce", "--game", BOS, "--objective", "max-fair", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload == {"probs": {"0,0": "1/2", "1,1": "1/2"}}

    def test_prints_to_stdout(self, capsys):
        assert run_cli("solve-ce", "--game", BOS, "--objective", "max-total-lex") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"probs": {"0,0": "1"}}

    def test_missing_game_file(self, tmp_path, capsys):
        code = run_cli("solve-ce", "--game", str(tmp_path / "absent.json"))
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"bos"', "null"])
    def test_game_that_is_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "g.json"
        path.write_text(text)
        assert run_cli("solve-ce", "--game", str(path)) == 2
        err = capsys.readouterr().err
        assert "g.json" in err and "JSON object" in err and "Traceback" not in err


class TestRun:
    def test_report_deterministic_for_fixed_seed(self, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(
                "run", "--game", BOS, "--objective", "max-fair",
                "--trials", "50", "--seed", "9", "--report", str(out),
            ) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_fresh_seed_is_printed(self, capsys):
        assert run_cli("run", "--game", BOS, "--objective", "max-fair", "--trials", "5") == 0
        out = capsys.readouterr().out
        assert "seed:" in out

    def test_report_contents(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli(
            "run", "--game", BOS, "--objective", "max-fair",
            "--trials", "40", "--seed", "3", "--report", str(out), "--analyze",
        )
        payload = json.loads(out.read_text())
        assert payload["config"]["k"] == 3
        assert payload["config"]["per_round_bias"] == "1/60"
        assert sum(entry["count"] for entry in payload["frequencies"].values()) == 40
        assert len(payload["per_trial"]) == 40
        assert payload["exact_honest_distribution"] == {"000": "1/2", "100": "1/2"}
        assert all(payload["exact_verdicts"].values())

    def test_parallel_jobs_match_single_process(self, tmp_path):
        single = tmp_path / "single.json"
        multi = tmp_path / "multi.json"
        base = ["run", "--game", BOS, "--objective", "max-fair", "--trials", "60", "--seed", "4"]
        assert run_cli(*base, "--jobs", "1", "--report", str(single)) == 0
        assert run_cli(*base, "--jobs", "3", "--report", str(multi)) == 0
        a = json.loads(single.read_text())
        b = json.loads(multi.read_text())
        assert a["frequencies"] == b["frequencies"]
        assert a["per_trial"] == b["per_trial"]

    def test_transcript_log(self, tmp_path):
        log = tmp_path / "log.jsonl"
        run_cli(
            "run", "--game", BOS, "--objective", "max-fair",
            "--trials", "3", "--seed", "5", "--transcript", str(log),
            "--report", str(tmp_path / "r.json"),
        )
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert sum(record["kind"] == "summary" for record in lines) == 3
        assert any(record["kind"] == "preference" for record in lines)

    def test_greedy_party_spec(self, tmp_path):
        out = tmp_path / "greedy.json"
        assert run_cli(
            "run", "--game", BOS, "--objective", "max-fair",
            "--trials", "30", "--seed", "8", "--party1", "greedy", "--report", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert sum(entry["count"] for entry in payload["frequencies"].values()) == 30

    def test_script_party_spec(self, tmp_path):
        script = tmp_path / "adv.json"
        script.write_text(json.dumps({"win_request": {"": "31/60"}}))
        out = tmp_path / "scripted.json"
        assert run_cli(
            "run", "--game", BOS, "--objective", "max-fair",
            "--trials", "20", "--seed", "8", "--party1", f"script:{script}",
            "--report", str(out),
        ) == 0

    def test_unknown_party_spec(self, capsys):
        assert run_cli(
            "run", "--game", BOS, "--objective", "max-fair", "--trials", "5",
            "--seed", "1", "--party1", "sneaky",
        ) == 2
        assert "sneaky" in capsys.readouterr().err


@pytest.mark.parametrize(
    "script, field, seats",
    [
        ({"game_move": 7}, "game_move", (1,)),
        ({"game_move": 7, "check_move": "A"}, "game_move", (1, 2)),
        ({"game_move": "1"}, "game_move", (2,)),
        ({"announce": {"": 2}}, "announce", (1,)),
        ({"check_move": "maybe"}, "check_move", (1,)),
        ([{"game_move": 0}], "JSON object", (1,)),
        ({"win_request": {"11": "3/2"}}, "win_request", (1,)),
        ({"win_request": {"": "lots"}}, "win_request", (2,)),
        ({"announce": {"0101": 1}}, "announce", (1,)),
        ({"announce": {"2": 1}}, "announce", (1,)),
        ({"announce": [1]}, "announce", (1,)),
        ({"anounce": {"": 1}}, "anounce", (1,)),
        (None, "no such file", (1,)),
    ],
    ids=[
        "move-out-of-range", "move-both-seats", "move-not-int", "sign", "check", "list",
        "request-above-one", "request-not-rational", "prefix-too-long", "prefix-not-bits",
        "prefix-map-not-object", "unknown-field", "missing-file",
    ],
)
def test_bad_script_is_rejected_before_any_trial(
    script, field, seats, tmp_path, monkeypatch, capsys
):
    def no_trials(payload):
        raise AssertionError("a trial ran before the script was checked")

    monkeypatch.setattr(cli, "_trial_chunk", no_trials)
    path = tmp_path / "f.json"
    if script is not None:
        path.write_text(json.dumps(script))
    argv = ["play", "--game", BOS, "--objective", "max-fair", "--trials", "20", "--seed", "1",
            "--report", str(tmp_path / "r.json")]
    for seat in seats:
        argv += [f"--party{seat}", f"script:{path}"]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert str(path) in captured.err and field in captured.err
    assert captured.out == ""


def test_script_overrides_every_field(tmp_path):
    script = tmp_path / "all.json"
    script.write_text(json.dumps({
        "announce": {"": "-1", "01": 1},
        "win_request": {"": "1/2"},
        "game_move": 1,
        "check_move": "R",
    }))
    out = tmp_path / "play.json"
    assert run_cli(
        "play", "--game", BOS, "--objective", "max-fair", "--trials", "20", "--seed", "2",
        "--party1", f"script:{script}", "--report", str(out),
    ) == 0
    rows = json.loads(out.read_text())["per_trial"]
    assert all(row["played"].startswith("1,") and row["checks"][0] == "R" for row in rows)


class TestPlay:
    def test_report_payoffs(self, tmp_path):
        out = tmp_path / "play.json"
        assert run_cli(
            "play", "--game", BOS, "--objective", "max-fair",
            "--trials", "80", "--seed", "12", "--report", str(out), "--analyze",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["exact"]["input_is_ce"] is True
        assert payload["exact"]["source_payoffs"]["p1"]["exact"] == "3"
        mean = payload["payoffs"]["p1"]["float"]
        assert 2.0 < mean < 4.0
        assert all(payload["exact"]["payoff_guarantees"].values())


@pytest.mark.parametrize("command", ["run", "play"])
@pytest.mark.parametrize("trials", ["0", "-3", "many"])
def test_bad_trial_count_is_rejected(command, trials, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--game", BOS, "--objective", "max-fair", "--trials", trials, "--seed", "1")
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "run", "play"])
@pytest.mark.parametrize("flag", ["--epsilon", "--delta"])
@pytest.mark.parametrize("value", ["0", "-3", "abc", "1/0"])
def test_bad_budget_names_the_flag(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--game", BOS, "--objective", "max-fair", flag, value)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "play"])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_bad_job_count_is_rejected(command, jobs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--game", BOS, "--objective", "max-fair", "--trials", "5",
                "--seed", "1", "--jobs", jobs)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--jobs" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "run", "play"])
def test_too_large_epsilon_names_the_flag(command, capsys):
    # bos at the default delta has k = 3 rounds, so the per-round bias
    # epsilon/(2k) reaches 1/2 at epsilon = 3.
    for epsilon in ("3", "4"):
        assert run_cli(command, "--game", BOS, "--objective", "max-fair", "--epsilon", epsilon) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # not even a seed line
        assert f"--epsilon {epsilon}" in captured.err and "k = 3" in captured.err
        assert "bias must satisfy" not in captured.err


@pytest.mark.parametrize("command", ["run", "play"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_two_cheaters_name_both_party_flags(command, jobs, tmp_path, capsys):
    # Two greedy parties both request a biased coin at bos's first coin node.
    report = tmp_path / "r.json"
    assert run_cli(
        command, "--game", BOS, "--objective", "max-fair", "--trials", "4", "--seed", "1",
        "--jobs", jobs, "--party1", "greedy", "--party2", "greedy", "--report", str(report),
    ) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--party1 greedy" in captured.err and "--party2 greedy" in captured.err
    assert "both parties requested a biased coin" in captured.err
    assert captured.out == "" and not report.exists()


@pytest.mark.parametrize("value, code",[("2", 0), ("0", 2), ("-3", 2), ("two", 2)])
def test_jobs_default_from_environment_is_checked(value, code, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("CE_SAMPLER_JOBS", value)
    argv = ["run", "--game", BOS, "--objective", "max-fair", "--trials", "4", "--seed", "1",
            "--report", str(tmp_path / "r.json")]
    if code:
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == code
        assert "--jobs" in capsys.readouterr().err
    else:
        assert run_cli(*argv) == 0
        assert json.loads((tmp_path / "r.json").read_text())["config"]["jobs"] == 2


@pytest.mark.parametrize(
    "trials, jobs, bounds, workers",
    [
        (10, 1, [(0, 10)], 1),
        (10, 3, [(0, 4), (4, 4), (8, 2)], 3),
        (5, 64, [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)], 5),
        (1, 8, [(0, 1)], 1),
    ],
)
def test_pool_is_sized_by_chunks(trials, jobs, bounds, workers):
    assert _chunk_bounds(trials, jobs) == bounds
    assert _worker_count(jobs, len(bounds)) == workers


class TestAnalyze:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "analysis.json"
        assert run_cli(
            "analyze", "--game", BOS, "--objective", "max-fair",
            "--epsilon", "1/10", "--delta", "1/2", "--dishonest", "1",
            "--report", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["l1_per_round"] == ["0", "1/30", "1/30", "1/30"]
        assert payload["adversarial_distribution"] == {"000": "31/60", "100": "29/60"}
        assert payload["adversary_value"]["exact"] == "91/120"
        assert all(payload["verdicts"].values())

    def test_unrestricted_power_can_fail_verdicts(self, tmp_path, capsys):
        # On this instance the unrestricted class gains nothing extra, so
        # the command still exits 0; the flag is accepted and echoed.
        out = tmp_path / "analysis.json"
        assert run_cli(
            "analyze", "--game", BOS, "--objective", "max-fair",
            "--epsilon", "1/10", "--delta", "1/2", "--power", "unrestricted",
            "--report", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["adversary_power"] == "unrestricted"

    def test_checked_power_is_accepted(self, tmp_path):
        out = tmp_path / "analysis.json"
        assert run_cli(
            "analyze", "--game", BOS, "--objective", "max-fair",
            "--epsilon", "1/10", "--delta", "1/2", "--power", "checked",
            "--report", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["adversary_power"] == "checked"
        assert all(payload["verdicts"].values())


# SHA-256 over the ``analyze --report`` bytes and exit codes of every power
# and dishonest seat, per (game, delta): delta 1/2 is k = 3, delta 1/64 is k = 8.
ANALYZE_REPORT_DIGESTS = {
    ("bos", "1/2"): "ba4f544380131bfa2d9b7f95a77b64f6f64ac7ebec78dc69d34f4104d4569184",
    ("bos", "1/64"): "9d3d4020539faa1a4b25263ae958f5f4ca5cd0ad4927fb906ea5e5df128c0697",
    ("coinflip", "1/2"): "ace5e87f0e15c2b1541cbd15f7be46fa464b84f4f61fb092313e58e40974e6e6",
    ("coinflip", "1/64"): "c4bf4a8e9ff49638b7ca73df4791090845b1ea56cab53b820ce39cd77b9409af",
}


@pytest.mark.parametrize("game, delta", list(ANALYZE_REPORT_DIGESTS))
def test_analyze_reports_are_pinned(game, delta, tmp_path):
    out = tmp_path / "analysis.json"
    digest = hashlib.sha256()
    for power in POWERS:
        for dishonest in ("1", "2"):
            code = run_cli(
                "analyze", "--game", str(DATA / f"{game}.json"), "--delta", delta,
                "--power", power, "--dishonest", dishonest, "--report", str(out),
            )
            digest.update(f"{power} {dishonest} {code}\n".encode())
            digest.update(out.read_bytes())
    assert digest.hexdigest() == ANALYZE_REPORT_DIGESTS[game, delta]


class TestReproduce:
    def test_single_criterion(self, capsys):
        assert run_cli("reproduce", "--only", "bos_equilibria") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "bos_equilibria" in out

    def test_unknown_filter(self, capsys):
        assert run_cli("reproduce", "--only", "nonexistent") == 2
        err = capsys.readouterr().err
        assert "nonexistent" in err
        assert err == "error: --only nonexistent: no criterion name contains it\n"


@pytest.mark.parametrize(
    "argv", [["reproduce", "--only", "bos"], ["analyze", "--game", BOS]], ids=["reproduce", "analyze"]
)
def test_closed_stdout_ends_quietly(argv):
    # The read end is closed before the first write, as after ``| head -1``.
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ce_sampler", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
