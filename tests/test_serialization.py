"""File formats: parsing, validation errors, round trips."""

import json
from fractions import Fraction as F

import pytest

from ce_sampler import JointStrategy, emulate
from ce_sampler.acceptance import bundled_game
from ce_sampler.protocol import Message, RoundRecord, Transcript
from ce_sampler.serialization import (
    DimensionMismatchError,
    GameFormatError,
    MalformedJsonError,
    MissingFileError,
    NonRationalEntryError,
    distribution_to_json,
    emulation_to_json,
    parse_game,
    parse_game_file,
    transcript_records,
)

GOOD_GAME = {
    "strategies": [["A", "B"], ["A", "B"]],
    "u1": [["4", "0"], ["0", "2"]],
    "u2": [["2", "0"], ["0", "4"]],
}


class TestGameParsing:
    def test_round_trip(self, bos):
        game = parse_game(GOOD_GAME)
        assert game.u1[0][0] == 4
        assert game.strategies_2 == ("A", "B")
        assert game == bos

    def test_fraction_and_decimal_strings(self):
        obj = dict(GOOD_GAME, u1=[["1/3", "0.25"], ["-2", "7"]])
        game = parse_game(obj)
        assert game.u1[0][0] == F(1, 3)
        assert game.u1[0][1] == F(1, 4)

    def test_ragged_rows_rejected(self):
        obj = dict(GOOD_GAME, u1=[["4", "0"], ["0"]])
        with pytest.raises(DimensionMismatchError) as err:
            parse_game(obj)
        assert "u1" in str(err.value)

    def test_non_rational_entry_rejected(self):
        obj = dict(GOOD_GAME, u2=[["2", "0"], ["0", "four"]])
        with pytest.raises(NonRationalEntryError) as err:
            parse_game(obj)
        assert "u2" in str(err.value) and "[1][1]" in str(err.value)

    def test_missing_matrix_rejected(self):
        obj = {"strategies": GOOD_GAME["strategies"], "u1": GOOD_GAME["u1"]}
        with pytest.raises(DimensionMismatchError) as err:
            parse_game(obj)
        assert "u2" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            parse_game_file(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(MalformedJsonError) as err:
            parse_game_file(path)
        assert "broken.json" in str(err.value)

    @pytest.mark.parametrize("text", ["[1, 2]", '"bos"', "null"])
    def test_top_level_must_be_an_object(self, tmp_path, text):
        with pytest.raises(GameFormatError) as err:
            parse_game(json.loads(text), where="g.json")
        assert "g.json" in str(err.value)
        path = tmp_path / "listed.json"
        path.write_text(text)
        with pytest.raises(GameFormatError) as err:
            parse_game_file(path)
        assert "listed.json" in str(err.value)

    def test_bundled_games(self):
        bos = bundled_game("bos")
        assert bos.u1 == ((F(4), F(0)), (F(0), F(2)))
        assert bos.u2 == ((F(2), F(0)), (F(0), F(4)))
        coinflip = bundled_game("coinflip")
        assert coinflip.u1 == ((F(1), F(0)), (F(0), F(0)))
        assert coinflip.u2 == ((F(0), F(0)), (F(0), F(1)))


class TestDistributionFormat:
    def test_round_trip(self, bos_fair_ce):
        payload = distribution_to_json(bos_fair_ce)
        assert payload == {"probs": {"0,0": "1/2", "1,1": "1/2"}}


class TestEmulationDump:
    def test_format(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        payload = emulation_to_json(em)
        assert payload["k"] == 3
        assert payload["table"] == ["0,0"] * 4 + ["1,1"] * 4


class TestTranscriptLog:
    def test_records(self):
        transcript = Transcript(
            rounds=[RoundRecord(1, 1, -1, "coin", 0, None, None)],
            ell=(0,),
            output=JointStrategy(0, 0),
            messages=[Message("preference", 1, 1, 1), Message("preference", 2, 1, -1)],
        )
        records = transcript_records(transcript)
        assert [r["kind"] for r in records] == ["preference", "preference", "summary"]
        summary = records[-1]
        assert summary["ell"] == "0"
        assert summary["output"] == "0,0"
        for record in records:
            json.dumps(record)  # every record is JSON-serializable
