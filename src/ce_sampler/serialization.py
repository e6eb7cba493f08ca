"""File formats: games, distributions, party scripts, emulation dumps, transcripts, reports.

All rationals travel as strings ("1/2", "0.25", "3") so nothing is ever
rounded on the way to disk; floats appear only as read-only convenience
fields in reports.  Parse errors name the offending file and field.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .emulation import MultisetEmulation
from .games import Game, JointDistribution, as_fraction
from .protocol import ScriptedParty, Transcript


class GameFormatError(Exception):
    """Base for all input file problems: games, distributions, party scripts."""


class MissingFileError(GameFormatError):
    pass


class MalformedJsonError(GameFormatError):
    pass


class DimensionMismatchError(GameFormatError):
    pass


class NonRationalEntryError(GameFormatError):
    pass


def _load_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise MissingFileError(f"no such file: {path}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _parse_matrix(raw: Any, field: str, rows: int, cols: int, where: str) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(raw, list) or len(raw) != rows:
        raise DimensionMismatchError(f"{where}: field {field!r} must have {rows} rows")
    matrix = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise DimensionMismatchError(
                f"{where}: field {field!r} row {r} must have {cols} entries"
            )
        parsed_row = []
        for c, entry in enumerate(row):
            try:
                parsed_row.append(as_fraction(entry))
            except (ValueError, TypeError) as exc:
                raise NonRationalEntryError(
                    f"{where}: field {field!r} entry [{r}][{c}]: {exc}"
                ) from exc
        matrix.append(tuple(parsed_row))
    return tuple(matrix)


def parse_game(obj: Mapping[str, Any], where: str = "<game>") -> Game:
    """Build a game from its JSON object form.

    Expected shape::

        {"strategies": [["A","B"], ["A","B"]],
         "u1": [["4","0"], ["0","2"]],
         "u2": [["2","0"], ["0","4"]]}
    """
    if not isinstance(obj, dict):
        raise GameFormatError(f"{where}: a game must be a JSON object")
    strategies = obj.get("strategies")
    if (
        not isinstance(strategies, list)
        or len(strategies) != 2
        or not all(isinstance(side, list) and side for side in strategies)
    ):
        raise DimensionMismatchError(
            f"{where}: field 'strategies' must list both players' strategy labels"
        )
    labels_1 = tuple(str(s) for s in strategies[0])
    labels_2 = tuple(str(s) for s in strategies[1])
    rows, cols = len(labels_1), len(labels_2)
    for field in ("u1", "u2"):
        if field not in obj:
            raise DimensionMismatchError(f"{where}: missing field {field!r}")
    u1 = _parse_matrix(obj["u1"], "u1", rows, cols, where)
    u2 = _parse_matrix(obj["u2"], "u2", rows, cols, where)
    return Game(labels_1, labels_2, u1, u2)


def parse_game_file(path: str | Path) -> Game:
    return parse_game(_load_json(path), where=str(path))


def distribution_to_json(dist: JointDistribution) -> dict:
    return {
        "probs": {f"{s.s1},{s.s2}": str(p) for s, p in dist.items_sorted()}
    }


SCRIPT_FIELDS = ("announce", "win_request", "game_move", "check_move")


def parse_script(
    obj: Any, game: Game, player: int, k: int, where: str = "<script>"
) -> ScriptedParty:
    """Build seat ``player``'s scripted party from its JSON object form.

    The schema is in the README.  Every value is checked here, also at
    round-tree nodes that a run may never reach: the JSON shape here,
    the values by ``ScriptedParty`` and its ``check_seat``.
    """
    if not isinstance(obj, dict):
        raise GameFormatError(f"{where}: a party script must be a JSON object")
    for field in obj:
        if field not in SCRIPT_FIELDS:
            raise GameFormatError(
                f"{where}: unknown field {field!r} (use {', '.join(SCRIPT_FIELDS)})"
            )

    def prefix_map(field: str) -> dict:
        raw = obj.get(field, {})
        if not isinstance(raw, dict):
            raise GameFormatError(f"{where}: field {field!r} must map prefixes to values")
        # A key becomes a bit tuple; any other character is kept for
        # check_seat to reject by name.
        return {tuple(int(b) if b in "01" else b for b in key): v for key, v in raw.items()}

    try:
        party = ScriptedParty(
            prefix_map("announce"), prefix_map("win_request"),
            obj.get("game_move"), obj.get("check_move"),
        )
        party.check_seat(game, player, k)
    except ValueError as exc:
        raise GameFormatError(f"{where}: {exc}") from exc
    return party


def parse_script_file(path: str | Path, game: Game, player: int, k: int) -> ScriptedParty:
    return parse_script(_load_json(path), game, player, k, where=str(path))


def emulation_to_json(em: MultisetEmulation) -> dict:
    return {
        "k": em.k,
        "table": [f"{cell.s1},{cell.s2}" for cell in em.table],
    }


def fraction_field(value: Fraction) -> dict:
    """Exact string plus a float convenience; exactness lives in the string."""
    return {"exact": str(value), "float": float(value)}


def bit_string(bits) -> str:
    return "".join(str(b) for b in bits)


def bit_keyed_json(mapping: Mapping) -> dict:
    """A mapping keyed by bit tuples, as bit strings to exact value strings."""
    return {bit_string(bits): str(value) for bits, value in sorted(mapping.items())}


def transcript_records(transcript: Transcript) -> list[dict]:
    """JSON-lines form: one record per message plus a final summary record."""
    records = [
        {
            "kind": message.kind,
            "sender": message.sender,
            "round": message.round_index,
            "value": str(message.value),
        }
        for message in transcript.messages
    ]
    records.append({
        "kind": "summary",
        "ell": bit_string(transcript.ell),
        "output": f"{transcript.output.s1},{transcript.output.s2}",
    })
    return records


def write_json(path: str | Path, payload: Mapping[str, Any]) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
