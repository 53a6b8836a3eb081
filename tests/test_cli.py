import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fenstring import ApplyOptions, FenstringError, cli, parse_fen, play_sequence
from fenstring.cli import main
from fenstring.fen_codec import SQUARES

from conftest import BAIRD_LEGACY, BAIRD_PLACEMENT, FIG1_FEN, START_FEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", FIG1_FEN)
        assert code == 0
        assert out.strip() == FIG1_FEN

    def test_garbage(self, capsys):
        code, _, err = run(capsys, "validate", "garbage")
        assert code == 2
        assert "SegmentCount" in err

    def test_rank_width(self, capsys):
        code, _, err = run(capsys, "validate", "8/8/8/8/8/8/8/9 w - - 0 1")
        assert code == 2
        assert "RankWidth" in err

    def test_strict_flag(self, capsys):
        code, _, err = run(capsys, "validate", "8/8/8/8/8/8/8/8 w - - 0 1", "--validation", "strict")
        assert code == 2
        assert "Validation" in err

    @pytest.mark.parametrize("clock", ["²", "9" * 5000], ids=["superscript", "5000-digits"])
    def test_bad_clock(self, capsys, clock):
        code, _, err = run(capsys, "validate", f"8/8/8/8/8/8/8/8 w - - {clock} 1")
        assert code == 2
        assert err.startswith("BadClock:")

    def test_typed_error_that_is_no_syntax_or_move_error(self, capsys, monkeypatch):
        # BadOptionError is neither: it still exits 2 with its code, not 1
        monkeypatch.setitem(cli._HANDLERS, "validate", lambda args: ApplyOptions(ep_mode="bogus"))
        code, _, err = run(capsys, "validate", FIG1_FEN)
        assert code == 2
        assert err.startswith("BadOption:")


class TestApply:
    def test_table_i(self, capsys):
        code, out, _ = run(capsys, "apply", FIG1_FEN, "f7f6", "--clock-mode", "frozen")
        assert code == 0
        assert out == "7N/1b4N1/5R1k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1\n"

    def test_table_ii(self, capsys):
        code, out, _ = run(capsys, "apply", FIG1_FEN, "f7c7", "--clock-mode", "frozen")
        assert code == 0
        assert out == "7N/1bR3N1/7k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1\n"

    def test_empty_origin(self, capsys):
        code, _, err = run(capsys, "apply", FIG1_FEN, "a3b4")
        assert code == 3
        assert "EmptyOrigin" in err

    def test_record_output(self, capsys):
        code, out, _ = run(capsys, "apply", FIG1_FEN, "f7f6", "--output", "record")
        assert code == 0
        record = json.loads(out)
        assert record["segments_touched"] == [1, 2]
        assert record["error"] is None
        assert record["fen_after"].startswith("7N/1b4N1/5R1k/")
        assert out == (
            '{"fen_after": "7N/1b4N1/5R1k/6b1/KBp4p/5q2/6Q1/7n b - - 1 1", '
            '"segments_touched": [1, 2], "was_capture": false, "was_pawn_move": false, '
            '"special": null, "error": null}\n'
        )

    @pytest.mark.parametrize(
        "fen,move,status,code",
        [("8/8/8/8/8/8/8/9 w - - 0 1", "e2e4", 2, "RankWidth"), (FIG1_FEN, "a3b4", 3, "EmptyOrigin")],
        ids=["syntax", "move"],
    )
    def test_record_output_error(self, capsys, fen, move, status, code):
        exit_status, out, err = run(capsys, "apply", fen, move, "--output", "record")
        assert exit_status == status
        record = json.loads(out)
        assert list(record) == [
            "fen_after", "segments_touched", "was_capture", "was_pawn_move", "special", "error"
        ]
        assert record["fen_after"] is None
        assert record["error"]["code"] == code
        assert err == f"{code}: {record['error']['message']}\n"

    def test_output_revalidates(self, capsys):
        _, out, _ = run(capsys, "apply", START_FEN, "e2e4")
        code, echoed, _ = run(capsys, "validate", out.strip())
        assert code == 0
        assert echoed.strip() == out.strip()


class TestPlay:
    def test_two_plies(self, capsys, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_text("e2e4  # king pawn\n\ne7e5\n")
        code, out, _ = run(capsys, "play", START_FEN, str(moves))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1] == "rnbqkbnr/pppp1ppp/8/4p3/4P3/8/PPPP1PPP/RNBQKBNR w KQkq e6 0 2"

    def test_empty_file(self, capsys, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_text("# only a comment\n")
        code, out, _ = run(capsys, "play", START_FEN, str(moves))
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize("text", ["# only a comment\n", "e2e4\n"], ids=["no-move", "e2e4"])
    @pytest.mark.parametrize(
        "fen, validation",
        [("garbage", "lenient"), ("8/8/8/8/8/8/8/8 w - - 0 1", "strict")],
        ids=["malformed", "strict-failing"],
    )
    def test_fen_is_read_without_moves(self, capsys, tmp_path, fen, validation, text):
        # the FEN is read before the first ply, under the given validation:
        # its error is the one parse_fen gives, with no ply, whatever the file holds
        with pytest.raises(FenstringError) as info:
            parse_fen(fen, validation)
        moves = tmp_path / "moves.txt"
        moves.write_text(text)
        status, out, err = run(capsys, "play", fen, str(moves), "--validation", validation)
        assert (status, out, err) == (2, "", f"{info.value.code}: {info.value}\n")

    def test_error_reports_ply(self, capsys, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_text("e2e4\ne2e4\n")
        code, out, err = run(capsys, "play", START_FEN, str(moves))
        assert code == 3
        # the plies before the failing one are written before the error
        assert out == "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1\n"
        assert err.startswith("ply 2:")
        assert "EmptyOrigin" in err

    def test_writes_one_block_of_fens_at_a_time(self, monkeypatch, tmp_path):
        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        shuffle = ["g1f3", "g8f6", "f3g1", "f6g8"]
        game = (shuffle * cli.PLAY_BLOCK)[:2 * cli.PLAY_BLOCK + 37]
        moves = tmp_path / "knights.moves"
        moves.write_text("\n".join(game) + "\n")
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["play", START_FEN, str(moves)]) == 0
        assert stdout.getvalue() == "\n".join(play_sequence(START_FEN, game)) + "\n"
        assert stdout.writes == math.ceil(len(game) / cli.PLAY_BLOCK) == 3

    def test_byte_order_mark_and_crlf(self, capsys, tmp_path):
        # editors on Windows save UTF-8 text with a byte order mark and CRLF
        moves = tmp_path / "moves.txt"
        moves.write_bytes("﻿e2e4\r\ne7e5\r\n".encode("utf-8"))
        code, out, err = run(capsys, "play", START_FEN, str(moves))
        assert (code, err) == (0, "")
        assert out == "\n".join(play_sequence(START_FEN, ["e2e4", "e7e5"])) + "\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "play", START_FEN, str(tmp_path / "nope.txt"))
        assert code == 2

    def test_not_utf8_file(self, capsys, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_bytes(b"\xff\xfe\n")
        code, out, err = run(capsys, "play", START_FEN, str(moves))
        assert code == 2
        assert out == ""
        assert err == f"{moves}: not UTF-8 text: invalid start byte\n"


class TestFuzz:
    def test_no_mismatches(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "1", "--iterations", "500")
        assert code == 0
        assert "mismatches: 0" in out

    def test_strict(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--validation", "strict", "--iterations", "500")
        assert code == 0
        assert "mismatches: 0" in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "fuzz", "--seed", "9", "--iterations", "300")
        _, second, _ = run(capsys, "fuzz", "--seed", "9", "--iterations", "300")
        assert first == second

    def test_zero_iterations_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fuzz", "--iterations", "0"])
        assert info.value.code == 2


class TestBench:
    def test_report_format(self, capsys):
        code, out, _ = run(capsys, "bench", "--iterations", "500")
        assert code == 0
        assert "iterations: 500" in out
        assert out.count("ops/s") == 2
        assert "ratio" in out


class TestConvertForsyth:
    def test_baird(self, capsys):
        code, out, _ = run(capsys, "convert-forsyth", BAIRD_LEGACY)
        assert code == 0
        assert out.strip() == f"{BAIRD_PLACEMENT} w - - 0 1"

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "convert-forsyth", "8, 8, 8, 8, 8, 8, 8, 8")
        assert code == 0
        assert out.strip() == "8/8/8/8/8/8/8/8 w - - 0 1"

    def test_side_flag(self, capsys):
        code, out, _ = run(capsys, "convert-forsyth", BAIRD_LEGACY, "--side", "b")
        assert code == 0
        assert out.strip() == f"{BAIRD_PLACEMENT} b - - 0 1"

    def test_castling_canonical_order(self, capsys):
        code, out, _ = run(capsys, "convert-forsyth", BAIRD_LEGACY, "--castling", "qK")
        assert code == 0
        assert out.strip() == f"{BAIRD_PLACEMENT} w Kq - 0 1"

    @pytest.mark.parametrize("field", ["", "K Q", "KK"])
    def test_bad_castling(self, capsys, field):
        # checked before the FEN is joined: "" and "K Q" would otherwise
        # change the field count
        code, _, err = run(capsys, "convert-forsyth", BAIRD_LEGACY, "--castling", field)
        assert code == 2
        assert err.startswith("BadCastlingField:")

    def test_ep_flag(self, capsys):
        code, out, _ = run(capsys, "convert-forsyth", BAIRD_LEGACY, "--ep", "e3")
        assert code == 0
        assert out.strip() == f"{BAIRD_PLACEMENT} w - e3 0 1"

    # no capsys state is carried between examples: each run reads it out
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.just("-"),
        st.sampled_from(sorted(SQUARES)),
        st.sampled_from(sorted(SQUARES)).map(str.upper),
        st.sampled_from(["zz", "e", "a9", "e33", "٣"]),
    ))
    def test_ep_is_read_as_validate_reads_it(self, capsys, field):
        # one reader for the field: the same FEN, or the same status and message
        converted = run(capsys, "convert-forsyth", "8, 8, 8, 8, 8, 8, 8, 8", "--ep", field)
        assert converted == run(capsys, "validate", f"8/8/8/8/8/8/8/8 w - {field} 0 1")

    def test_bad_ep_square(self, capsys):
        code, _, err = run(capsys, "convert-forsyth", BAIRD_LEGACY, "--ep", "e9")
        assert code == 2
        # read by the FEN rule for the field: the error validate gives
        assert err == "BadEnPassantField: bad en-passant field: 'e9'\n"

    @pytest.mark.parametrize(
        "flags, err",
        [
            (["--ep", "e4"], "BadEnPassantField: en-passant square 'e4' not on rank 3 or 6\n"),
            (["--halfmove", "-5"], "BadClock: bad halfmove clock: '-5'\n"),
            (["--fullmove", "0"], "BadClock: bad fullmove number: '0'\n"),
        ],
        ids=["ep-rank", "halfmove", "fullmove"],
    )
    def test_field_the_fen_grammar_refuses(self, capsys, flags, err):
        assert run(capsys, "convert-forsyth", BAIRD_LEGACY, *flags) == (2, "", err)

    @pytest.mark.parametrize(
        "halfmove, fullmove, err",
        [
            ("٣", "1_0", "BadClock: bad halfmove clock: '٣'\n"),
            ("0000000001", "1", "BadClock: bad halfmove clock: '0000000001'\n"),
            ("0", "1_0", "BadClock: bad fullmove number: '1_0'\n"),
            ("+3", "1", "BadClock: bad halfmove clock: '+3'\n"),
            ("0", "２", "BadClock: bad fullmove number: '２'\n"),
        ],
        ids=["arabic-indic-digit", "ten-digits", "underscore", "plus-sign", "fullwidth-digit"],
    )
    def test_clock_follows_the_fen_clock_grammar(self, capsys, halfmove, fullmove, err):
        # text int() reads but the FEN clock grammar refuses: the same exit
        # status and message as validate gives for the same clock field
        flags = ["--halfmove", halfmove, "--fullmove", fullmove]
        assert run(capsys, "convert-forsyth", "8, 8, 8, 8, 8, 8, 8, 8", *flags) == (2, "", err)
        fen = f"8/8/8/8/8/8/8/8 w - - {halfmove} {fullmove}"
        assert run(capsys, "validate", fen) == (2, "", err)

    @pytest.mark.parametrize("flag", ["--halfmove", "--fullmove"])
    @pytest.mark.parametrize("field", ["", " 3", "3 4"],
                             ids=["empty", "leading-space", "two-fields"])
    def test_clock_is_one_field(self, capsys, flag, field):
        # read before any text is joined, so not reported as a field count
        status, out, err = run(capsys, "convert-forsyth", "8, 8, 8, 8, 8, 8, 8, 8", flag, field)
        assert (status, out) == (2, "")
        assert err.startswith("BadClock: ")

    @pytest.mark.parametrize(
        "text, flags, code",
        [
            ("1 X 6, 8, 8, 8, 8, 8, 8, 8", ["--castling", "K Q"], "BadToken"),
            (BAIRD_LEGACY, ["--castling", "K Q", "--ep", "zz"], "BadCastlingField"),
            (BAIRD_LEGACY, ["--ep", "zz", "--halfmove", "-5"], "BadEnPassantField"),
            (BAIRD_LEGACY, ["--ep", "e4", "--halfmove", "-5"], "BadEnPassantField"),
        ],
        ids=["text-before-castling", "castling-before-ep", "ep-name-before-clock",
             "ep-rank-before-clock"],
    )
    def test_error_precedence(self, capsys, text, flags, code):
        # legacy text, castling, en-passant name, en-passant rank, clocks
        status, out, err = run(capsys, "convert-forsyth", text, *flags)
        assert (status, out) == (2, "")
        assert err.startswith(f"{code}: ")

    def test_bad_token(self, capsys):
        code, _, err = run(capsys, "convert-forsyth", "1 X 6, 8, 8, 8, 8, 8, 8, 8")
        assert code == 2
        assert "BadToken" in err

    @pytest.mark.parametrize("token", ["²", "9" * 5000], ids=["superscript", "5000-digits"])
    def test_run_token_not_short_ascii_digits(self, capsys, token):
        code, _, err = run(capsys, "convert-forsyth", f"{token}, 8, 8, 8, 8, 8, 8, 8")
        assert code == 2
        assert err.startswith("BadToken:")


# what a `play` process must not load: each costs start-up time and `play` uses none
_NOT_FOR_PLAY = ("dataclasses", "typing", "json", "fenstring.oracle", "fenstring.fuzzing",
                 "fenstring.legacy")

_PLAY_IMPORTS = """
import sys

import fenstring

# the package alone uses no regular expression; the CLI's argparse loads re
assert "re" not in sys.modules

from fenstring import cli

start, moves, not_for_play = sys.argv[1], sys.argv[2], sys.argv[3].split()
assert cli.main(["play", start, moves]) == 0
print("loaded:", " ".join(sorted(set(not_for_play) & set(sys.modules))))

from fenstring import oracle

assert all(getattr(fenstring, name) is not None for name in fenstring.__all__)
assert fenstring.oracle_apply is oracle.oracle_apply
# the oracle, the fuzzer and the legacy codec are loaded now, and none
# imports typing, dataclasses or inspect
assert not {"typing", "dataclasses", "inspect"} & set(sys.modules)
"""


def test_play_process_loads_only_the_string_path(tmp_path):
    moves = tmp_path / "game.moves"
    moves.write_text("e2e4\ne7e5\ng1f3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PLAY_IMPORTS, START_FEN, str(moves), " ".join(_NOT_FOR_PLAY)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *fens, loaded = proc.stdout.splitlines()
    assert len(fens) == 3
    assert loaded == "loaded: "
