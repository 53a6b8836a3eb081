import functools
import io
import math
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fenstring import ApplyOptions, FenstringError, cli, oracle_apply, parse_fen, play_sequence
from fenstring.cli import main
from fenstring.fen_codec import SQUARES

from conftest import ALL_OPTIONS, BAIRD_LEGACY, BAIRD_PLACEMENT, FIG1_FEN, START_FEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Prefix(str):
    """Expected text given by its start alone."""


class Lines(namedtuple("Lines", "count last")):
    """Expected text given by its number of lines and its last line."""


def _expect(text, expected):
    if callable(expected):  # worked out in the test, as the oracle's game is
        expected = expected()
    if isinstance(expected, Prefix):
        assert text.startswith(expected), text
    elif isinstance(expected, Lines):
        lines = text.splitlines(keepends=True)
        assert (len(lines), lines[-1]) == (expected.count, expected.last + "\n")
    else:
        assert text == expected


# stands in a case's argv for the moves file, which the test writes from the case's bytes
MOVES = "{moves}"
_KNIGHTS = b"g1f3\ng8f6\nf3g1\nf6g8\n"
# the start position without its clocks: the knights' shuffle changes nothing else
_START_BOARD = START_FEN.removesuffix(" 0 1")
_EMPTY_BOARD = "8, 8, 8, 8, 8, 8, 8, 8"
_E2E4_RECORD = (
    '{"fen_after": "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1", '
    '"segments_touched": [4, 6], "was_capture": false, "was_pawn_move": true, '
    '"special": null, "error": null}\n'
)
_ERROR_RECORD = ('{"fen_after": null, "segments_touched": null, "was_capture": null, '
                 '"was_pawn_move": null, "special": null, "error": ')
_LONG_CLOCK_FEN = "4k3/8/8/8/8/8/8/4K3 b - - 0 999999999"
_KING_CAPTURE_FEN = "4k3/8/8/8/8/8/8/4RK2 w - - 0 1"
_KING_CAPTURE = b"f1g2\ne8e7\ne1e7\n"
_CASTLE_ONTO_OWN_FEN = "4k3/8/8/8/8/8/8/4KB1R w K - 5 1"
_EN_PASSANT_ONTO_OWN_FEN = "4k3/8/8/3NP3/8/8/8/4K3 w - d6 5 1"

# double pushes, an en-passant capture, a castle per side and a promotion by
# capture, then knight moves up to 300 plies
_SPECIALS_GAME = (
    "e2e4 e7e5 g1f3 b8c6 f1c4 g8f6 e1g1 f8c5 a2a4 h7h6 a4a5 b7b5 a5b6 e8g8 b6c7 h6h5 c7d8q".split()
    + ["f6e8", "f3e1", "e8f6", "e1f3"] * 70 + ["f6e8", "f3e1", "e8f6"]
)


def _oracle_game(options):
    """What `play` writes for the specials game: the array oracle, chained over its moves."""
    fen, out = START_FEN, ""
    for move in _SPECIALS_GAME:
        fen = oracle_apply(fen, move, options)
        out += fen + "\n"
    return out


class Case(namedtuple("Case", "argv status out err moves", defaults=("", "", None))):
    """One CLI case: its argv, exit status, stdout and stderr, and the bytes
    of the moves file that MOVES names in the argv. stdout and stderr are
    exact text, a Prefix, a Lines or a function that gives the exact text."""


_CASES = {
    "validate-fig1": Case(("validate", FIG1_FEN), 0, FIG1_FEN + "\n"),
    "validate-castling-order": Case(("validate", START_FEN.replace("KQkq", "qkQK")),
                                    0, START_FEN + "\n"),
    "validate-garbage": Case(("validate", "garbage"), 2, err=Prefix("SegmentCount:")),
    "validate-rank-width": Case(("validate", "8/8/8/8/8/8/8/9 w - - 0 1"),
                                2, err=Prefix("RankWidth:")),
    "validate-strict": Case(("validate", "8/8/8/8/8/8/8/8 w - - 0 1", "--validation", "strict"),
                            2, err=Prefix("Validation:")),
    # the shape table refuses the placement; the first refused segment names the error
    "validate-two-bad-segments": Case(("validate", "8/8/44/8/8/9/8/8 w - - 0 1"),
                                      2, err=Prefix("AdjacentDigits:")),
    "validate-last-segment-bad": Case(("validate", "8/8/8/8/8/8/8/x7 w - - 0 1"),
                                      2, err=Prefix("BadPieceLetter:")),
    "validate-ep-name": Case(("validate", "8/8/8/8/8/8/8/8 w - zz 0 1"),
                             2, err="BadEnPassantField: bad en-passant field: 'zz'\n"),
    **{f"validate-clock-{name}": Case(("validate", f"8/8/8/8/8/8/8/8 w - - {clock} 1"),
                                      2, err=Prefix("BadClock:"))
       for name, clock in (("superscript", "²"), ("5000-digits", "9" * 5000))},

    "apply-table-i": Case(("apply", FIG1_FEN, "f7f6", "--clock-mode", "frozen"),
                          0, "7N/1b4N1/5R1k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1\n"),
    "apply-table-ii": Case(("apply", FIG1_FEN, "f7c7", "--clock-mode", "frozen"),
                           0, "7N/1bR3N1/7k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1\n"),
    "apply-empty-origin": Case(("apply", FIG1_FEN, "a3b4"), 3, err=Prefix("EmptyOrigin:")),
    "apply-record-table-i": Case(
        ("apply", FIG1_FEN, "f7f6", "--output", "record"), 0,
        '{"fen_after": "7N/1b4N1/5R1k/6b1/KBp4p/5q2/6Q1/7n b - - 1 1", '
        '"segments_touched": [1, 2], "was_capture": false, "was_pawn_move": false, '
        '"special": null, "error": null}\n',
    ),
    "apply-record": Case(("apply", START_FEN, "e2e4", "--output", "record"), 0, _E2E4_RECORD),
    # move text is read by square lookups: the dashed form gives the same record
    "apply-record-dashed": Case(("apply", START_FEN, "e2-e4", "--output", "record"),
                                0, _E2E4_RECORD),
    "apply-bad-move-syntax": Case(("apply", START_FEN, "e2e4x"),
                                  2, err=Prefix("BadMoveSyntax:")),
    # a record for an error: the outcome's keys in order, each null, then the error
    "apply-record-empty-origin": Case(
        ("apply", START_FEN, "e3e4", "--output", "record"), 3,
        _ERROR_RECORD + '{"code": "EmptyOrigin", "message": "no piece on e3"}}\n',
        "EmptyOrigin: no piece on e3\n",
    ),
    "apply-record-rank-width": Case(
        ("apply", "8/8/8/8/8/8/8/9 w - - 0 1", "e2e4", "--output", "record"), 2,
        _ERROR_RECORD + '{"code": "RankWidth", "message": "segment \'9\' spans 9 squares, '
        'expected 8"}}\n',
        "RankWidth: segment '9' spans 9 squares, expected 8\n",
    ),
    # a ply that grows a clock past 9 digits fails under both validations; frozen clocks never grow
    **{f"apply-clock-grows-long-{validation}": Case(
        ("apply", _LONG_CLOCK_FEN, "e8d8", "--validation", validation), 2, err=Prefix("BadClock:"),
    ) for validation in ("lenient", "strict")},
    "apply-clock-frozen": Case(("apply", _LONG_CLOCK_FEN, "e8d8", "--clock-mode", "frozen"),
                               0, "3k4/8/8/8/8/8/8/4K3 w - - 0 999999999\n"),
    # strict refuses a castle's rook and an en-passant capture that write over
    # an own piece; lenient plays both
    "apply-strict-castle-onto-own-piece": Case(
        ("apply", "--validation", "strict", _CASTLE_ONTO_OWN_FEN, "e1g1"),
        3, err=Prefix("FriendlyCapture:"),
    ),
    "apply-castle-onto-own-piece": Case(("apply", _CASTLE_ONTO_OWN_FEN, "e1g1"),
                                        0, "4k3/8/8/8/8/8/8/5RK1 b - - 6 1\n"),
    "apply-strict-en-passant-onto-own-piece": Case(
        ("apply", "--validation", "strict", _EN_PASSANT_ONTO_OWN_FEN, "e5d6"),
        3, err=Prefix("FriendlyCapture:"),
    ),
    "apply-en-passant-onto-own-piece": Case(("apply", _EN_PASSANT_ONTO_OWN_FEN, "e5d6"),
                                            0, "4k3/8/3P4/8/8/8/8/4K3 b - - 0 1\n"),

    "play-two-plies": Case(
        ("play", START_FEN, MOVES), 0,
        Lines(2, "rnbqkbnr/pppp1ppp/8/4p3/4P3/8/PPPP1PPP/RNBQKBNR w KQkq e6 0 2"),
        moves=b"e2e4  # king pawn\n\ne7e5\n",
    ),
    "play-only-a-comment": Case(("play", START_FEN, MOVES), 0, moves=b"# only a comment\n"),
    "play-300-plies": Case(("play", START_FEN, MOVES), 0, Lines(300, f"{_START_BOARD} 300 151"),
                           moves=_KNIGHTS * 75),
    # as editors on Windows save UTF-8 text
    "play-byte-order-mark-crlf": Case(
        ("play", START_FEN, MOVES), 0, Lines(100, f"{_START_BOARD} 100 51"),
        moves=b"\xef\xbb\xbf" + _KNIGHTS.replace(b"\n", b"\r\n") * 25,
    ),
    # the plies before the failing one are written before the error
    "play-error-reports-ply": Case(
        ("play", START_FEN, MOVES), 3,
        "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1\n",
        Prefix("ply 2: EmptyOrigin"), b"e2e4\ne2e4\n",
    ),
    "play-600-plies-then-empty-origin": Case(
        ("play", START_FEN, MOVES), 3, Lines(600, f"{_START_BOARD} 600 301"),
        Prefix("ply 601: EmptyOrigin"), _KNIGHTS * 150 + b"e3e4\n",
    ),
    # the FEN is read before the first ply: the same error, with no ply, with or without a move
    **{f"play-garbage-{name}": Case(
        ("play", "garbage", MOVES), 2,
        err="SegmentCount: expected 6 space-separated fields, got 1\n", moves=moves,
    ) for name, moves in (("no-move", b"# only a comment\n"), ("e2e4", b"e2e4\n"))},
    "play-clock-grows-long": Case(("play", _LONG_CLOCK_FEN, MOVES), 2,
                                  err=Prefix("ply 1: BadClock"), moves=b"e8d8\ne1d1\n"),
    # strict fails at the ply that captures a king, with the king-count error; lenient plays it
    "play-strict-king-capture": Case(
        ("play", "--validation", "strict", _KING_CAPTURE_FEN, MOVES), 2,
        Lines(2, "8/4k3/8/8/8/8/6K1/4R3 w - - 2 2"),
        "ply 3: Validation: expected exactly one 'k', found 0\n", _KING_CAPTURE,
    ),
    "play-king-capture": Case(("play", _KING_CAPTURE_FEN, MOVES), 0,
                              Lines(3, "8/4R3/8/8/8/8/6K1/8 b - - 0 2"), moves=_KING_CAPTURE),
    **{f"play-specials-{options.ep_mode}-{options.clock_mode}-{options.validation}": Case(
        ("play", START_FEN, MOVES, "--ep-mode", options.ep_mode,
         "--clock-mode", options.clock_mode, "--validation", options.validation),
        0, functools.partial(_oracle_game, options),
        moves="".join(move + "\n" for move in _SPECIALS_GAME).encode(),
    ) for options in ALL_OPTIONS},

    "convert-forsyth-baird": Case(("convert-forsyth", BAIRD_LEGACY),
                                  0, f"{BAIRD_PLACEMENT} w - - 0 1\n"),
    "convert-forsyth-empty": Case(("convert-forsyth", _EMPTY_BOARD),
                                  0, "8/8/8/8/8/8/8/8 w - - 0 1\n"),
    "convert-forsyth-side": Case(("convert-forsyth", BAIRD_LEGACY, "--side", "b"),
                                 0, f"{BAIRD_PLACEMENT} b - - 0 1\n"),
    "convert-forsyth-castling-order": Case(("convert-forsyth", BAIRD_LEGACY, "--castling", "qK"),
                                           0, f"{BAIRD_PLACEMENT} w Kq - 0 1\n"),
    "convert-forsyth-castling": Case(("convert-forsyth", BAIRD_LEGACY, "--castling", "qk"),
                                     0, f"{BAIRD_PLACEMENT} w kq - 0 1\n"),
    # checked before the FEN is joined: "" and "K Q" would otherwise change the field count
    **{f"convert-forsyth-castling-{name}": Case(
        ("convert-forsyth", BAIRD_LEGACY, "--castling", field), 2, err=Prefix("BadCastlingField:"),
    ) for name, field in (("empty", ""), ("with-a-space", "K Q"), ("repeated", "KK"))},
    "convert-forsyth-ep": Case(("convert-forsyth", BAIRD_LEGACY, "--ep", "e3"),
                               0, f"{BAIRD_PLACEMENT} w - e3 0 1\n"),
    "convert-forsyth-bad-token": Case(("convert-forsyth", "1 X 6, 8, 8, 8, 8, 8, 8, 8"),
                                      2, err=Prefix("BadToken:")),
    **{f"convert-forsyth-run-token-{name}": Case(
        ("convert-forsyth", f"{token}, 8, 8, 8, 8, 8, 8, 8"), 2, err=Prefix("BadToken:"),
    ) for name, token in (("superscript", "²"), ("5000-digits", "9" * 5000))},
    # each field is read by the FEN rule for it: the error validate gives
    "convert-forsyth-ep-off-board": Case(("convert-forsyth", BAIRD_LEGACY, "--ep", "e9"),
                                         2, err="BadEnPassantField: bad en-passant field: 'e9'\n"),
    "convert-forsyth-ep-name": Case(("convert-forsyth", _EMPTY_BOARD, "--ep", "zz"),
                                    2, err="BadEnPassantField: bad en-passant field: 'zz'\n"),
    "convert-forsyth-ep-rank": Case(
        ("convert-forsyth", BAIRD_LEGACY, "--ep", "e4"),
        2, err="BadEnPassantField: en-passant square 'e4' not on rank 3 or 6\n",
    ),
    "convert-forsyth-empty-ep-rank": Case(("convert-forsyth", _EMPTY_BOARD, "--ep", "e4"),
                                          2, err=Prefix("BadEnPassantField:")),
    "convert-forsyth-halfmove": Case(("convert-forsyth", BAIRD_LEGACY, "--halfmove", "-5"),
                                     2, err="BadClock: bad halfmove clock: '-5'\n"),
    "convert-forsyth-empty-halfmove": Case(("convert-forsyth", _EMPTY_BOARD, "--halfmove", "-5"),
                                           2, err=Prefix("BadClock:")),
    # a clock int() reads but the FEN clock grammar refuses
    "convert-forsyth-halfmove-arabic-indic": Case(
        ("convert-forsyth", _EMPTY_BOARD, "--halfmove", "٣"), 2, err=Prefix("BadClock:"),
    ),
    "convert-forsyth-fullmove": Case(("convert-forsyth", BAIRD_LEGACY, "--fullmove", "0"),
                                     2, err="BadClock: bad fullmove number: '0'\n"),
    # a clock is read before any text is joined, so not reported as a field count
    **{f"convert-forsyth-{flag[2:]}-{name}": Case(("convert-forsyth", _EMPTY_BOARD, flag, field),
                                                  2, err=Prefix("BadClock: "))
       for flag in ("--halfmove", "--fullmove")
       for name, field in (("empty", ""), ("leading-space", " 3"), ("two-fields", "3 4"))},
    # the first bad field names the error: legacy text, castling, en-passant
    # name, en-passant rank, clocks
    "convert-forsyth-text-before-castling": Case(
        ("convert-forsyth", "1 X 6, 8, 8, 8, 8, 8, 8, 8", "--castling", "K Q"),
        2, err=Prefix("BadToken: "),
    ),
    "convert-forsyth-castling-before-ep": Case(
        ("convert-forsyth", BAIRD_LEGACY, "--castling", "K Q", "--ep", "zz"),
        2, err=Prefix("BadCastlingField: "),
    ),
    **{f"convert-forsyth-ep-{name}-before-clock": Case(
        ("convert-forsyth", BAIRD_LEGACY, "--ep", ep, "--halfmove", "-5"),
        2, err=Prefix("BadEnPassantField: "),
    ) for name, ep in (("name", "zz"), ("rank", "e4"))},
}


def _argv(case, tmp_path):
    """The case's argv, with its moves file written and named in it."""
    if case.moves is None:
        return list(case.argv)
    path = tmp_path / "game.moves"
    path.write_bytes(case.moves)
    return [str(path) if arg == MOVES else arg for arg in case.argv]


def _check(case, code, stdout, stderr):
    assert code == case.status, stderr
    _expect(stdout, case.out)
    _expect(stderr, case.err)


@pytest.mark.parametrize("case", _CASES.values(), ids=_CASES)
def test_case(capsys, tmp_path, case):
    _check(case, *run(capsys, *_argv(case, tmp_path)))


def test_cases_hold_every_exit_status_of_each_subcommand():
    statuses = {}
    for case in _CASES.values():
        statuses.setdefault(case.argv[0], set()).add(case.status)
    assert statuses == {"validate": {0, 2}, "apply": {0, 2, 3}, "play": {0, 2, 3},
                        "convert-forsyth": {0, 2}}


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args, **env):
    """Run a fresh interpreter on the source tree, without site: (status, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-S", *args], env=dict(os.environ, PYTHONPATH=_SRC, **env),
        capture_output=True, encoding="utf-8", timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


# what only a process shows, once per subcommand: the module entry point and
# its exit status, the package's warnings as errors, and play's blocks of FENs
# on an unbuffered stdout, written before the error
@pytest.mark.parametrize("case", ["validate-castling-order", "apply-record",
                                  "play-600-plies-then-empty-origin",
                                  "convert-forsyth-halfmove-arabic-indic"])
def test_case_in_a_fresh_process(tmp_path, case):
    argv = _argv(_CASES[case], tmp_path)
    _check(_CASES[case], *_python("-W", "error", "-m", "fenstring.cli", *argv,
                                  PYTHONUNBUFFERED="1"))


class TestValidate:
    def test_typed_error_that_is_no_syntax_or_move_error(self, capsys, monkeypatch):
        # BadOptionError is neither: it still exits 2 with its code, not 1
        monkeypatch.setitem(cli._HANDLERS, "validate", lambda args: ApplyOptions(ep_mode="bogus"))
        code, _, err = run(capsys, "validate", FIG1_FEN)
        assert code == 2
        assert err.startswith("BadOption:")


class TestApply:
    def test_output_revalidates(self, capsys):
        _, out, _ = run(capsys, "apply", START_FEN, "e2e4")
        code, echoed, _ = run(capsys, "validate", out.strip())
        assert code == 0
        assert echoed.strip() == out.strip()


class TestPlay:
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
    code, stdout, stderr = _python("-c", _PLAY_IMPORTS, START_FEN, str(moves),
                                   " ".join(_NOT_FOR_PLAY))
    assert code == 0, stderr
    *fens, loaded = stdout.splitlines()
    assert len(fens) == 3
    assert loaded == "loaded: "
