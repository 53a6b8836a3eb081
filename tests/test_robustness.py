"""Any input, from any entry point, gives a value or a typed FenstringError."""

import contextlib
import inspect
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fenstring
from fenstring import (
    START_FEN,
    ApplyOptions,
    BoardArray,
    FenRecord,
    Move,
    Square,
    apply_move,
    contract_rank,
    differential_fuzz,
    emit_legacy_forsyth,
    expand_rank,
    fen_from_board,
    fuzz_pairs,
    parse_castling,
    parse_fen,
    parse_legacy_forsyth,
    parse_move,
    piece_at,
    play_sequence,
    random_pseudo_move,
    segment_index,
    serialize_fen,
)
from fenstring.cli import main
from fenstring.errors import (
    BadCastlingFieldError,
    BadExpandedRankError,
    BadMoveSyntaxError,
    BadOptionError,
    BadSegmentError,
    BadSquareError,
    FenstringError,
    FenSyntaxError,
    OutOfRangeError,
    RankWidthError,
    SegmentCountError,
)
from fenstring.fen_codec import SQUARES

from conftest import BAIRD_LEGACY, fens, legacy_ranks, segments

# each entry point taking text, a square, a coordinate, a record, options
# or an iterable, with the error it raises for a wrongly typed argument
_ENTRY_POINTS = {
    "parse_fen": (parse_fen, FenSyntaxError),
    "apply_move": (lambda value: apply_move(value, "e2e4"), FenSyntaxError),
    "expand_rank": (expand_rank, BadSegmentError),
    "parse_legacy_forsyth": (parse_legacy_forsyth, FenSyntaxError),
    "Move-origin": (lambda value: Move(value, SQUARES["e4"]), BadSquareError),
    "Move-destination": (lambda value: Move(SQUARES["e2"], value), BadSquareError),
    "Square-file": (lambda value: Square(value, 1), BadSquareError),
    "Square-rank": (lambda value: Square(0, value), BadSquareError),
    "contract_rank": (contract_rank, BadExpandedRankError),
    "parse_castling": (parse_castling, BadCastlingFieldError),
    "Square.from_name": (Square.from_name, BadSquareError),
    "emit_legacy_forsyth": (emit_legacy_forsyth, FenSyntaxError),
    "play_sequence-moves": (lambda value: play_sequence(START_FEN, value), BadMoveSyntaxError),
    "piece_at": (lambda value: piece_at(value, SQUARES["e2"]), FenSyntaxError),
    "apply_move-options": (lambda value: apply_move(START_FEN, "e2e4", value), BadOptionError),
    "serialize_fen": (serialize_fen, FenSyntaxError),
    "fen_from_board": (fen_from_board, FenSyntaxError),
}
_VALUES = {"None": None, "bytes": START_FEN.encode(), "bytearray": bytearray(b"e2e4"),
           "memoryview": memoryview(b"88888888"), "int": 42, "list": ["8"] * 8}
# these take any iterable but text or bytes-like data, a list too; each
# item is checked where it is read, as a segment or as a move
_ITERABLE_ARGUMENTS = {"emit_legacy_forsyth": ("list",), "play_sequence-moves": ("list",)}


@pytest.mark.parametrize("entry,value", [
    pytest.param(entry, value, id=f"{entry}-{name}")
    for entry in _ENTRY_POINTS
    for name, value in _VALUES.items()
    if name not in _ITERABLE_ARGUMENTS.get(entry, ())
] + [pytest.param("play_sequence-moves", "e2e4", id="play_sequence-moves-str")])
def test_wrongly_typed_argument_raises_typed_error(entry, value):
    call, error = _ENTRY_POINTS[entry]
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    # refused as a whole, before any ply
    assert not hasattr(info.value, "ply")
    if entry.startswith("Square-") and isinstance(value, int):
        # an integer is a coordinate's type; 42 is out of its range
        assert "out of range" in str(info.value)
    else:
        assert type(value).__name__ in str(info.value)


@pytest.mark.parametrize("value", [None, b"a", "3", ["a"], 1.5j, 1.5, True], ids=repr)
def test_coordinate_of_the_wrong_type_is_out_of_range(value):
    with pytest.raises(OutOfRangeError):
        segment_index(value)


_EMPTY = parse_fen("8/8/8/8/8/8/8/8 w - - 0 1")

# wrongly typed arguments that a helper reads only deep in its work (fuzz
# iterations and seeds, a record's ranks), and wrong values of the right
# type that the checked helpers refuse, each with the error it raises
_WRONG_TYPE_CALLS = {
    # a bool is an int, but True is no coordinate: not b1
    "Square-file-bool": (lambda: Square(True, 1), BadSquareError),
    "Square-rank-bool": (lambda: Square(0, True), BadSquareError),
    "differential_fuzz-iterations": (lambda: differential_fuzz(None, 0), BadOptionError),
    "fuzz_pairs-iterations": (lambda: list(fuzz_pairs(None, 0)), BadOptionError),
    # a negative count would check nothing and report a pass; True is no count
    "differential_fuzz-iterations-negative": (lambda: differential_fuzz(-1, 0), BadOptionError),
    "fuzz_pairs-iterations-negative": (lambda: list(fuzz_pairs(-1, 0)), BadOptionError),
    "differential_fuzz-iterations-bool": (lambda: differential_fuzz(True, 0), BadOptionError),
    "fuzz_pairs-iterations-bool": (lambda: list(fuzz_pairs(True, 0)), BadOptionError),
    # True would run seed 1's chain
    "differential_fuzz-seed-bool": (lambda: differential_fuzz(10, True), BadOptionError),
    "fuzz_pairs-seed-bool": (lambda: list(fuzz_pairs(10, True)), BadOptionError),
    "random_pseudo_move-seed-bool": (lambda: random_pseudo_move(START_FEN, True), BadOptionError),
    "differential_fuzz-seed": (lambda: differential_fuzz(10, [1]), BadOptionError),
    "random_pseudo_move-seed": (lambda: random_pseudo_move(START_FEN, [1]), BadOptionError),
    "piece_at-ranks": (lambda: piece_at(FenRecord(None, "w", "-", None, 0, 1), SQUARES["e2"]),
                       FenSyntaxError),
    # 8 valid segments, but in no order: a set cannot be indexed by rank
    "piece_at-ranks-a-set": (
        lambda: piece_at(_EMPTY._replace(ranks={"8", "p7", "1p6", "2p5", "3p4", "4p3", "5p2",
                                                "6p1"}), SQUARES["e2"]),
        FenSyntaxError),
    # text of 8 characters is no placement, though each character may be a segment
    "piece_at-ranks-text": (lambda: piece_at(_EMPTY._replace(ranks="88888888"), SQUARES["e2"]),
                            FenSyntaxError),
    # a placement that is not 8 segments of the segment grammar, refused in every
    # mode, whatever the square or move, with the error parse_fen gives
    "piece_at-three-segments": (lambda: piece_at(_EMPTY._replace(ranks=("8",) * 3), SQUARES["a8"]),
                                SegmentCountError),
    "piece_at-bad-segment": (lambda: piece_at(_EMPTY._replace(ranks=("8",) * 7 + ("9",)),
                                              SQUARES["a8"]), RankWidthError),
    "piece_at-segment-not-text": (lambda: piece_at(_EMPTY._replace(ranks=("8",) * 7 + (8,)),
                                                   SQUARES["a8"]), BadSegmentError),
    # random.Random(None) would seed from the OS: a run nobody can repeat
    "random_pseudo_move-seed-None": (lambda: random_pseudo_move(START_FEN, None), BadOptionError),
    "fuzz_pairs-seed-None": (lambda: list(fuzz_pairs(10, None)), BadOptionError),
    "differential_fuzz-seed-None": (lambda: differential_fuzz(10, None), BadOptionError),
    # a NaN seeds from its hash, which follows the object's identity
    "random_pseudo_move-seed-NaN": (lambda: random_pseudo_move(START_FEN, float("nan")),
                                    BadOptionError),
    "fuzz_pairs-seed-NaN": (lambda: list(fuzz_pairs(10, float("nan"))), BadOptionError),
    "differential_fuzz-seed-NaN": (lambda: differential_fuzz(10, float("nan")), BadOptionError),
}


@pytest.mark.parametrize("call,error", _WRONG_TYPE_CALLS.values(), ids=_WRONG_TYPE_CALLS)
def test_wrongly_typed_argument_read_late_raises_typed_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


# valid arguments for each positional parameter of every callable export
_BASE_ARGUMENTS = {
    "ApplyOptions": ("adjacent-only", "frozen", "strict"),
    "ApplyOutcome": (START_FEN, frozenset((6,)), False, True, None),
    "BoardArray": ([None] * 64, "w", "-", "-", 0, 1),
    "FenRecord": (("8",) * 8, "w", "-", "-", 0, 1),
    "FenSyntaxError": ("message",),
    "FenstringError": ("message",),
    "FuzzReport": (0, 3, 3, 0, None),
    "Move": (SQUARES["e7"], SQUARES["e8"], "Q"),
    "MoveError": ("message",),
    "Piece": ("P", "w"),
    "Square": (4, 2),
    "apply_move": (START_FEN, "e2e4", ApplyOptions()),
    "board_from_fen": (START_FEN,),
    "contract_rank": ("11111R1k",),
    "differential_fuzz": (3, 0, ApplyOptions()),
    "emit_legacy_forsyth": (("8",) * 8,),
    "expand_rank": ("1b3RN1",),
    "fen_from_board": (BoardArray([None] * 64, "w", "-", "-", 0, 1),),
    "fuzz_pairs": (3, 0, ApplyOptions()),
    "oracle_apply": (START_FEN, "e2e4", ApplyOptions()),
    "parse_castling": ("KQkq",),
    "parse_fen": (START_FEN, "strict"),
    "parse_legacy_forsyth": (BAIRD_LEGACY,),
    "parse_move": ("e7e8q",),
    "piece_at": (parse_fen(START_FEN), SQUARES["e2"]),
    "play_sequence": (START_FEN, ["e2e4", "e7e5"], ApplyOptions()),
    "random_pseudo_move": (START_FEN, 0),
    "segment_index": (8,),
    "serialize_fen": (parse_fen(START_FEN),),
}


def _call(name, args):
    result = getattr(fenstring, name)(*args)
    return list(result) if inspect.isgenerator(result) else result


def test_base_arguments_cover_every_callable_export():
    callables = {name for name in fenstring.__all__ if callable(getattr(fenstring, name))}
    assert set(_BASE_ARGUMENTS) == callables
    for name, args in _BASE_ARGUMENTS.items():
        _call(name, args)
        try:
            parameters = inspect.signature(getattr(fenstring, name)).parameters.values()
        except ValueError:
            continue  # an exception class takes any arguments
        positional = [p for p in parameters
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        assert len(args) == len(positional), name


@pytest.mark.parametrize("name,position", [
    pytest.param(name, position, id=f"{name}-{position}")
    for name, args in _BASE_ARGUMENTS.items()
    for position in range(len(args))
])
def test_every_export_returns_or_raises_typed_errors_for_any_argument(name, position):
    for value in _VALUES.values():
        args = list(_BASE_ARGUMENTS[name])
        args[position] = value
        try:
            _call(name, args)
        except FenstringError:
            pass


# FEN-ish characters: every grammar's letters and separators, ASCII and
# Unicode digits, NUL, newline and other whitespace
_ALPHABET = "KQRBNPkqrbnpt0123456789²٨abcdefghw/-,. \t\n\x00"

_FENS = st.one_of(st.just(START_FEN), fens())
_SQUARE_NAMES = st.sampled_from(sorted(SQUARES))
_MOVES = st.builds("{}{}{}".format, _SQUARE_NAMES, _SQUARE_NAMES, st.sampled_from(("", "q", "N")))
_LEGACY = st.lists(legacy_ranks(), min_size=8, max_size=8).map(", ".join)
_CASTLING = st.sampled_from(("-", "KQkq", "kq", "Qk"))
_ANY = st.one_of(st.just(""), _FENS, _MOVES, _LEGACY, _CASTLING, segments,
                 segments.map(expand_rank))


@st.composite
def fenish_text(draw, wellformed=_ANY):
    """A well-formed input, as it is or with a span of it replaced by
    arbitrary FEN-ish text; from "" that is arbitrary text alone."""
    text = draw(wellformed)
    if draw(st.booleans()):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 4)))
        text = text[:start] + draw(st.text(_ALPHABET, max_size=12)) + text[end:]
    return text


_PARSERS = [
    parse_fen,
    lambda text: parse_fen(text, "strict"),
    parse_move,
    parse_castling,
    expand_rank,
    contract_rank,
    parse_legacy_forsyth,
]


@settings(max_examples=150, deadline=None)
@given(fenish_text())
@example("8/8/8/8/8/8/8/8 w - - ٨ 1")
@example("0" * 9 + "8, 8, 8, 8, 8, 8, 8, 8")
def test_parsers_return_or_raise_typed_errors(text):
    for parse in _PARSERS:
        try:
            parse(text)
        except FenstringError:
            pass


def _positional(text):
    # argparse reads an argument that starts with '-' as an option (and
    # "-h" as a request for help); a leading space keeps it positional and
    # is ignored by the FEN and legacy parsers
    return " " + text if text.startswith("-") else text


def _option(name, values):
    values = st.sampled_from(values)
    return st.one_of(values, fenish_text(values)).map(lambda value: f"--{name}={value}")


_APPLY_OPTIONS = st.lists(
    st.one_of(
        _option("ep-mode", ("always", "adjacent-only")),
        _option("clock-mode", ("standard", "frozen")),
        _option("validation", ("lenient", "strict")),
    ),
    max_size=2,
)
_FORSYTH_OPTIONS = st.lists(
    st.one_of(
        _option("side", ("w", "b")),
        _option("castling", ("-", "KQkq", "kq")),
        _option("ep", ("-", "e3", "d6")),
        _option("halfmove", ("0", "99")),
        _option("fullmove", ("1", "40")),
    ),
    max_size=3,
)


@st.composite
def cli_calls(draw):
    """(argv, moves file text or None) for one CLI command; "MOVES" in argv
    stands for the moves file."""
    command = draw(st.sampled_from(("validate", "apply", "convert-forsyth", "play")))
    if command == "convert-forsyth":
        return ["convert-forsyth", _positional(draw(fenish_text(_LEGACY)))] + draw(
            _FORSYTH_OPTIONS), None
    fen = _positional(draw(fenish_text(_FENS)))
    if command == "validate":
        return ["validate", fen] + draw(st.lists(
            _option("validation", ("lenient", "strict")), max_size=1)), None
    if command == "apply":
        move = _positional(draw(fenish_text(_MOVES)))
        output = draw(st.sampled_from(("plain", "record")))
        return ["apply", fen, move, f"--output={output}"] + draw(_APPLY_OPTIONS), None
    moves = "\n".join(draw(st.lists(fenish_text(_MOVES), max_size=4)))
    return ["play", fen, "MOVES"] + draw(_APPLY_OPTIONS), moves


@pytest.fixture(scope="module")
def moves_path(tmp_path_factory):
    return tmp_path_factory.mktemp("play") / "moves.txt"


@settings(max_examples=100, deadline=None)
@given(cli_calls())
@example((["apply", START_FEN, "e2e4", "--output=record"], None))
@example((["play", START_FEN, "MOVES"], "e2e4\ne7e5 # reply\n"))
@example((["convert-forsyth", BAIRD_LEGACY, "--halfmove=" + "9" * 12], None))
def test_cli_exits_with_a_status_for_input_errors(moves_path, call):
    argv, moves = call
    if moves is not None:
        moves_path.write_text(moves, encoding="utf-8")
        argv = [str(moves_path) if arg == "MOVES" else arg for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            status = main(argv)
        except SystemExit as exc:
            # argparse rejects the arguments themselves with status 2
            status = exc.code
            assert status == 2, out.getvalue()
    assert status in (0, 2, 3), out.getvalue()
