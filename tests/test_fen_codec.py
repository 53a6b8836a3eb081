from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fenstring import (
    ApplyOptions,
    FenRecord,
    Piece,
    Square,
    board_from_fen,
    emit_legacy_forsyth,
    expand_rank,
    parse_castling,
    parse_fen,
    piece_at,
    serialize_fen,
)
from fenstring.errors import (
    AdjacentDigitsError,
    BadCastlingFieldError,
    BadClockError,
    BadPieceLetterError,
    BadSideCharError,
    BadSquareError,
    FenstringError,
    FenSyntaxError,
    RankWidthError,
    SegmentCountError,
    ValidationError,
)
from fenstring import fen_codec
from fenstring.cli import main
from fenstring.fen_codec import SQUARES, _check_segment, expand_runs

from conftest import (
    EMPTY_FEN,
    FEN_WHITESPACE,
    FIG1_FEN,
    START_FEN,
    both_paths,
    fens,
    nearly_fens,
    reference_fen,
    reference_fen_code,
    reference_strict_message,
    segments,
    strict_breakers,
)


# an empty placement, and one with a king a side, which strict validation accepts
_EMPTY = "8/8/8/8/8/8/8/8"
_KINGS = "8/8/8/8/8/8/8/k6K"
_BOTH, _LENIENT, _STRICT = ("lenient", "strict"), ("lenient",), ("strict",)


def _text(text, after, validations=_BOTH, message=None):
    """A row of _FEN_TEXTS: FEN text; the exact canonical FEN read from it,
    or the code of the error it raises (a FEN holds spaces, a code none);
    the validations it holds under; and the error's message, if pinned."""
    return text, after, validations, message


# canonical text lenient validation accepts -> the message of the first
# strict rule it breaks: the kings, then the edge rows' pawns, rank 8's
# first, then the en-passant rank
_STRICT_BREAKERS = {
    "no-kings": (EMPTY_FEN, "expected exactly one 'K', found 0"),
    "two-white-kings": ("KK6/8/8/8/7k/8/8/8 w - - 0 1", "expected exactly one 'K', found 2"),
    "no-black-king": ("K7/8/8/8/8/8/8/8 w - - 0 1", "expected exactly one 'k', found 0"),
    "pawn-on-rank-8": ("K6P/8/8/7k/8/8/8/8 w - - 0 1", "pawn on first/last rank in segment 'K6P'"),
    "pawn-on-rank-1": ("K7/8/8/7k/8/8/8/p7 w - - 0 1", "pawn on first/last rank in segment 'p7'"),
    "ep-rank-3-white-to-move": ("K7/8/8/7k/8/8/8/8 w - e3 0 1",
                                "en-passant square e3 inconsistent with side 'w' to move"),
    "ep-rank-6-black-to-move": ("K7/8/8/7k/8/8/8/8 b - e6 0 1",
                                "en-passant square e6 inconsistent with side 'b' to move"),
    "kings-before-edge-pawns": ("KK6/8/8/8/8/8/8/P7 w - - 0 1",
                                "expected exactly one 'K', found 2"),
    "edge-pawns-before-ep-rank": ("4k3/8/8/8/8/8/8/P3K3 w - e3 0 1",
                                  "pawn on first/last rank in segment 'P3K3'"),
    "rank-8-before-rank-1": ("Pk6/8/8/8/8/8/8/pK6 w - - 0 1",
                             "pawn on first/last rank in segment 'Pk6'"),
}

_FEN_TEXTS = {
    "fig1": _text(FIG1_FEN, FIG1_FEN),
    "empty-black-to-move": _text(f"{_EMPTY} b - - 0 1", f"{_EMPTY} b - - 0 1", _LENIENT),
    "ep-rank-3-black-to-move": _text(f"{_KINGS} b - e3 0 1", f"{_KINGS} b - e3 0 1"),
    "nine-digit-clocks": _text(f"{_EMPTY} w - - 999999999 999999999",
                               f"{_EMPTY} w - - 999999999 999999999", _LENIENT),
    # text read to its canonical text
    "zero-padded-clocks": _text(f"{_KINGS} w - - 000000001 000000001", f"{_KINGS} w - - 1 1"),
    "castling-order": _text(f"{_EMPTY} w qK - 0 1", f"{_EMPTY} w Kq - 0 1", _LENIENT),
    "castling-order-all-rights": _text(f"{_KINGS} w qkQK - 0 1", f"{_KINGS} w KQkq - 0 1"),
    "repeated-spaces": _text(f"{_EMPTY}  w  -  -  0  1 ", EMPTY_FEN, _LENIENT),
    "mixed-whitespace": _text(f"{_KINGS}\xa0w\u2003-\u3000- 0 1\n", f"{_KINGS} w - - 0 1"),
    # every character str.isspace() accepts separates fields, alone or in a
    # run, and may lead and trail
    **{f"whitespace-U+{ord(space):04X}": _text(
        space + space.join(START_FEN.split(" ")).replace("w", f"{space}w{space}") + space,
        START_FEN,
    ) for space in FEN_WHITESPACE},
    # a zero-width space, a byte order mark, the Mongolian vowel separator,
    # NUL, an underscore: none is whitespace, so the text holds five fields
    **{f"lookalike-U+{ord(ch):04X}": _text(START_FEN.replace(" w ", f"{ch}w "), "SegmentCount",
                                           _BOTH, "expected 6 space-separated fields, got 5")
       for ch in "\u200b\ufeff\u180e\x00_"},
    "one-field": _text("garbage", "SegmentCount", _BOTH,
                       "expected 6 space-separated fields, got 1"),
    "three-segments": _text("9/8/8 w - - 0 1", "SegmentCount", _BOTH,
                            "expected 8 rank segments, got 3"),
    "seven-segments": _text("7N/1b3RN1/7k/6b1/KBp4p/5q2/6Q1 w - - 0 1", "SegmentCount"),
    "nine-segments": _text(f"{_EMPTY}/ w - - 0 1", "SegmentCount"),
    # a refused segment as rank 1: its first bad character or second of two
    # adjacent digits, whichever comes first, names the error, then its width
    **{f"rank-1-{segment or 'empty'}": _text(f"8/8/8/8/8/8/8/{segment} w - - 0 1", code, _BOTH,
                                             message)
       for segment, code, message in [
           ("9", "RankWidth", "segment '9' spans 9 squares, expected 8"),
           ("7", "RankWidth", "segment '7' spans 7 squares, expected 8"),
           ("", "RankWidth", "segment '' spans 0 squares, expected 8"),
           ("4R4", "RankWidth", "segment '4R4' spans 9 squares, expected 8"),
           ("PPPPPPPPP", "RankWidth", "segment 'PPPPPPPPP' spans 9 squares, expected 8"),
           ("x", "BadPieceLetter", "bad character 'x' in segment 'x'"),
           ("x7", "BadPieceLetter", "bad character 'x' in segment 'x7'"),
           ("0P7", "BadPieceLetter", "bad character '0' in segment '0P7'"),
           ("8x", "BadPieceLetter", "bad character 'x' in segment '8x'"),
           ("1b3RNx", "BadPieceLetter", "bad character 'x' in segment '1b3RNx'"),
           ("x143", "BadPieceLetter", "bad character 'x' in segment 'x143'"),
           ("44x1", "AdjacentDigits", "adjacent digits in segment '44x1'"),
           ("44", "AdjacentDigits", "adjacent digits in segment '44'"),
           # two runs wider than 8 squares: still adjacent digits, not the width
           ("45", "AdjacentDigits", "adjacent digits in segment '45'"),
           ("54", "AdjacentDigits", "adjacent digits in segment '54'"),
       ]},
    # the first refused segment from rank 8 names the error
    "rank-8-before-rank-7": _text("9/x7/8/8/8/8/8/8 w - - 0 1", "RankWidth", _BOTH,
                                  "segment '9' spans 9 squares, expected 8"),
    "rank-6-before-rank-3": _text("8/8/44/8/8/9/8/8 w - - 0 1", "AdjacentDigits", _BOTH,
                                  "adjacent digits in segment '44'"),
    # fields are checked in FEN order: of two broken fields the earlier one names the error
    "placement-before-side": _text("9/8/8/8/8/8/8/8 x - - 0 1", "RankWidth", _BOTH,
                                   "segment '9' spans 9 squares, expected 8"),
    "side": _text(f"{_EMPTY} x - - 0 1", "BadSideChar"),
    "side-before-castling": _text(f"{_EMPTY} x KK - 0 1", "BadSideChar", _BOTH,
                                  "side field must be 'w' or 'b', got 'x'"),
    "side-upper-case-before-castling": _text(f"{_KINGS} W KK - 0 1", "BadSideChar"),
    "castling-repeated-right": _text(f"{_EMPTY} w KK - 0 1", "BadCastlingField"),
    "castling-bad-letter": _text(f"{_EMPTY} w KQx - 0 1", "BadCastlingField"),
    "castling-five-rights": _text(f"{_KINGS} w KQkqK - 0 1", "BadCastlingField"),
    "castling-before-ep": _text(f"{_EMPTY} w KK e4 0 1", "BadCastlingField", _BOTH,
                                "bad castling field: 'KK'"),
    "ep-name": _text(f"{_EMPTY} w - zz 0 1", "BadEnPassantField", _BOTH,
                     "bad en-passant field: 'zz'"),
    "ep-rank": _text(f"{_EMPTY} w - e4 0 1", "BadEnPassantField"),
    "ep-before-halfmove": _text(f"{_EMPTY} w - e4 -1 1", "BadEnPassantField", _BOTH,
                                "en-passant square 'e4' not on rank 3 or 6"),
    "halfmove-before-fullmove": _text(f"{_EMPTY} w - - -1 0", "BadClock", _BOTH,
                                      "bad halfmove clock: '-1'"),
    # clocks of 1 to 9 ASCII digits, the fullmove number 1 or more
    **{f"clock-{name}": _text(f"{_KINGS} w - - {clocks}", "BadClock") for name, clocks in [
        ("halfmove-letter", "x 1"), ("halfmove-negative", "-1 1"), ("fullmove-zero", "0 0"),
        ("superscript", "² 1"), ("arabic-indic", "0 \u0663"), ("10-digits", "1000000000 1"),
        ("zero-padded-10-digits", "0000000001 1"), ("5000-digits", "9" * 5000 + " 1"),
        ("5000-digits-fullmove", "0 " + "1" * 5000),
    ]},
    # the validation value is checked after the grammar
    "validation-value": _text(FIG1_FEN, "BadOption", ("Strict", None)),
    "grammar-before-validation-value": _text("garbage", "SegmentCount", ("Strict",)),
    **{f"lenient-{name}": _text(fen, fen, _LENIENT) for name, (fen, _) in _STRICT_BREAKERS.items()},
    **{f"strict-{name}": _text(fen, "Validation", _STRICT, message)
       for name, (fen, message) in _STRICT_BREAKERS.items()},
}


@pytest.mark.parametrize("text, after, validations, message", _FEN_TEXTS.values(), ids=_FEN_TEXTS)
def test_fen_text(capsys, text, after, validations, message):
    """A row through every reader of FEN text: parse_fen under each of the
    row's validations; under "lenient" and "strict" also the reference
    grammar, the CLI's validate and, for an error, both paths, which read
    the FEN before the move; for a segment error, expand_rank too."""
    for validation in validations:
        try:
            read = serialize_fen(parse_fen(text, validation))
        except FenstringError as exc:
            read, error = exc.code, exc
        assert read == after, validation
        is_fen = " " in after
        if not is_fen:
            assert message in (None, str(error)), validation
        if validation not in _BOTH:
            continue
        assert reference_fen(text, validation) == (after if is_fen else None), validation
        assert reference_fen_code(text, validation) == (None if is_fen else after), validation
        status = main(["validate", text, "--validation", validation])
        expected = (0, after + "\n", "") if is_fen else (2, "", f"{after}: {error}\n")
        assert (status, *capsys.readouterr()) == expected, validation
        if not is_fen:
            options = ApplyOptions(validation=validation)
            assert both_paths(text, "a1a2", options) == (after, None, after), validation
    if after in ("RankWidth", "BadPieceLetter", "AdjacentDigits"):
        verdicts = (_verdict(expand_rank, segment) for segment in text.split()[0].split("/"))
        assert next(filter(None, verdicts)) == (type(error), str(error))


def test_fen_texts_hold_every_parse_error_and_a_fen_under_each_validation():
    codes = {after for _, after, _, _ in _FEN_TEXTS.values() if " " not in after}
    assert codes == {"SegmentCount", "RankWidth", "BadPieceLetter", "AdjacentDigits", "BadSideChar",
                     "BadCastlingField", "BadEnPassantField", "BadClock", "Validation", "BadOption"}
    validations = {validation for _, after, validations, _ in _FEN_TEXTS.values() if " " in after
                   for validation in validations}
    assert validations == set(_BOTH)


def _read(call, *args):
    """What ``call`` gives: its value, or its error's class, code and message."""
    try:
        return call(*args)
    except FenSyntaxError as exc:
        return type(exc), exc.code, str(exc)


# every clock text parse_fen's table holds, one past it, and text the
# table must leave to the checker: zero-padded, long, and digits or signs
# that str.isdigit() or int() read but the clock grammar refuses
_CLOCK_TEXTS = [str(n) for n in range(1001)] + [
    "00", "007", "0000000001", "999999999", "1000000000", "٣", "²", "+1", "1_0",
]


class TestTrailerTables:
    """parse_fen reads the castling field and the clocks through tables built
    at import, and calls the checkers only on a miss: every field must read as
    the checker reads it, so the tables cannot drift from the grammar."""

    @pytest.mark.parametrize("validation", ["lenient", "strict"])
    @pytest.mark.parametrize("field", ["halfmove", "fullmove"])
    def test_every_clock_text_reads_as_its_checker_reads_it(self, field, validation):
        minimum, what = (0, "halfmove clock") if field == "halfmove" else (1, "fullmove number")
        for text in _CLOCK_TEXTS:
            clocks = f"{text} 1" if field == "halfmove" else f"0 {text}"
            read = _read(parse_fen, f"4k3/8/8/8/8/8/8/4K3 w - - {clocks}", validation)
            expected = _read(fen_codec._parse_clock, text, minimum, what)
            if not isinstance(expected, tuple):
                assert getattr(read, field) == expected, text
            else:
                assert read == expected, text

    @pytest.mark.parametrize("validation", ["lenient", "strict"])
    def test_every_castling_field_reads_as_its_checker_reads_it(self, validation):
        valid = ["".join(order) for n in range(5) for rights in combinations("KQkq", n)
                 for order in permutations(rights or "-")]
        assert len(valid) == len(set(valid)) == 65
        bad = ["KK", "KQkqK", "Kx", "--", "-K", "K-", "kqQKk", "KQkq-", "x", "KQQ", "ｋ", "Ｋ",
               "Kéq", "KQkqKQkq"]
        for field in valid + bad:
            read = _read(parse_fen, f"4k3/8/8/8/8/8/8/4K3 w {field} - 0 1", validation)
            expected = _read(parse_castling, field)
            if not isinstance(expected, tuple):
                assert read.castling == expected, field
            else:
                assert read == expected, field


class TestSerialize:
    def test_field_formatting(self):
        record = FenRecord(
            ranks=("8",) * 8,
            side="w",
            castling="KQkq",
            en_passant="e6",
            halfmove=3,
            fullmove=11,
        )
        assert serialize_fen(record) == "8/8/8/8/8/8/8/8 w KQkq e6 3 11"

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"ranks": ("zz",) * 8}, BadPieceLetterError),
            ({"ranks": ("8",) * 7}, SegmentCountError),
            ({"side": "x"}, BadSideCharError),
            ({"halfmove": -5}, BadClockError),
            # a Square, not a square name, is written as its text, which parse_fen names
            ({"en_passant": SQUARES["e3"]}, SegmentCountError),
            # a side that is not text is written as its text, which parse_fen names
            ({"side": 5}, BadSideCharError),
            # ranks that cannot be joined into a placement are no FEN text at all
            ({"ranks": None}, FenSyntaxError),
            ({"ranks": (8,) * 8}, FenSyntaxError),
        ],
        ids=["segment", "segment-count", "side", "halfmove", "en-passant-square", "side-int",
             "ranks-None", "ranks-int"],
    )
    def test_record_that_is_no_fen(self, fields, error):
        # the text written must parse: a record it would not raises as
        # parse_fen does for that text, and no text is returned
        record = FenRecord(("8",) * 8, "w", "-", "-", 0, 1)._replace(**fields)
        with pytest.raises(error) as info:
            serialize_fen(record)
        assert type(info.value) is error

    @pytest.mark.parametrize(
        "fields, fen",
        [
            ({"castling": "qkQK"}, START_FEN),
            ({"side": "w "}, START_FEN),
            ({"side": " b", "castling": "kK", "halfmove": 7},
             START_FEN.replace(" w KQkq - 0 ", " b Kk - 7 ")),
        ],
        ids=["castling-order", "side-space", "several"],
    )
    def test_fields_that_parse_are_written_canonically(self, fields, fen):
        # fields parse_fen accepts in a form that is not canonical: the
        # text written is the canonical text of the record parsed
        record = parse_fen(START_FEN)._replace(**fields)
        assert serialize_fen(record) == fen


class TestPieceAt:
    def test_fig1_f7_is_white_rook(self):
        record = parse_fen(FIG1_FEN)
        assert piece_at(record, Square.from_name("f7")) == Piece("R", "w")

    def test_empty_board(self):
        record = parse_fen(EMPTY_FEN)
        for file in range(8):
            for rank in range(1, 9):
                assert piece_at(record, Square(file, rank)) is None

    def test_fig1_a1_empty(self):
        assert piece_at(parse_fen(FIG1_FEN), Square.from_name("a1")) is None

    def test_fig1_kings(self):
        record = parse_fen(FIG1_FEN)
        assert piece_at(record, Square.from_name("a4")) == Piece("K", "w")
        assert piece_at(record, Square.from_name("h6")) == Piece("K", "b")

    @pytest.mark.parametrize("ranks", ["88888888", "RRRRRRRR"])
    def test_placement_given_as_text_is_refused(self, ranks):
        record = FenRecord(ranks, "w", "-", "-", 0, 1)
        with pytest.raises(FenSyntaxError) as info:
            piece_at(record, SQUARES["e2"])
        assert type(info.value) is FenSyntaxError
        assert str(info.value) == "a placement must be a sequence of 8 rank segments, got str"


class TestStrict:
    @settings(max_examples=300)
    @given(strict_breakers())
    @example("Pk6/8/8/8/8/8/8/pK6 w - e3 0 1")
    @example("KK6/8/8/8/8/8/8/P7 w - e3 0 1")
    def test_strict_names_the_first_broken_rule_of_the_reference(self, fen):
        """Several strict rules broken at once: parse_fen names the first
        one that the reference in conftest names, word for word, and both
        paths raise its code."""
        placement, side, _, ep, _, _ = fen.split()
        message = reference_strict_message(placement, side, ep)
        if message is None:
            parse_fen(fen, "strict")
            return
        with pytest.raises(ValidationError) as info:
            parse_fen(fen, "strict")
        assert str(info.value) == message
        assert both_paths(fen, "a1a2", ApplyOptions(validation="strict")) == ("Validation", None, "Validation")


class TestPiece:
    def test_from_letter_shares_one_piece_per_letter(self):
        for letter in "KQRBNPkqrbnp":
            piece = Piece.from_letter(letter)
            assert piece.letter == letter
            assert Piece.from_letter(letter) is piece

    @pytest.mark.parametrize("letter", ["", "KQ", "x", "1", "0"])
    def test_bad_letters(self, letter):
        with pytest.raises(BadPieceLetterError):
            Piece.from_letter(letter)


class TestCastlingRights:
    @pytest.mark.parametrize(
        "letters",
        ["", "K", "Q", "k", "q", "KQ", "Kk", "Kq", "Qk", "Qq", "kq", "KQk", "KQq", "Kkq", "Qkq", "KQkq"],
    )
    def test_every_order_parses(self, letters):
        canonical = letters or "-"
        for order in permutations(canonical):
            field = "".join(order)
            assert parse_castling(field) == canonical
            fen = f"8/8/8/8/8/8/8/8 w {field} - 0 1"
            assert serialize_fen(parse_fen(fen)) == f"8/8/8/8/8/8/8/8 w {canonical} - 0 1"

    @pytest.mark.parametrize("field", ["KK", "", "KQkqK", "Kx", "k ", "--", "-K", "kqQKk"])
    def test_bad_fields(self, field):
        with pytest.raises(BadCastlingFieldError):
            parse_castling(field)


class TestSquare:
    def test_names(self):
        assert Square.from_name("e4") == Square(4, 4)
        assert Square(0, 8).name == "a8"

    @pytest.mark.parametrize("name", ["e9", "i4", "e", "e44", "E4"])
    def test_bad_names(self, name):
        with pytest.raises(BadSquareError):
            Square.from_name(name)


@given(fens())
def test_round_trip_text(fen):
    assert serialize_fen(parse_fen(fen)) == fen


@given(fens())
def test_round_trip_record(fen):
    record = parse_fen(fen)
    assert parse_fen(serialize_fen(record)) == record


@given(fens())
def test_piece_at_matches_full_expansion(fen):
    # the oracle's mailbox reads the placement with its own run parser
    record = parse_fen(fen)
    cells = board_from_fen(fen).cells
    for rank in range(1, 9):
        for file in range(8):
            square = Square(file, rank)
            assert piece_at(record, square) == cells[(8 - rank) * 8 + file]


# placement text the bulk check must judge exactly as the per-segment checker
_PLACEMENT_CHARS = "KQRBNPkqrbnp0123456789x?²é\ud800"


@st.composite
def _near_valid_rows(draw):
    """A valid compact row with one character inserted."""
    row = draw(segments)
    at = draw(st.integers(0, len(row)))
    return row[:at] + draw(st.sampled_from(_PLACEMENT_CHARS)) + row[at:]


_rows = st.one_of(segments, _near_valid_rows(), st.text(alphabet=_PLACEMENT_CHARS, max_size=10))


def _verdict(check, text):
    """(class, message) of the error check(text) raises, or None."""
    try:
        check(text)
    except FenSyntaxError as exc:
        return type(exc), str(exc)
    return None


def _check_segments(placement):
    for segment in placement.split("/"):
        _check_segment(segment)


@settings(max_examples=500)
@given(st.lists(_rows, min_size=8, max_size=8).map("/".join))
@example("/".join(["8"] * 7 + [""]))  # a trailing '/'
@example("/".join(["8"] * 7 + ["9"]))
@example("/".join(["8"] * 7 + ["0P7"]))
@example("/".join(["8"] * 7 + ["44"]))
@example("/".join(["8"] * 7 + ["17"]))
@example("/".join(["8"] * 7 + ["²7"]))
@example("/".join(["8"] * 7 + ["7"]))
@example("/".join(["8"] * 7 + ["PPPPPPPPP"]))
@example("/".join(["8"] * 7 + ["1b3RN2"]))
@example("/".join(["44"] + ["8"] * 6 + ["9"]))
@example("/".join(["8"] * 2 + ["44"] + ["8"] * 2 + ["x7"] + ["8"] * 2))
@example("/".join(["8"] * 2 + ["x7"] + ["8"] * 2 + ["44"] + ["8"] * 2))
@example("/".join(["8"] * 6 + ["7", "é7"]))
@example("/".join(["8"] * 8))
def test_bulk_placement_check_matches_segment_loop(placement):
    expected = _verdict(_check_segments, placement)
    assert _verdict(lambda p: parse_fen(p + " w - - 0 1"), placement) == expected
    # expand_rank, which accepts by the shape table, judges each segment the same way
    for segment in placement.split("/"):
        assert _verdict(expand_rank, segment) == _verdict(_check_segment, segment)


@settings(max_examples=600)
@given(st.one_of(st.text(max_size=80), nearly_fens(), strict_breakers()))
def test_parse_fen_reads_as_the_reference_grammar_and_its_first_failed_check(text):
    """parse_fen against both references in conftest, under both
    validations: it accepts exactly the text reference_fen accepts and
    serialize_fen writes the reference's canonical text; otherwise it raises
    the typed syntax error of the first check reference_fen_code names. The
    two references agree on what they accept."""
    for validation in _BOTH:
        expected, code = reference_fen(text, validation), reference_fen_code(text, validation)
        assert (expected is None) == (code is not None), (text, validation)
        try:
            read = serialize_fen(parse_fen(text, validation))
        except FenSyntaxError as exc:
            read = exc.code
        assert read == (expected or code), (text, validation)


@given(st.text())
@example("0123456789/x²")
def test_expand_runs_matches_digit_reference(text):
    expected = "".join("1" * int(c) if c in "2345678" else c for c in text)
    assert expand_runs(text) == expected


def test_only_a_segment_the_table_rejects_reaches_the_segment_checker(monkeypatch, fuzz_corpus):
    def checker_must_not_run(segment):
        raise AssertionError(f"the segment checker ran on {segment!r}")

    monkeypatch.setattr(fen_codec, "_check_segment", checker_must_not_run)
    for fen, move, _ in fuzz_corpus:
        record = parse_fen(fen)
        for segment in record.ranks:
            expand_rank(segment)
        piece_at(record, SQUARES[move[:2]])
        emit_legacy_forsyth(record.ranks)
    monkeypatch.undo()

    # a segment the table rejects still gets the checker's class and message
    for segment, error, message in [
        ("9", RankWidthError, "segment '9' spans 9 squares, expected 8"),
        ("7", RankWidthError, "segment '7' spans 7 squares, expected 8"),
        ("44", AdjacentDigitsError, "adjacent digits in segment '44'"),
        ("54", AdjacentDigitsError, "adjacent digits in segment '54'"),
        ("x7", BadPieceLetterError, "bad character 'x' in segment 'x7'"),
        ("0P7", BadPieceLetterError, "bad character '0' in segment '0P7'"),
        # the shape table reads each non-ASCII character as '?', and its own
        # mark 'x' as '?' too: a lone surrogate, a letter, a fullwidth digit,
        # and a segment that would pass if the non-ASCII letter were dropped
        ("\ud8007", BadPieceLetterError, "bad character '\\ud800' in segment '\\ud8007'"),
        ("7\ud800", BadPieceLetterError, "bad character '\\ud800' in segment '7\\ud800'"),
        ("é7", BadPieceLetterError, "bad character 'é' in segment 'é7'"),
        ("８", BadPieceLetterError, "bad character '８' in segment '８'"),
        ("?7", BadPieceLetterError, "bad character '?' in segment '?7'"),
        ("ppppépppp", BadPieceLetterError, "bad character 'é' in segment 'ppppépppp'"),
        # a non-ASCII digit: not read as the run "8"
        ("٨", BadPieceLetterError, "bad character '٨' in segment '٨'"),
    ]:
        for call in (expand_rank, lambda s: parse_fen(f"{s}/8/8/8/8/8/8/8 w - - 0 1"),
                     lambda s: emit_legacy_forsyth((s,) + ("8",) * 7)):
            with pytest.raises(error) as info:
                call(segment)
            assert type(info.value) is error and str(info.value) == message


def test_the_segment_checker_runs_once_on_the_first_segment_the_table_refuses(monkeypatch):
    """Every reader of segments names a refused one through the same gate:
    the checker runs once, on the first segment the table refuses."""
    calls = []

    def recording_checker(segment):
        calls.append(segment)
        _check_segment(segment)

    monkeypatch.setattr(fen_codec, "_check_segment", recording_checker)
    readers = {
        "parse_fen": lambda ranks: parse_fen("/".join(ranks) + " w - - 0 1"),
        "piece_at": lambda ranks: piece_at(FenRecord(tuple(ranks), "w", "-", "-", 0, 1),
                                           SQUARES["e2"]),
        "emit_legacy_forsyth": emit_legacy_forsyth,
    }
    good = START_FEN.split()[0].split("/")
    bad_segments = [
        ("9", RankWidthError, "segment '9' spans 9 squares, expected 8"),
        ("44", AdjacentDigitsError, "adjacent digits in segment '44'"),
        ("x7", BadPieceLetterError, "bad character 'x' in segment 'x7'"),
    ]
    for bad, error, message in bad_segments:
        calls.clear()
        with pytest.raises(error) as info:
            expand_rank(bad)
        assert calls == [bad]
        assert type(info.value) is error and str(info.value) == message
        for index in range(8):
            for name, read in readers.items():
                calls.clear()
                with pytest.raises(error) as info:
                    read(good[:index] + [bad] + good[index + 1:])
                assert calls == [bad], (name, index)
                assert type(info.value) is error and str(info.value) == message

    # two refused segments of different kinds: only the first is checked
    for placement, first, error in [("8/8/44/8/8/x7/8/8", "44", AdjacentDigitsError),
                                    ("8/8/x7/8/8/44/8/8", "x7", BadPieceLetterError)]:
        for name, read in readers.items():
            calls.clear()
            with pytest.raises(error):
                read(placement.split("/"))
            assert calls == [first], name
