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
    BadEnPassantFieldError,
    BadPieceLetterError,
    BadSideCharError,
    BadSquareError,
    FenSyntaxError,
    RankWidthError,
    SegmentCountError,
    ValidationError,
)
from fenstring import fen_codec
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


class TestParse:
    def test_fig1(self):
        record = parse_fen(FIG1_FEN)
        assert record.ranks == ("7N", "1b3RN1", "7k", "6b1", "KBp4p", "5q2", "6Q1", "7n")
        assert record.side == "w"
        assert record.castling == "-"
        assert record.en_passant == "-"
        assert record.halfmove == 0
        assert record.fullmove == 1

    def test_empty_board(self):
        record = parse_fen(EMPTY_FEN)
        for file in range(8):
            for rank in range(1, 9):
                assert piece_at(record, Square(file, rank)) is None

    def test_seven_segments(self):
        with pytest.raises(SegmentCountError):
            parse_fen("7N/1b3RN1/7k/6b1/KBp4p/5q2/6Q1 w - - 0 1")

    def test_not_six_fields(self):
        with pytest.raises(SegmentCountError):
            parse_fen("garbage")

    def test_repeated_spaces_tolerated(self):
        assert serialize_fen(parse_fen("8/8/8/8/8/8/8/8  w  -  -  0  1 ")) == EMPTY_FEN

    @pytest.mark.parametrize("space", FEN_WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_fields_apart_by_any_whitespace(self, space):
        # every character str.isspace() accepts separates fields, alone or in
        # a run, and may lead and trail; the text written is canonical
        fen = space.join(START_FEN.split(" ")).replace("w", f"{space}w{space}")
        assert serialize_fen(parse_fen(f"{space}{fen}{space}")) == START_FEN

    @pytest.mark.parametrize("lookalike", ["\u200b", "\ufeff", "\u180e", "\x00", "_"],
                             ids=lambda ch: f"U+{ord(ch):04X}")
    def test_no_other_character_separates_fields(self, lookalike):
        # a zero-width space, a byte order mark, the Mongolian vowel
        # separator, NUL, an underscore: none is whitespace, so the text
        # holds five fields
        with pytest.raises(SegmentCountError) as info:
            parse_fen(START_FEN.replace(" w ", f"{lookalike}w "))
        assert str(info.value) == "expected 6 space-separated fields, got 5"

    def test_castling_any_input_order(self):
        record = parse_fen("8/8/8/8/8/8/8/8 w qK - 0 1")
        assert record.castling == "Kq"

    @pytest.mark.parametrize(
        "fen,error",
        [
            ("8/8/8/8/8/8/8/8/ w - - 0 1", SegmentCountError),
            ("8/8/8/8/8/8/8/9 w - - 0 1", RankWidthError),
            ("8/8/8/8/8/8/8/7 w - - 0 1", RankWidthError),
            ("8/8/8/8/8/8/8/PPPPPPPPP w - - 0 1", RankWidthError),
            ("8/8/8/8/8/8/8/x7 w - - 0 1", BadPieceLetterError),
            ("8/8/8/8/8/8/8/0P7 w - - 0 1", BadPieceLetterError),
            ("8/8/8/8/8/8/8/44 w - - 0 1", AdjacentDigitsError),
            # two runs wider than 8 squares: still adjacent digits, not the width
            ("8/8/8/8/8/8/8/54 w - - 0 1", AdjacentDigitsError),
            ("8/8/8/8/8/8/8/8 x - - 0 1", BadSideCharError),
            ("8/8/8/8/8/8/8/8 w KK - 0 1", BadCastlingFieldError),
            ("8/8/8/8/8/8/8/8 w KQx - 0 1", BadCastlingFieldError),
            ("8/8/8/8/8/8/8/8 w - e4 0 1", BadEnPassantFieldError),
            ("8/8/8/8/8/8/8/8 w - zz 0 1", BadEnPassantFieldError),
            ("8/8/8/8/8/8/8/8 w - - x 1", BadClockError),
            ("8/8/8/8/8/8/8/8 w - - -1 1", BadClockError),
            ("8/8/8/8/8/8/8/8 w - - 0 0", BadClockError),
        ],
    )
    def test_rejections(self, fen, error):
        with pytest.raises(error):
            parse_fen(fen)

    @pytest.mark.parametrize("validation", ["lenient", "strict"])
    @pytest.mark.parametrize("fen, code, message", [
        ("8/8/8/8/8/8/8/8 x KK - 0 1", "BadSideChar", "side field must be 'w' or 'b', got 'x'"),
        ("8/8/8/8/8/8/8/8 w KK e4 0 1", "BadCastlingField", "bad castling field: 'KK'"),
        ("8/8/8/8/8/8/8/8 w - e4 -1 1", "BadEnPassantField",
         "en-passant square 'e4' not on rank 3 or 6"),
        ("9/8/8/8/8/8/8/8 x - - 0 1", "RankWidth", "segment '9' spans 9 squares, expected 8"),
        ("8/8/8/8/8/8/8/8 w - - -1 0", "BadClock", "bad halfmove clock: '-1'"),
    ], ids=["side-castling", "castling-ep", "ep-halfmove", "placement-side", "halfmove-fullmove"])
    def test_two_broken_fields_raise_the_earlier_field_s_error(self, fen, code, message,
                                                                validation):
        # fields are checked in FEN order, and the grammar before strict rules
        with pytest.raises(FenSyntaxError) as info:
            parse_fen(fen, validation)
        assert (info.value.code, str(info.value)) == (code, message)

    @pytest.mark.parametrize(
        "halfmove,fullmove",
        [("²", "1"), ("0", "٣"), ("9" * 5000, "1"), ("0", "1" * 5000), ("1000000000", "1")],
        ids=["superscript", "arabic-indic", "5000-digits", "5000-digits-fullmove", "10-digits"],
    )
    def test_clock_not_short_ascii_digits(self, halfmove, fullmove):
        with pytest.raises(BadClockError):
            parse_fen(f"8/8/8/8/8/8/8/8 w - - {halfmove} {fullmove}")

    def test_nine_digit_clocks(self):
        fen = "8/8/8/8/8/8/8/8 w - - 999999999 999999999"
        assert serialize_fen(parse_fen(fen)) == fen


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
    def test_fig1_round(self):
        assert serialize_fen(parse_fen(FIG1_FEN)) == FIG1_FEN

    def test_empty_black_to_move(self):
        record = parse_fen("8/8/8/8/8/8/8/8 b - - 0 1")
        assert serialize_fen(record) == "8/8/8/8/8/8/8/8 b - - 0 1"

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
    def test_fig1_passes_strict(self):
        parse_fen(FIG1_FEN, "strict")

    @pytest.mark.parametrize(
        "fen",
        [
            "8/8/8/8/8/8/8/8 w - - 0 1",  # no kings
            "KK6/8/8/8/7k/8/8/8 w - - 0 1",  # two white kings
            "K7/8/8/8/8/8/8/8 w - - 0 1",  # no black king
            "K6P/8/8/7k/8/8/8/8 w - - 0 1",  # pawn on rank 8
            "K7/8/8/7k/8/8/8/p7 w - - 0 1",  # pawn on rank 1
            "K7/8/8/7k/8/8/8/8 w - e3 0 1",  # white to move, ep on rank 3
            "K7/8/8/7k/8/8/8/8 b - e6 0 1",  # black to move, ep on rank 6
        ],
    )
    def test_strict_rejections(self, fen):
        parse_fen(fen)  # lenient accepts
        with pytest.raises(ValidationError):
            parse_fen(fen, "strict")

    def test_kings_are_checked_before_edge_pawns(self):
        # two white kings and a pawn on rank 1: the king check names the error
        with pytest.raises(ValidationError, match=r"^expected exactly one 'K', found 2$"):
            parse_fen("KK6/8/8/8/8/8/8/P7 w - - 0 1", "strict")

    def test_edge_pawns_are_checked_before_the_en_passant_rank(self):
        # e3 is no target with white to move: the pawn on rank 1 names the error
        with pytest.raises(ValidationError,
                           match=r"^pawn on first/last rank in segment 'P3K3'$"):
            parse_fen("4k3/8/8/8/8/8/8/P3K3 w - e3 0 1", "strict")

    @pytest.mark.parametrize("fen, message", [
        # pawns on both edge rows: rank 8's segment is named, not rank 1's
        ("Pk6/8/8/8/8/8/8/pK6 w - - 0 1", "pawn on first/last rank in segment 'Pk6'"),
        # no king of either colour: the white count is named first
        ("8/8/8/8/8/8/8/8 w - - 0 1", "expected exactly one 'K', found 0"),
    ])
    def test_the_first_rule_in_order_names_the_error(self, fen, message):
        with pytest.raises(ValidationError) as info:
            parse_fen(fen, "strict")
        assert str(info.value) == message

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
@given(st.one_of(st.text(max_size=80), nearly_fens()))
@example("8/8/8/8/8/8/8/k6K\x1cw - - 0 1")
@example("8/8/8/8/8/8/8/k6K\xa0w\u2003-\u3000- 0 1\n")
@example("8/8/8/8/8/8/8/k6K\u200bw - - 0 1")
@example("8/8/8/8/8/8/8/k6K w qkQK - 0 1")
@example("8/8/8/8/8/8/8/k6K w KQkqK - 0 1")
@example("8/8/8/8/8/8/8/k6K w - - 000000001 000000001")
@example("8/8/8/8/8/8/8/k6K w - - 0000000001 1")
@example("8/8/8/8/8/8/8/k6K w - - 0 \u0663")
@example("8/8/8/8/8/8/8/k6K b - e3 0 1")
@example("8/8/8/8/8/8/8/k6K w - e3 0 1")
@example("8/8/8/8/8/8/8/kK4K1 w - - 0 1")
@example("P6k/8/8/8/8/8/8/7K w - - 0 1")
@example("8/8/8/8/8/8/8/8/ w - - 0 1")
def test_parse_fen_reads_exactly_the_fen_grammar(text):
    """parse_fen against the reference grammar in conftest, under both
    validations: it accepts exactly the text the reference accepts, and
    serialize_fen writes the reference's canonical text; every rejection is
    a typed syntax error."""
    for validation in ("lenient", "strict"):
        expected = reference_fen(text, validation)
        try:
            record = parse_fen(text, validation)
        except FenSyntaxError:
            assert expected is None, (text, validation)
        else:
            assert serialize_fen(record) == expected, (text, validation)


_PLACEMENT = "8/8/8/8/8/8/8/k6K"


@settings(max_examples=300)
@given(st.one_of(nearly_fens(), strict_breakers(), st.text()))
# each breaks two neighbouring checks at once, so that swapping them changes the code
@example("9/8/8 w - - 0 1")
@example("8/8/8/8/8/8/8/44x1 w - - 0 1")
@example("8/8/8/8/8/8/8/x143 w - - 0 1")
@example("8/8/8/8/8/8/8/45 w - - 0 1")
@example("8/8/8/8/8/8/8/x w - - 0 1")
@example("9/x7/8/8/8/8/8/8 w - - 0 1")
@example("9/8/8/8/8/8/8/k6K W - - 0 1")
@example(f"{_PLACEMENT} W KK - 0 1")
@example(f"{_PLACEMENT} w KK e4 0 1")
@example(f"{_PLACEMENT} w - e4 -1 1")
@example("8/8/8/8/8/8/8/8 w - - 0 0")
def test_parse_fen_raises_the_code_of_the_first_check_the_reference_fails(text):
    """parse_fen against reference_fen_code in conftest, under both
    validations: it accepts exactly when the reference names no code, and
    otherwise raises the code of the first check the reference fails. The
    reference accepts exactly what the reference grammar accepts."""
    for validation in ("lenient", "strict"):
        expected = reference_fen_code(text, validation)
        assert (expected is None) == (reference_fen(text, validation) is not None), text
        try:
            parse_fen(text, validation)
        except FenSyntaxError as exc:
            assert exc.code == expected, (text, validation)
        else:
            assert expected is None, (text, validation)


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
