from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fenstring import (
    ApplyOptions,
    ApplyOutcome,
    BoardArray,
    FenRecord,
    FuzzReport,
    Move,
    Piece,
    Square,
    apply_move,
    board_from_fen,
    differential_fuzz,
    oracle_apply,
    parse_fen,
    parse_move,
    piece_at,
    play_sequence,
    serialize_fen,
    START_FEN,
)
from fenstring import move_apply
from fenstring.fen_codec import SQUARES
from fenstring.move_apply import _clocks_after, _en_passant_after, _read_move, _rights_after
from fenstring.errors import (
    BadOptionError,
    BadClockError,
    BadMoveSyntaxError,
    BadPromotionPieceError,
    BadSquareError,
    EmptyOriginError,
    FenstringError,
    FriendlyCaptureError,
    SegmentCountError,
    ValidationError,
)

from conftest import ALL_OPTIONS, FIG1_FEN, MOVE_GRAMMAR, both_paths, move_texts, nearly_fens

DEFAULT = ApplyOptions()
FROZEN = ApplyOptions(clock_mode="frozen")
ADJACENT = ApplyOptions(ep_mode="adjacent-only")
STRICT = ApplyOptions(validation="strict")
# a legal opening, so strict validation holds at every ply
RUY_LOPEZ = (
    "e2e4 e7e5 g1f3 b8c6 f1b5 a7a6 b5a4 g8f6 e1g1 f8e7 "
    "f1e1 b7b5 a4b3 d7d6 c2c3 e8g8 h2h3 c6a5 b3c2 c7c5"
).split()


def iterate(fen, moves, options):
    """The FEN after each move by one apply_move call per ply."""
    out = []
    for move in moves:
        fen = apply_move(fen, move, options).fen_after
        out.append(fen)
    return out


class TestParseMove:
    def test_plain(self):
        assert parse_move("f7f6") == Move(Square.from_name("f7"), Square.from_name("f6"))

    def test_hyphen(self):
        assert parse_move("f7-c7") == Move(Square.from_name("f7"), Square.from_name("c7"))

    @pytest.mark.parametrize("text", ["e7e8q", "e7e8Q"])
    def test_promotion_suffix(self, text):
        assert parse_move(text) == Move(Square.from_name("e7"), Square.from_name("e8"), "Q")

    @pytest.mark.parametrize(
        "text", ["", "e2", "e2e", "e2e9", "i2e4", "e2e4x", "e2--e4", "e2e4\n", "e7e8q\n"]
    )
    def test_bad_syntax(self, text):
        with pytest.raises(BadMoveSyntaxError):
            parse_move(text)

    def test_null_move_rejected(self):
        with pytest.raises(BadMoveSyntaxError):
            parse_move("e2e2")


@pytest.mark.parametrize(
    "entry",
    [
        parse_move,
        lambda move: apply_move(START_FEN, move),
        lambda move: play_sequence(START_FEN, [move]),
        lambda move: oracle_apply(START_FEN, move),
    ],
    ids=["parse_move", "apply_move", "play_sequence", "oracle_apply"],
)
@pytest.mark.parametrize("move", [b"e2e4", None, ("e2", "e4"), 42], ids=repr)
def test_move_that_is_neither_text_nor_a_move(entry, move):
    with pytest.raises(BadMoveSyntaxError) as info:
        entry(move)
    assert str(info.value) == f"a move must be text or a Move, got {type(move).__name__}"


# positions on which a move text can reach every outcome: ordinary moves,
# captures, a promotion, castles, an en-passant capture and each move error
STRING_MOVE_FENS = (
    START_FEN,
    FIG1_FEN,
    "4k3/4P3/8/8/8/8/8/4K3 w - - 0 1",
    "r3k2r/8/8/3pP3/8/8/8/R3K2R w KQkq d6 0 1",
)


def _result(apply, *args):
    """What a call gives: its value, or its error's class and message."""
    try:
        return apply(*args)
    except FenstringError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(
    st.one_of(
        st.text("abcdefgh12345678qrbnQRBNx-\n", max_size=7),
        st.from_regex(r"[a-h][1-8]-?[a-h][1-8][qrbnQRBNx]?\n?", fullmatch=True),
    )
)
@example("")
@example("e2e2")
@example("e2-e4")
@example("e7e8Q")
@example("e7e8x")
@example("e2e4\n")
@example("e5d6")
@example("e1g1")
def test_string_move_matches_parsed_move(text):
    """apply_move reads move text without a Move; it must act as if it had
    applied parse_move(text), and raise what parse_move raises."""
    try:
        move = parse_move(text)
    except FenstringError as exc:
        for fen in STRING_MOVE_FENS:
            assert _result(apply_move, fen, text) == (type(exc), str(exc))
        return
    for fen in STRING_MOVE_FENS:
        for options in ALL_OPTIONS:
            assert _result(apply_move, fen, text, options) == _result(
                apply_move, fen, move, options
            )


@settings(max_examples=500)
@given(move_texts)
@example("e2--e4")
@example("e2e4\n")
@example("e2e4 ")
@example(" e2e4")
@example("٨")
@example("e٨e4")
@example("ｅ2ｅ4")
@example("e7e8Ｑ")
@example("e7e8qq")
@example("e2e2")
@example("e2-e2")
@example("e2e2x")
@example("e2xe4")
def test_parse_move_reads_exactly_the_move_grammar(text):
    """parse_move against the reference grammar in conftest: it accepts
    exactly the text the grammar matches whole, except the null move; a
    rejection is bad move syntax, and both apply paths give its code. The
    text is read with the move table emptied and then warm: both reads give
    the same Move, or the same error and message."""
    match = MOVE_GRAMMAR.fullmatch(text)
    with mock.patch.object(move_apply, "_MOVE_READS", {}):
        first = _result(parse_move, text)
        assert _result(parse_move, text) == first
    try:
        move = parse_move(text)
    except FenstringError as exc:
        assert type(exc) is BadMoveSyntaxError
        # syntax first, then the null move
        if match is None:
            assert str(exc) == f"bad move syntax: {text!r}"
        else:
            assert match[1] == match[2] and str(exc) == f"origin equals destination: {match[1]}"
        for fen in STRING_MOVE_FENS:
            string, _, array = both_paths(fen, text)
            assert string == array == exc.code
        return
    assert match is not None and match[1] != match[2]
    assert move == (SQUARES[match[1]], SQUARES[match[2]], match[3].upper() or None)
    for fen in STRING_MOVE_FENS:
        string, _, array = both_paths(fen, text)
        assert string == array != "BadMoveSyntax"


class _Text(str):
    """Move text of a str subclass, which the reader reads every time."""


def test_the_move_table_holds_only_successful_reads_of_exact_text():
    with mock.patch.object(move_apply, "_MOVE_READS", {}) as table:
        # refused text, a null move, a Move and a str subclass store nothing
        castle = Move(SQUARES["e1"], SQUARES["g1"])
        for move in ("e2e9", "e2xe4", "e2e4 ", "e2e2", "e2-e2", castle, _Text("e2e4"), b"e2e4"):
            for entry in (parse_move, _read_move):
                _result(entry, move)
            for fen in STRING_MOVE_FENS:
                both_paths(fen, move)
            assert table == {}, move
        play_sequence(START_FEN, RUY_LOPEZ)
        # a read that succeeds is stored, though the ply then fails
        both_paths(START_FEN, "e7e8q")
        both_paths(START_FEN, "e2-e4")
        reads = dict(table)
    assert set(reads) == {*RUY_LOPEZ, "e7e8q", "e2-e4"}
    for text, read in reads.items():
        with mock.patch.object(move_apply, "_MOVE_READS", {}):
            assert _read_move(text) == read == tuple(parse_move(text))


def _ply(fen, move, options, after, special=None, **fields):
    """A row of _PLIES: the FEN, move and options of a ply, the exact FEN
    after it or the error code both paths raise, and the outcome fields it
    pins: its special, None when not given, and any other field named."""
    return fen, move, options, after, dict(fields, special=special)


_PLIES = {
    "fig1-rank-changing": _ply(FIG1_FEN, "f7f6", FROZEN,
                               "7N/1b4N1/5R1k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1",
                               segments_touched={1, 2}, was_capture=False, was_pawn_move=False),
    "fig1-same-rank": _ply(FIG1_FEN, "f7c7", FROZEN, "7N/1bR3N1/7k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1",
                           segments_touched={1}),
    "fig1-queen-takes-queen": _ply(FIG1_FEN, "g2f3", DEFAULT,
                                   "7N/1b3RN1/7k/6b1/KBp4p/5Q2/8/7n b - - 0 1", was_capture=True),
    "start-knight": _ply(START_FEN, "g1f3", DEFAULT,
                         "rnbqkbnr/pppppppp/8/8/8/5N2/PPPPPPPP/RNBQKB1R b KQkq - 1 1"),
    "start-double-push": _ply(START_FEN, "e2e4", DEFAULT,
                              "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1"),
    "start-double-push-adjacent-only": _ply(
        START_FEN, "e2e4", ADJACENT, "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1"),
    "castle-white-kingside": _ply("4k3/8/8/8/8/8/8/4K2R w K - 0 1", "e1g1", DEFAULT,
                                  "4k3/8/8/8/8/8/8/5RK1 b - - 1 1", "castle-kingside",
                                  segments_touched={7}),
    "castle-white-queenside": _ply("4k3/8/8/8/8/8/8/R3K3 w Q - 0 1", "e1c1", DEFAULT,
                                   "4k3/8/8/8/8/8/8/2KR4 b - - 1 1", "castle-queenside"),
    "castle-black-kingside": _ply("4k2r/8/8/8/8/8/8/4K3 b k - 0 1", "e8g8", DEFAULT,
                                  "5rk1/8/8/8/8/8/8/4K3 w - - 1 2", "castle-kingside"),
    "king-one-file-step": _ply("4k3/8/8/8/8/8/8/4K2R w K - 0 1", "e1f1", DEFAULT,
                               "4k3/8/8/8/8/8/8/5K1R b - - 1 1"),
    "ep-black-capture": _ply("8/8/8/8/3pP3/8/8/8 b - e3 0 1", "d4e3", DEFAULT,
                             "8/8/8/8/8/4p3/8/8 w - - 0 2", "en-passant-capture",
                             was_capture=True, segments_touched={4, 5}),
    "ep-white-capture": _ply("8/8/8/3pP3/8/8/8/8 w - d6 0 4", "e5d6", DEFAULT,
                             "8/8/3P4/8/8/8/8/8 b - - 0 4", "en-passant-capture"),
    "ep-no-target-is-a-plain-move": _ply("8/8/8/8/3pP3/8/8/8 b - - 0 1", "d4e3", DEFAULT,
                                         "8/8/8/8/4P3/4p3/8/8 w - - 0 2"),
    "promote-white-queen": _ply("8/4P3/8/8/8/8/8/8 w - - 0 1", "e7e8q", DEFAULT,
                                "4Q3/8/8/8/8/8/8/8 b - - 0 1", "promotion", was_pawn_move=True),
    "promote-black-knight": _ply("8/8/8/8/8/8/4p3/8 b - - 0 9", "e2e1n", DEFAULT,
                                 "8/8/8/8/8/8/8/4n3 w - - 0 10", "promotion"),
    # each error a ply raises
    **{name: _ply(fen, move, DEFAULT, code) for name, fen, move, code in [
        ("fig1-empty-origin", FIG1_FEN, "a3b4", "EmptyOrigin"),
        ("fig1-wrong-color", FIG1_FEN, "h6h5", "WrongColor"),  # the black king, white to move
        ("castle-no-rook", "4k3/8/8/8/8/8/8/4K3 w - - 0 1", "e1g1", "BadCastle"),
        ("castle-enemy-rook", "4k3/8/8/8/8/8/8/4K2r w - - 0 1", "e1g1", "BadCastle"),
        ("promote-no-suffix", "8/4P3/8/8/8/8/8/8 w - - 0 1", "e7e8", "MissingPromotion"),
        ("promote-a-rook", "8/4R3/8/8/8/8/8/8 w - - 0 1", "e7e8q", "BadPromotionPiece"),
    ]},
    # under strict validation a pawn that takes a king on the last rank must
    # still promote first, and the castle's corner and the clocks come before the kings
    **{f"strict-{name}": _ply(fen, move, STRICT, code) for name, fen, move, code in [
        ("onto-own-rook", "4k3/8/8/8/8/8/8/4K2R w - - 0 1", "e1h1", "FriendlyCapture"),
        ("pawn-takes-king", "3k4/4P3/8/8/8/8/8/4K3 w - - 0 1", "e7d8", "MissingPromotion"),
        ("pawn-takes-king-black", "4k3/8/8/8/8/8/3p4/4K3 b - - 0 1", "d2e1", "MissingPromotion"),
        ("promotes-onto-king", "3k4/4P3/8/8/8/8/8/4K3 w - - 0 1", "e7d8r", "Validation"),
        ("corner-before-kings", "8/8/8/8/8/8/8/4K1k1 w K - 0 1", "e1g1", "BadCastle"),
        ("clock-before-kings", "4k3/8/8/8/8/8/8/r4K2 b - - 0 999999999", "a1f1", "BadClock"),
    ]},
    # from all four rights: a rook leaving each corner, a rook capturing on
    # each, and each king stepping
    **{f"rights-{move}": _ply(f"r3k2r/8/8/8/8/8/8/R3K2R {side} KQkq - 0 1", move, DEFAULT, after)
       for side, move, after in [
           ("w", "a1a2", "r3k2r/8/8/8/8/8/R7/4K2R b Kkq - 1 1"),
           ("w", "h1h2", "r3k2r/8/8/8/8/8/7R/R3K3 b Qkq - 1 1"),
           ("w", "a1a8", "R3k2r/8/8/8/8/8/8/4K2R b Kk - 0 1"),
           ("w", "h1h8", "r3k2R/8/8/8/8/8/8/R3K3 b Qq - 0 1"),
           ("b", "a8a7", "4k2r/r7/8/8/8/8/8/R3K2R w KQk - 1 2"),
           ("b", "h8h7", "r3k3/7r/8/8/8/8/8/R3K2R w KQq - 1 2"),
           ("b", "a8a1", "4k2r/8/8/8/8/8/8/r3K2R w Kk - 0 2"),
           ("b", "h8h1", "r3k3/8/8/8/8/8/8/R3K2r w Qq - 0 2"),
           ("w", "e1e2", "r3k2r/8/8/8/8/8/4K3/R6R b kq - 1 1"),
           ("b", "e8e7", "r6r/4k3/8/8/8/8/8/R3K2R w KQ - 1 2"),
       ]},
    # double pushes under adjacent-only: a pawn two files off, across the
    # row's end, an own pawn or an enemy piece beside it sets no target
    **{f"adjacent-only-{name}": _ply(fen, move, ADJACENT, after) for name, fen, move, after in [
        ("pawn-left", "4k3/8/8/8/3p4/8/4P3/4K3 w - - 0 1", "e2e4",
         "4k3/8/8/8/3pP3/8/8/4K3 b - e3 0 1"),
        ("pawn-right", "4k3/8/8/8/5p2/8/4P3/4K3 w - - 0 1", "e2e4",
         "4k3/8/8/8/4Pp2/8/8/4K3 b - e3 0 1"),
        ("pawns-two-files-off", "4k3/8/8/8/2p3p1/8/4P3/4K3 w - - 0 1", "e2e4",
         "4k3/8/8/8/2p1P1p1/8/8/4K3 b - - 0 1"),
        ("own-pawn-and-knight", "4k3/8/8/8/3P1n2/8/4P3/4K3 w - - 0 1", "e2e4",
         "4k3/8/8/8/3PPn2/8/8/4K3 b - - 0 1"),
        ("a-file", "4k3/8/8/8/1p6/8/P7/4K3 w - - 0 1", "a2a4",
         "4k3/8/8/8/Pp6/8/8/4K3 b - a3 0 1"),
        ("h-file", "4k3/8/8/8/6p1/8/7P/4K3 w - - 0 1", "h2h4",
         "4k3/8/8/8/6pP/8/8/4K3 b - h3 0 1"),
        ("across-the-row-end", "4k3/8/8/8/p7/8/7P/4K3 w - - 0 1", "h2h4",
         "4k3/8/8/8/p6P/8/8/4K3 b - - 0 1"),
        ("black-pawn-right", "4k3/3p4/8/4P3/8/8/8/4K3 b - - 0 1", "d7d5",
         "4k3/8/8/3pP3/8/8/8/4K3 w - d6 0 2"),
        ("black-pawns-two-files-off", "4k3/3p4/8/1P3P2/8/8/8/4K3 b - - 0 1", "d7d5",
         "4k3/8/8/1P1p1P2/8/8/8/4K3 w - - 0 2"),
    ]},
}


@pytest.mark.parametrize("fen, move, options, after, fields", _PLIES.values(), ids=_PLIES)
def test_ply(fen, move, options, after, fields):
    string, _, array = both_paths(fen, move, options)
    assert string == array == after
    if " " in after:
        outcome = apply_move(fen, move, options)
        assert {name: getattr(outcome, name) for name in fields} == fields
        assert play_sequence(fen, [move], options) == [after]
    else:
        with pytest.raises(FenstringError) as info:
            play_sequence(fen, [move], options)
        assert (info.value.code, info.value.ply) == (after, 1)


def test_plies_hold_every_special_and_every_ply_error():
    specials = {fields["special"] for _, _, _, after, fields in _PLIES.values() if " " in after}
    codes = {after for _, _, _, after, _ in _PLIES.values() if " " not in after}
    assert specials == {"castle-kingside", "castle-queenside", "en-passant-capture", "promotion",
                        None}
    assert codes == {"EmptyOrigin", "WrongColor", "FriendlyCapture", "MissingPromotion",
                     "BadPromotionPiece", "BadCastle", "BadClock", "Validation"}


class TestApplyErrors:
    @pytest.mark.parametrize("fen, move, square", [
        ("4k3/8/8/8/8/8/8/4K2R w - - 0 1", "e1h1", "h1"),
        # a castle's rook and an en-passant capture write over a second square
        ("4k3/8/8/8/8/8/8/4KB1R w K - 5 1", "e1g1", "f1"),
        ("4k3/8/8/3NP3/8/8/8/4K3 w - d6 5 1", "e5d6", "d5"),
    ])
    def test_friendly_capture_strict_only(self, fen, move, square):
        # lenient validation transcribes the move
        assert apply_move(fen, move).fen_after == oracle_apply(fen, move)
        for apply in (apply_move, oracle_apply):
            with pytest.raises(FriendlyCaptureError) as info:
                apply(fen, move, ApplyOptions(validation="strict"))
            assert str(info.value) == f"own piece on {square}"

    def test_bad_square_in_move_object(self):
        with pytest.raises(BadSquareError):
            Move(Square(8, 1), Square(0, 1))

    @pytest.mark.parametrize(
        "to_square,promotion,error",
        [
            (Square(4, 8), "q", BadPromotionPieceError),
            (Square(4, 8), "K", BadPromotionPieceError),
            (Square(4, 8), "P", BadPromotionPieceError),
            (Square(4, 8), "x", BadPromotionPieceError),
            (Square(4, 8), "", BadPromotionPieceError),
            (Square(4, 8), "QR", BadPromotionPieceError),
            (Square(4, 7), None, BadMoveSyntaxError),
        ],
        ids=["lowercase", "king", "pawn", "unknown", "empty", "two-letters", "null-move"],
    )
    def test_bad_move_object(self, to_square, promotion, error):
        with pytest.raises(error):
            Move(Square(4, 7), to_square, promotion)


# (FEN, move, the king it removes): each write of a ply that can land on a
# king, for either colour; a strict result is checked for these writes only
KING_REMOVALS = [
    ("4k3/8/8/8/8/8/8/4RK2 w - - 0 1", "e1e8", "k"),  # a capture
    ("4k3/8/8/8/8/8/8/r4K2 b - - 0 1", "a1f1", "K"),
    ("3k4/4P3/8/8/8/8/8/4K3 w - - 0 1", "e7d8q", "k"),  # a promotion by capture
    ("4k3/8/8/8/8/8/3p4/4K3 b - - 0 1", "d2e1n", "K"),
    ("8/8/8/8/8/8/8/4Kk1R w K - 0 1", "e1g1", "k"),  # the castle's rook lands on a king
    ("r2Kk3/8/8/8/8/8/8/8 b q - 0 1", "e8c8", "K"),
    ("8/8/8/8/3pk3/8/8/4K3 b - e3 0 1", "d4e3", "k"),  # the en-passant victim is a king
    ("4k3/8/8/3KP3/8/8/8/8 w - d6 0 1", "e5d6", "K"),  # the mover's own
    ("8/8/3k4/3KP3/8/8/8/8 w - d6 0 1", "e5d6", "K"),  # both kings go: 'K' is named first
]


class TestKingRemovedUnderStrict:
    @pytest.mark.parametrize("fen, move, king", KING_REMOVALS)
    def test_raises_the_king_count_error_on_both_paths(self, fen, move, king):
        message = f"expected exactly one {king!r}, found 0"
        with pytest.raises(ValidationError) as info:
            apply_move(fen, move, STRICT)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            play_sequence(fen, [move], STRICT)
        assert (info.value.ply, str(info.value)) == (1, message)
        with pytest.raises(ValidationError):
            oracle_apply(fen, move, STRICT)
        # lenient validation transcribes the move
        assert apply_move(fen, move).fen_after == oracle_apply(fen, move)

    @pytest.mark.parametrize("fen, moves, king", [
        ("4k3/8/8/8/8/8/8/4RK2 w - - 0 1", ["f1g2", "e8e7", "e1e7"], "k"),
        ("4k3/8/8/8/8/8/8/r3K3 w - - 0 1", ["e1f1", "a1f1"], "K"),
    ])
    def test_names_its_ply_in_a_sequence(self, fen, moves, king):
        with pytest.raises(ValidationError) as info:
            play_sequence(fen, moves, STRICT)
        assert (info.value.ply, str(info.value)) == (
            len(moves), f"expected exactly one {king!r}, found 0")
        assert len(play_sequence(fen, moves)) == len(moves)


class TestCastlingRights:
    """_rights_after, the castling rule _apply runs."""

    KQKQ = "KQkq"

    def test_king_move_clears_both(self):
        rights = _rights_after(self.KQKQ, Piece("K", "w"), SQUARES["e1"], SQUARES["e2"], None)
        assert rights == "kq"

    def test_rook_from_h1(self):
        rights = _rights_after(self.KQKQ, Piece("R", "w"), SQUARES["h1"], SQUARES["h5"], None)
        assert rights == "Qkq"

    def test_capture_on_corner(self):
        rights = _rights_after("K", Piece("N", "b"), SQUARES["g3"], SQUARES["h1"],
                               Piece("R", "w"))
        assert rights == "-"

    def test_quiet_landing_on_corner_keeps_right(self):
        rights = _rights_after("k", Piece("N", "w"), SQUARES["g6"], SQUARES["h8"], None)
        assert rights == "k"

    @pytest.mark.parametrize(
        "rights, mover, src, dst, captured",
        [
            (KQKQ, "N", "g1", "f3", None),  # touches no right
            (KQKQ, "R", "h2", "h1", None),  # a rook arriving on a corner
            ("-", "K", "e1", "g1", None),  # no right to lose
            ("-", "N", "g3", "h1", "R"),
        ],
    )
    def test_unaffected_rights_returned_as_is(self, rights, mover, src, dst, captured):
        captured = Piece.from_letter(captured) if captured else None
        after = _rights_after(rights, Piece.from_letter(mover), SQUARES[src], SQUARES[dst],
                              captured)
        assert after is rights


class TestDeriveEnPassant:
    """_en_passant_after, the en-passant rule _apply runs."""

    RANK5_PP = ("8", "8", "8", "3Pp3", "8", "8", "8", "8")

    def test_black_double_push_with_neighbor(self):
        for mode in ("always", "adjacent-only"):
            target = _en_passant_after(self.RANK5_PP, Piece("P", "b"), SQUARES["e7"],
                                       SQUARES["e5"], mode)
            assert target == "e6"

    def test_non_pawn(self):
        placement = ("8", "8", "8", "8", "R7", "8", "8", "8")
        for mode in ("always", "adjacent-only"):
            assert _en_passant_after(placement, Piece("R", "w"), SQUARES["a1"], SQUARES["a4"],
                                     mode) == "-"

    def test_lonely_double_push_mode_split(self):
        placement = ("8", "8", "8", "8", "4P3", "8", "8", "8")
        args = (placement, Piece("P", "w"), SQUARES["e2"], SQUARES["e4"])
        assert _en_passant_after(*args, "adjacent-only") == "-"
        assert _en_passant_after(*args, "always") == "e3"

    def test_target_is_the_shared_square(self):
        # the field's text, which is the passed square's name
        placement = ("8", "8", "8", "8", "4P3", "8", "8", "8")
        args = (placement, Piece("P", "w"), SQUARES["e2"], SQUARES["e4"])
        assert _en_passant_after(*args, "always") is SQUARES["e3"].name

    def test_friendly_neighbor_does_not_count(self):
        placement = ("8", "8", "8", "8", "3PP3", "8", "8", "8")
        for mode, target in (("always", "e3"), ("adjacent-only", "-")):
            assert _en_passant_after(placement, Piece("P", "w"), SQUARES["e2"], SQUARES["e4"],
                                     mode) == target


class TestClocks:
    """_clocks_after, the clock rule _apply runs."""

    def test_quiet_white_move(self):
        assert _clocks_after(0, 1, Piece("R", "w"), False, "standard") == (1, 1)

    def test_frozen(self):
        assert _clocks_after(0, 1, Piece("R", "w"), False, "frozen") == (0, 1)

    def test_black_pawn_capture(self):
        assert _clocks_after(7, 12, Piece("P", "b"), True, "standard") == (0, 13)

    def test_quiet_black_move(self):
        assert _clocks_after(3, 9, Piece("N", "b"), False, "standard") == (4, 10)

    def test_frozen_clocks_are_not_checked(self):
        # frozen clocks are the parsed ones, which never grow
        assert _clocks_after(999999999, 999999999, Piece("N", "b"), False,
                             "frozen") == (999999999, 999999999)

    # each clock a FEN may carry, grown by the move past what one may carry
    @pytest.mark.parametrize("halfmove, fullmove, mover, grown", [
        (999999999, 1, "N", "1000000000 1"),
        (0, 999999999, "n", "1 1000000000"),
    ])
    def test_a_clock_grown_past_its_digits(self, halfmove, fullmove, mover, grown):
        with pytest.raises(BadClockError) as info:
            _clocks_after(halfmove, fullmove, Piece.from_letter(mover), False, "standard")
        assert str(info.value) == f"clock longer than 9 digits: {grown}"


class TestApplyOptions:
    @pytest.mark.parametrize(
        "field, value",
        [("ep_mode", "bogus"), ("clock_mode", "Frozen"), ("validation", "Strict"),
         ("validation", None)],
    )
    def test_unknown_value_rejected(self, field, value):
        with pytest.raises(BadOptionError) as exc:
            ApplyOptions(**{field: value})
        assert exc.value.code == "BadOption"
        assert isinstance(exc.value, ValueError)

    def test_unknown_argument_rejected_where_read(self):
        # parse_fen checks the option it takes, with the message
        # ApplyOptions gives
        with pytest.raises(BadOptionError) as exc:
            parse_fen(START_FEN, "Strict")
        with pytest.raises(BadOptionError) as built:
            ApplyOptions(validation="Strict")
        assert str(exc.value) == str(built.value)


class TestPlaySequence:
    def test_two_plies(self):
        fens = play_sequence(START_FEN, ["e2e4", "e7e5"])
        assert len(fens) == 2
        assert fens[-1] == "rnbqkbnr/pppp1ppp/8/4p3/4P3/8/PPPP1PPP/RNBQKBNR w KQkq e6 0 2"

    def test_empty(self):
        assert play_sequence(START_FEN, []) == []

    def test_error_annotated_with_ply(self):
        with pytest.raises(EmptyOriginError) as info:
            play_sequence(START_FEN, ["e2e4", "e2e4"])
        assert info.value.ply == 2

    def test_matches_oracle_chaining(self):
        fens = play_sequence(FIG1_FEN, ["f7f6", "h6g7"])
        step1 = oracle_apply(FIG1_FEN, "f7f6")
        assert fens == [step1, oracle_apply(step1, "h6g7")]

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_equals_iterated_apply_move(self, options):
        assert play_sequence(START_FEN, RUY_LOPEZ, options) == iterate(START_FEN, RUY_LOPEZ, options)

    @pytest.mark.parametrize(
        "moves,options,ply",
        [
            (["e2e4", "e2e4"], ApplyOptions(), 2),
            (["e2e4", "e7e5", "e4e5x"], ApplyOptions(), 3),
            (["e2e4", "e7e5", "e4e5\n"], ApplyOptions(), 3),
            (["e2e4", "e7e5", "d1h5", "h7h6", "h5f7", "e8f7", "f1b5", "f7e8", "b5e8"],
             ApplyOptions(), None),  # lenient: the bishop takes the king
            (["e2e4", "e7e5", "d1h5", "h7h6", "h5f7", "e8f7", "f1b5", "f7e8", "b5e8"],
             ApplyOptions(validation="strict"), 9),
            (["e2e4", "d2d4"], ApplyOptions(), 2),
            (["g1f3", "g8f6", "f3h2"], ApplyOptions(), None),
            (["g1f3", "g8f6", "f3h2"], ApplyOptions(validation="strict"), 3),
            (["g1f3", "g7g5", "f3g5", "f7f5", "g5f7"], ApplyOptions(validation="strict"), None),
        ],
    )
    def test_failing_ply_matches_apply_move(self, moves, options, ply):
        try:
            expected = iterate(START_FEN, moves, options)
        except Exception as exc:  # the reference run's error is the expectation
            with pytest.raises(type(exc)) as info:
                play_sequence(START_FEN, moves, options)
            assert (info.value.ply, str(info.value)) == (ply, str(exc))
        else:
            assert ply is None
            assert play_sequence(START_FEN, moves, options) == expected

    def test_irregular_whitespace_start(self):
        fen = "  " + START_FEN.replace(" ", " \t  ") + " \n"
        assert play_sequence(fen, RUY_LOPEZ) == play_sequence(START_FEN, RUY_LOPEZ)

    def test_bad_fen_without_moves(self):
        with pytest.raises(SegmentCountError) as info:
            play_sequence("garbage", [])
        assert not hasattr(info.value, "ply")

    def test_bad_fen_fails_at_first_ply(self):
        with pytest.raises(SegmentCountError) as info:
            play_sequence("garbage", ["e2e4"])
        assert not hasattr(info.value, "ply")

    @given(nearly_fens(), st.lists(move_texts, max_size=3), st.sampled_from(("lenient", "strict")))
    def test_fen_is_read_before_the_first_ply(self, fen, moves, validation):
        # a refused FEN raises what parse_fen raises, with no ply, whatever
        # the moves; an accepted one plays as iterated apply_move does
        options = ApplyOptions(validation=validation)
        ply, expected, after = None, [], fen
        try:
            parse_fen(fen, validation)
            for ply, move in enumerate(moves, start=1):
                after = apply_move(after, move, options).fen_after
                expected.append(after)
        except FenstringError as exc:
            with pytest.raises(type(exc)) as info:
                play_sequence(fen, moves, options)
            assert (getattr(info.value, "ply", None), str(info.value)) == (ply, str(exc))
        else:
            assert play_sequence(fen, moves, options) == expected

    @pytest.mark.parametrize("validation", ["lenient", "strict"])
    def test_clock_grown_past_its_digits(self, validation):
        # the first ply's fullmove number would have one digit more than a
        # FEN may carry: both validations reject that ply, on both paths
        fen = "4k3/8/8/8/8/8/8/4K3 b - - 0 999999999"
        moves = ["e8d8", "e1d1"]
        options = ApplyOptions(validation=validation)
        with pytest.raises(BadClockError) as info:
            play_sequence(fen, moves, options)
        assert info.value.ply == 1
        with pytest.raises(BadClockError):
            apply_move(fen, moves[0], options)
        with pytest.raises(BadClockError):
            oracle_apply(fen, moves[0], options)


class TestInvariants:
    def test_locality_untouched_segments(self, fuzz_corpus):
        for fen, _, outcome in fuzz_corpus[:2000]:
            before = parse_fen(fen).ranks
            after = parse_fen(outcome.fen_after).ranks
            for i in range(8):
                if i not in outcome.segments_touched:
                    assert before[i] == after[i]

    def test_side_always_inverts(self, fuzz_corpus):
        for fen, _, outcome in fuzz_corpus[:2000]:
            assert {fen.split()[1], outcome.fen_after.split()[1]} == {"w", "b"}

    def test_rights_monotonic(self, fuzz_corpus):
        for fen, _, outcome in fuzz_corpus[:2000]:
            before = set(fen.split()[2].replace("-", ""))
            after = set(outcome.fen_after.split()[2].replace("-", ""))
            assert after <= before

    def test_closure(self, fuzz_corpus):
        for _, _, outcome in fuzz_corpus[:2000]:
            parse_fen(outcome.fen_after)

    def test_material_rule(self, fuzz_corpus):
        from collections import Counter

        for fen, move, outcome in fuzz_corpus[:2000]:
            # pseudo-castles may additionally overwrite a piece standing on
            # the rook's destination square, so they are excluded here
            if outcome.special in ("castle-kingside", "castle-queenside"):
                continue
            before = Counter(c for c in fen.split()[0] if c.isalpha())
            after = Counter(c for c in outcome.fen_after.split()[0] if c.isalpha())
            assert sum(before.values()) - sum(after.values()) == (1 if outcome.was_capture else 0)


class TestKernelAndPublicRules:
    """_apply states no rule of its own: each ply's trailer is what the
    rule cores give for the ply's own pieces and squares, and its text is
    serialize_fen of its record."""

    def test_every_ply_agrees_with_the_rule_cores(self, fuzz_corpus):
        from fenstring.move_apply import _apply

        checked = dict.fromkeys(ALL_OPTIONS, 0)
        for fen, move, _ in fuzz_corpus:
            lenient = parse_fen(fen)
            try:
                strict = parse_fen(fen, "strict")
            except FenstringError:
                strict = None
            mv = parse_move(move)
            mover = piece_at(lenient, mv.from_square)
            captured = piece_at(lenient, mv.to_square)
            for options in ALL_OPTIONS:
                record = strict if options.validation == "strict" else lenient
                if record is None:
                    continue
                try:
                    after, outcome = _apply(record, move, options)
                except FenstringError:
                    continue
                after, outcome = FenRecord(*after), ApplyOutcome(*outcome)
                checked[options] += 1
                assert after.castling == _rights_after(
                    record.castling, mover, mv.from_square, mv.to_square, captured
                )
                assert after.en_passant is _en_passant_after(
                    after.ranks, mover, mv.from_square, mv.to_square, options.ep_mode
                )
                assert (after.halfmove, after.fullmove) == _clocks_after(
                    record.halfmove, record.fullmove, mover, outcome.was_capture,
                    options.clock_mode,
                )
                assert outcome.fen_after == serialize_fen(after)
        # every combination, strict ones included, checks thousands of plies
        assert min(checked.values()) > 1000, checked

    def test_the_kernel_carries_plain_tuples(self, fuzz_corpus):
        # a ply builds no named tuple: the next record and the outcome are
        # plain tuples in FenRecord's and ApplyOutcome's field order, and
        # the next ply reads the plain record as it reads a parsed one
        from fenstring.move_apply import _apply

        def result(record, move, options):
            try:
                return _apply(record, move, options)
            except FenstringError as exc:
                return type(exc), str(exc)

        checked = dict.fromkeys(ALL_OPTIONS, 0)
        for (fen, move, _), (_, next_move, _) in zip(fuzz_corpus, fuzz_corpus[1:]):
            for options in ALL_OPTIONS:
                try:
                    record = parse_fen(fen, options.validation)
                    after, outcome = _apply(record, move, options)
                except FenstringError:
                    continue
                checked[options] += 1
                assert type(after) is tuple and type(outcome) is tuple
                assert FenRecord(*after) == parse_fen(outcome[0], options.validation)
                assert ApplyOutcome(*outcome) == apply_move(fen, move, options)
                assert result(after, next_move, options) == result(
                    FenRecord(*after), next_move, options
                )
        assert min(checked.values()) > 1000, checked

    def test_the_kernel_calls_no_checked_wrapper(self, monkeypatch):
        from fenstring import fen_codec

        def wrapper_must_not_run(*args):
            raise AssertionError("a checked wrapper ran on the kernel's path")

        monkeypatch.setattr(fen_codec, "serialize_fen", wrapper_must_not_run)
        # double pushes under both ep modes, a castle, an en-passant capture
        # and a promotion
        moves = ["e2e4", "d7d5", "e4d5", "c7c5", "d5c6", "g8f6", "c6b7", "e7e5",
                 "b7a8q", "f8e7", "g1f3", "e8g8"]
        for options in ALL_OPTIONS:
            fens = play_sequence(START_FEN, moves, options)
            assert fens[-1].split()[:3] == ["Qnbq1rk1/p3bppp/5n2/4p3/8/5N2/PPPP1PPP/RNBQKB1R",
                                            "w", "KQ"]


def test_trailer_stage_names_are_the_rule_cores():
    # the benchmark's traced stages call the cores by these names; nothing
    # in the package but __init__ names them, and they are no exports
    from pathlib import Path

    import fenstring

    names = {"update_castling_rights": _rights_after, "derive_en_passant": _en_passant_after,
             "update_clocks": _clocks_after}
    for name, core in names.items():
        assert getattr(fenstring, name) is core
    assert not set(names) & set(fenstring.__all__)
    for module in Path(fenstring.__file__).parent.glob("*.py"):
        if module.name != "__init__.py":
            source = module.read_text(encoding="utf-8")
            assert not [name for name in names if name in source], module.name


class TestRecordContract:
    """FenRecord, ApplyOutcome, BoardArray and FuzzReport are immutable
    records with named fields, built by keyword or by position; FenRecord
    and ApplyOutcome are hashable."""

    def test_fields_cannot_be_assigned(self):
        record = parse_fen(START_FEN)
        outcome = apply_move(START_FEN, "e2e4")
        board = board_from_fen(START_FEN)
        report = differential_fuzz(3, 0)
        with pytest.raises(AttributeError):
            record.side = "b"
        with pytest.raises(AttributeError):
            outcome.fen_after = START_FEN
        with pytest.raises(AttributeError):
            board.castling = "-"
        with pytest.raises(AttributeError):
            report.mismatches = 1

    def test_hashable(self):
        record = parse_fen(FIG1_FEN)
        outcome = apply_move(FIG1_FEN, "f7f6")
        assert hash(record) == hash(parse_fen(FIG1_FEN))
        assert hash(outcome) == hash(apply_move(FIG1_FEN, "f7f6"))
        assert len({record, parse_fen(FIG1_FEN), outcome, apply_move(FIG1_FEN, "f7f6")}) == 2

    def test_keyword_construction(self):
        record = FenRecord(
            ranks=("rnbqkbnr", "pppppppp", "8", "8", "4P3", "8", "PPPP1PPP", "RNBQKBNR"),
            side="b",
            castling="KQkq",
            en_passant="e3",
            halfmove=0,
            fullmove=1,
        )
        fen = "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1"
        assert record == parse_fen(fen)
        outcome = ApplyOutcome(
            fen_after=fen,
            segments_touched=frozenset({4, 6}),
            was_capture=False,
            was_pawn_move=True,
        )
        assert outcome == apply_move(START_FEN, "e2e4")
        assert outcome.special is None
        board = BoardArray(
            cells=board_from_fen(fen).cells,
            side="b",
            castling="KQkq",
            en_passant="e3",
            halfmove=0,
            fullmove=1,
        )
        assert board == board_from_fen(fen)
        report = FuzzReport(seed=0, iterations=3, positions=3, mismatches=0)
        assert report == differential_fuzz(3, 0)
        assert report.first_counterexample is None

    def test_segments_touched_is_a_frozenset(self):
        assert type(apply_move(START_FEN, "e2e4").segments_touched) is frozenset
        assert type(apply_move(FIG1_FEN, "f7c7").segments_touched) is frozenset
