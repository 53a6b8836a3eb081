import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fenstring import (
    ApplyOptions,
    ApplyOutcome,
    FenRecord,
    Move,
    Piece,
    Square,
    apply_move,
    board_from_fen,
    contract_rank,
    derive_en_passant,
    oracle_apply,
    parse_fen,
    parse_move,
    piece_at,
    play_sequence,
    serialize_fen,
    update_castling_rights,
    update_clocks,
    START_FEN,
)
from fenstring.fen_codec import SQUARES
from fenstring.errors import (
    BadCastleError,
    BadOptionError,
    BadClockError,
    BadMoveSyntaxError,
    BadPromotionPieceError,
    BadSquareError,
    EmptyOriginError,
    FenstringError,
    FriendlyCaptureError,
    MissingPromotionError,
    SegmentCountError,
    WrongColorError,
)

from conftest import ALL_OPTIONS, FIG1_FEN, MOVE_GRAMMAR, move_texts

FROZEN = ApplyOptions(clock_mode="frozen")
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


def _code(apply, *args):
    """A call's typed error code, or its FEN."""
    try:
        result = apply(*args)
    except FenstringError as exc:
        return exc.code
    return getattr(result, "fen_after", result)


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
def test_parse_move_reads_exactly_the_move_grammar(text):
    """parse_move against the reference grammar in conftest: it accepts
    exactly the text the grammar matches whole, except the null move; a
    rejection is bad move syntax, and both apply paths give its code."""
    match = MOVE_GRAMMAR.fullmatch(text)
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
            assert _code(apply_move, fen, text) == _code(oracle_apply, fen, text) == exc.code
        return
    assert match is not None and match[1] != match[2]
    assert move == (SQUARES[match[1]], SQUARES[match[2]], match[3].upper() or None)
    for fen in STRING_MOVE_FENS:
        assert _code(apply_move, fen, text) == _code(oracle_apply, fen, text) != "BadMoveSyntax"


class TestApply:
    def test_rank_changing_move(self):
        outcome = apply_move(FIG1_FEN, "f7f6", FROZEN)
        assert outcome.fen_after == "7N/1b4N1/5R1k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1"
        assert outcome.segments_touched == {1, 2}
        assert not outcome.was_capture and not outcome.was_pawn_move
        assert outcome.special is None

    def test_same_rank_move(self):
        outcome = apply_move(FIG1_FEN, "f7c7", FROZEN)
        assert outcome.fen_after == "7N/1bR3N1/7k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1"
        assert outcome.segments_touched == {1}

    def test_double_push_ep_modes(self):
        after = "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1"
        assert apply_move(START_FEN, "e2e4").fen_after == after
        adjacent = apply_move(START_FEN, "e2e4", ApplyOptions(ep_mode="adjacent-only"))
        assert adjacent.fen_after == after.replace(" e3 ", " - ")

    def test_capture_overwrites(self):
        outcome = apply_move(FIG1_FEN, "g2f3")  # white queen takes black queen
        assert outcome.was_capture
        assert parse_fen(outcome.fen_after).ranks[5] == "5Q2"
        assert outcome.fen_after.split()[4] == "0"  # capture resets halfmove


class TestCastling:
    def test_white_kingside(self):
        outcome = apply_move("4k3/8/8/8/8/8/8/4K2R w K - 0 1", "e1g1")
        assert outcome.fen_after == "4k3/8/8/8/8/8/8/5RK1 b - - 1 1"
        assert outcome.segments_touched == {7}
        assert outcome.special == "castle-kingside"

    def test_white_queenside(self):
        outcome = apply_move("4k3/8/8/8/8/8/8/R3K3 w Q - 0 1", "e1c1")
        assert outcome.fen_after == "4k3/8/8/8/8/8/8/2KR4 b - - 1 1"
        assert outcome.special == "castle-queenside"

    def test_black_kingside(self):
        outcome = apply_move("4k2r/8/8/8/8/8/8/4K3 b k - 0 1", "e8g8")
        assert outcome.fen_after == "5rk1/8/8/8/8/8/8/4K3 w - - 1 2"

    def test_missing_rook(self):
        with pytest.raises(BadCastleError):
            apply_move("4k3/8/8/8/8/8/8/4K3 w - - 0 1", "e1g1")

    def test_wrong_color_rook(self):
        with pytest.raises(BadCastleError):
            apply_move("4k3/8/8/8/8/8/8/4K2r w - - 0 1", "e1g1")

    def test_plain_one_file_king_move_is_not_castle(self):
        outcome = apply_move("4k3/8/8/8/8/8/8/4K2R w K - 0 1", "e1f1")
        assert outcome.special is None
        assert outcome.fen_after == "4k3/8/8/8/8/8/8/5K1R b - - 1 1"


class TestEnPassantCapture:
    def test_capture_removes_bypassed_pawn(self):
        outcome = apply_move("8/8/8/8/3pP3/8/8/8 b - e3 0 1", "d4e3")
        assert outcome.fen_after == "8/8/8/8/8/4p3/8/8 w - - 0 2"
        assert outcome.special == "en-passant-capture"
        assert outcome.was_capture
        assert outcome.segments_touched == {4, 5}

    def test_white_side(self):
        outcome = apply_move("8/8/8/3pP3/8/8/8/8 w - d6 0 4", "e5d6")
        assert outcome.fen_after == "8/8/3P4/8/8/8/8/8 b - - 0 4"
        assert outcome.special == "en-passant-capture"

    def test_diagonal_to_stale_square_is_plain_move(self):
        outcome = apply_move("8/8/8/8/3pP3/8/8/8 b - - 0 1", "d4e3")
        assert outcome.special is None
        assert parse_fen(outcome.fen_after).ranks[4] == "4P3"


def _placement(pieces):
    """The placement with {square name: letter} on it and every other square empty."""
    return "/".join(
        contract_rank("".join(pieces.get(f"{f}{rank}", "1") for f in "abcdefgh"))
        for rank in range(8, 0, -1)
    )


def _en_passant_captures():
    """(fen, move) for every en-passant capture: each target file, both
    colours, from either side, with the other squares of the victim's rank
    empty, all taken, or taken on every other file. One king a side, so
    strict validation holds."""
    for side, rank, target_rank, own, victim, fillers in (
        ("w", 5, 6, "P", "p", "Nb"),
        ("b", 4, 3, "p", "P", "nB"),
    ):
        for target in range(8):
            for origin in (target - 1, target + 1):
                if not 0 <= origin <= 7:
                    continue
                for fill in ("empty", "full", "even", "odd"):
                    pieces = {"e1": "K", "e8": "k"}
                    for f in set(range(8)) - {target, origin}:
                        if fill == "full" or fill == ("even", "odd")[f % 2]:
                            pieces[f"{'abcdefgh'[f]}{rank}"] = fillers[f % 2]
                    pieces[f"{'abcdefgh'[target]}{rank}"] = victim
                    pieces[f"{'abcdefgh'[origin]}{rank}"] = own
                    target_name = f"{'abcdefgh'[target]}{target_rank}"
                    fen = f"{_placement(pieces)} {side} - {target_name} 0 1"
                    yield fen, f"{'abcdefgh'[origin]}{rank}{target_name}"


def _castles():
    """(fen, move, special) for each of the 4 castles under every occupancy,
    by enemy pieces, of the squares between the king and the rook."""
    for side, move, corner, between, special in (
        ("w", "e1g1", "h1", ("f1", "g1"), "castle-kingside"),
        ("w", "e1c1", "a1", ("b1", "c1", "d1"), "castle-queenside"),
        ("b", "e8g8", "h8", ("f8", "g8"), "castle-kingside"),
        ("b", "e8c8", "a8", ("b8", "c8", "d8"), "castle-queenside"),
    ):
        rook, enemies = ("R", "nbq") if side == "w" else ("r", "NBQ")
        for mask in range(2 ** len(between)):
            pieces = {"e1": "K", "e8": "k", corner: rook}
            for i, square in enumerate(between):
                if mask >> i & 1:
                    pieces[square] = enemies[i]
            yield f"{_placement(pieces)} {side} KQkq - 0 1", move, special


def _king_two_file_moves():
    """(fen, move, special) for every king two-file move along ranks 1 and
    8, by either colour, with no rook or with its own rooks on the rank's
    free corners. Only e1g1, e1c1 and their rank-8 twins castle: a1c1 and
    a8c8 are castle-shaped too, but their corner is the king's origin."""
    for rank in (1, 8):
        for side, king, rook, enemy_king in (("w", "K", "R", "k"), ("b", "k", "r", "K")):
            for from_file in range(8):
                for to_file in (from_file - 2, from_file + 2):
                    if not 0 <= to_file <= 7:
                        continue
                    for rooks in (False, True):
                        pieces = {f"{'abcdefgh'[from_file]}{rank}": king, "d5": enemy_king}
                        if rooks:
                            for corner in "ah":
                                pieces.setdefault(f"{corner}{rank}", rook)
                        special = None
                        if rooks and from_file == 4:
                            special = "castle-kingside" if to_file == 6 else "castle-queenside"
                        move = f"{'abcdefgh'[from_file]}{rank}{'abcdefgh'[to_file]}{rank}"
                        yield f"{_placement(pieces)} {side} KQkq - 0 1", move, special


def _pawn_steps():
    """(fen, move) for every same-file pawn step between ranks 2 and 4 or 5
    and 7, forwards and backwards, by either colour, alone or with an enemy
    pawn beside the landing square, on either side."""
    for file in range(8):
        for start, end in ((2, 4), (4, 2), (5, 7), (7, 5)):
            for side, pawn, enemy in (("w", "P", "p"), ("b", "p", "P")):
                for beside in (None, file - 1, file + 1):
                    if beside is not None and not 0 <= beside <= 7:
                        continue
                    pieces = {"e1": "K", "e8": "k", f"{'abcdefgh'[file]}{start}": pawn}
                    if beside is not None:
                        pieces[f"{'abcdefgh'[beside]}{end}"] = enemy
                    move = f"{'abcdefgh'[file]}{start}{'abcdefgh'[file]}{end}"
                    yield f"{_placement(pieces)} {side} - - 0 1", move


def _both_paths(fen, move, options):
    """(the string path's FEN or error code, its special, the oracle's FEN
    or error code) for one move."""
    try:
        outcome = apply_move(fen, move, options)
        string, special = outcome.fen_after, outcome.special
    except FenstringError as exc:
        string, special = f"<{exc.code}>", None
    try:
        array = oracle_apply(fen, move, options)
    except FenstringError as exc:
        array = f"<{exc.code}>"
    return string, special, array


class TestSpecialShapesAgainstOracle:
    """The castle and double-push tables, against the oracle's own rules:
    every move of either shape and every move that only comes near one."""

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_every_king_two_file_move(self, options):
        moves = list(_king_two_file_moves())
        assert len(moves) == 2 * 2 * 12 * 2
        corner_king_castles = set()
        for fen, move, special in moves:
            string, got_special, array = _both_paths(fen, move, options)
            assert string == array, (fen, move)
            assert got_special == (None if string.startswith("<") else special), (fen, move)
            if move in ("a1c1", "a8c8"):
                corner_king_castles.add(string)
        # a king on the corner is castle-shaped, and raises BadCastle on both paths
        assert corner_king_castles == {"<BadCastle>"}

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_every_pawn_step_between_ranks_2_4_and_5_7(self, options):
        steps = list(_pawn_steps())
        # 4 steps of 2 colours on 8 files alone and with 14 file-neighbour pairs
        assert len(steps) == 4 * 2 * (8 + 14)
        targets = {}
        for fen, move in steps:
            string, special, array = _both_paths(fen, move, options)
            assert string == array, (fen, move)
            assert special is None, (fen, move)
            if not string.startswith("<"):
                targets.setdefault(move, set()).add(string.split()[3])
        # a backward pseudo-push passes the square of the forward one
        if options.ep_mode == "always":
            assert targets["e4e2"] == {"e3"}
            assert targets["d7d5"] == {"d6"}


class TestSpecialGeometryAgainstOracle:
    """Every en-passant capture and castle shape, against the array oracle;
    the acceptance fuzz reaches too few of them to check their writes."""

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_every_en_passant_capture(self, options):
        captures = list(_en_passant_captures())
        assert len(captures) == 2 * 14 * 4
        for fen, move in captures:
            outcome = apply_move(fen, move, options)
            assert outcome.special == "en-passant-capture", (fen, move)
            assert outcome.fen_after == oracle_apply(fen, move, options), (fen, move)

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_every_castle_occupancy(self, options):
        castles = list(_castles())
        assert len(castles) == 2 * (4 + 8)
        for fen, move, special in castles:
            outcome = apply_move(fen, move, options)
            assert outcome.special == special, (fen, move)
            assert outcome.fen_after == oracle_apply(fen, move, options), (fen, move)


def _row_end_moves():
    """(fen, move) for every move between an h-file square and an a-file
    square one rank up or down, either way: the squares that follow each
    other across a row's end in a row-major board. Each of the 12 pieces
    moves onto an empty square, an enemy rook or its own rook, with every
    castling right on the board, so that a corner the move leaves or takes
    drops its right; a pawn reaching rank 1 or 8 promotes to a queen. One
    king a side (the mover, when it is one), so strict validation holds
    unless a pawn starts on rank 1 or 8."""
    for h_rank in range(1, 9):
        for a_rank in (h_rank - 1, h_rank + 1):
            if not 1 <= a_rank <= 8:
                continue
            for origin, target in ((f"h{h_rank}", f"a{a_rank}"), (f"a{a_rank}", f"h{h_rank}")):
                for mover in "KQRBNPkqrbnp":
                    white = mover.isupper()
                    for on_target in ("", "r" if white else "R", "R" if white else "r"):
                        pieces = {"d4": "K", "d5": "k", origin: mover}
                        if on_target:
                            pieces[target] = on_target
                        promotion = "q" if mover in "Pp" and target[1] in "18" else ""
                        fen = f"{_placement(pieces)} {'w' if white else 'b'} KQkq - 0 1"
                        yield fen, f"{origin}{target}{promotion}"


def _en_passant_at_row_ends():
    """(fen, move, pawn beside) for each en-passant capture onto the a or h
    file, and each double push onto those files, with or without pawns of
    the other colour on the squares just across the landing or victim
    square's row end, which a capture must leave and an adjacent-only
    target must not count as beside it. ``pawn beside`` tells whether an
    enemy pawn stands next to a push's landing square, on its rank."""
    for side, move, target, victim, across in (
        ("w", "b5a6", "a6", "a5", "h6"),
        ("w", "g5h6", "h6", "h5", "a4"),
        ("b", "b4a3", "a3", "a4", "h5"),
        ("b", "g4h3", "h3", "h4", "a3"),
    ):
        own, enemy = ("P", "p") if side == "w" else ("p", "P")
        for pawns_across in (False, True):
            pieces = {"e1": "K", "e8": "k", move[:2]: own, victim: enemy}
            if pawns_across:
                pieces[across] = enemy
            yield f"{_placement(pieces)} {side} - {target} 0 1", move, None
    for side, move, beside, across in (
        ("w", "a2a4", "b4", "h5"),
        ("w", "h2h4", "g4", "a3"),
        ("b", "a7a5", "b5", "h6"),
        ("b", "h7h5", "g5", "a4"),
    ):
        own, enemy = ("P", "p") if side == "w" else ("p", "P")
        for others in ((), (beside,), (across,), (beside, across)):
            pieces = {"e1": "K", "e8": "k", move[:2]: own}
            pieces.update(dict.fromkeys(others, enemy))
            yield f"{_placement(pieces)} {side} - - 0 1", move, beside in others


class TestRowEndsAgainstOracle:
    """The moves that cross a row's end, where a flat array's neighbouring
    cells lie on different ranks, against the array oracle."""

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_every_move_between_the_h_and_a_files_of_neighbouring_ranks(self, options):
        moves = list(_row_end_moves())
        # 14 pairs of squares, both ways, 12 movers, 3 target cells
        assert len(moves) == 14 * 2 * 12 * 3
        rights = set()
        for fen, move in moves:
            string, _, array = _both_paths(fen, move, options)
            assert string == array, (fen, move)
            if not string.startswith("<"):
                rights.add(string.split()[2])
        # each corner's right is dropped by some move that leaves or takes it
        assert {"Qkq", "Kkq", "KQq", "KQk"} <= rights

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_every_en_passant_move_onto_the_a_and_h_files(self, options):
        moves = list(_en_passant_at_row_ends())
        assert len(moves) == 4 * 2 + 4 * 4
        for fen, move, pawn_beside in moves:
            string, special, array = _both_paths(fen, move, options)
            assert string == array, (fen, move)
            if pawn_beside is None:
                assert special == "en-passant-capture", (fen, move)
            elif options.ep_mode == "adjacent-only":
                # a pawn across the row end is no neighbour
                assert (string.split()[3] != "-") == pawn_beside, (fen, move)


class TestPromotion:
    def test_promotion_replaces_pawn(self):
        outcome = apply_move("8/4P3/8/8/8/8/8/8 w - - 0 1", "e7e8q")
        assert outcome.fen_after == "4Q3/8/8/8/8/8/8/8 b - - 0 1"
        assert outcome.special == "promotion"
        assert outcome.was_pawn_move

    def test_black_promotion_lowercase(self):
        outcome = apply_move("8/8/8/8/8/8/4p3/8 b - - 0 9", "e2e1n")
        assert outcome.fen_after == "8/8/8/8/8/8/8/4n3 w - - 0 10"

    def test_missing_promotion(self):
        with pytest.raises(MissingPromotionError):
            apply_move("8/4P3/8/8/8/8/8/8 w - - 0 1", "e7e8")

    def test_promotion_suffix_on_non_pawn(self):
        with pytest.raises(BadPromotionPieceError):
            apply_move("8/4R3/8/8/8/8/8/8 w - - 0 1", "e7e8q")


class TestApplyErrors:
    def test_empty_origin(self):
        with pytest.raises(EmptyOriginError):
            apply_move(FIG1_FEN, "a3b4")

    def test_wrong_color(self):
        with pytest.raises(WrongColorError):
            apply_move(FIG1_FEN, "h6h5")  # black king, white to move

    def test_friendly_capture_strict_only(self):
        fen = "4k3/8/8/8/8/8/8/4K2R w - - 0 1"
        assert apply_move(fen, "e1h1").was_capture  # lenient transcription
        with pytest.raises(FriendlyCaptureError):
            apply_move(fen, "e1h1", ApplyOptions(validation="strict"))

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


class TestCastlingRights:
    KQKQ = "KQkq"

    def test_king_move_clears_both(self):
        rights = update_castling_rights(
            self.KQKQ, Piece("K", "w"), Square.from_name("e1"), Square.from_name("e2")
        )
        assert rights == "kq"

    def test_rook_from_h1(self):
        rights = update_castling_rights(
            self.KQKQ, Piece("R", "w"), Square.from_name("h1"), Square.from_name("h5")
        )
        assert rights == "Qkq"

    def test_capture_on_corner(self):
        rights = update_castling_rights(
            "K",
            Piece("N", "b"),
            Square.from_name("g3"),
            Square.from_name("h1"),
            captured=Piece("R", "w"),
        )
        assert rights == "-"

    def test_quiet_landing_on_corner_keeps_right(self):
        rights = update_castling_rights(
            "k",
            Piece("N", "w"),
            Square.from_name("g6"),
            Square.from_name("h8"),
            captured=None,
        )
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
        after = update_castling_rights(
            rights, Piece.from_letter(mover), Square.from_name(src), Square.from_name(dst),
            captured,
        )
        assert after is rights


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

    @pytest.mark.parametrize(
        "call, field, value",
        [
            (lambda: parse_fen(START_FEN, "Strict"), "validation", "Strict"),
            (lambda: board_from_fen(START_FEN, "strict "), "validation", "strict "),
            (lambda: update_clocks(0, 1, Piece("R", "w"), False, "Frozen"), "clock_mode", "Frozen"),
            (
                lambda: derive_en_passant(
                    ("8", "8", "8", "8", "4P3", "8", "8", "8"), Piece("P", "w"),
                    Square.from_name("e2"), Square.from_name("e4"), "Always",
                ),
                "ep_mode",
                "Always",
            ),
            # the mode is checked for every move, not only for a double push
            (
                lambda: derive_en_passant(
                    ("8",) * 8, Piece("N", "w"), Square.from_name("g1"),
                    Square.from_name("f3"), "bogus",
                ),
                "ep_mode",
                "bogus",
            ),
        ],
        ids=["parse_fen", "board_from_fen", "update_clocks", "derive_en_passant",
             "derive_en_passant-knight"],
    )
    def test_unknown_argument_rejected_where_read(self, call, field, value):
        # each function checks the option it takes, with the
        # message ApplyOptions gives
        with pytest.raises(BadOptionError) as exc:
            call()
        with pytest.raises(BadOptionError) as built:
            ApplyOptions(**{field: value})
        assert str(exc.value) == str(built.value)


class TestDeriveEnPassant:
    RANK5_PP = ("8", "8", "8", "3Pp3", "8", "8", "8", "8")

    def test_black_double_push_with_neighbor(self):
        for mode in ("always", "adjacent-only"):
            target = derive_en_passant(
                self.RANK5_PP,
                Piece("P", "b"),
                Square.from_name("e7"),
                Square.from_name("e5"),
                mode,
            )
            assert target == Square.from_name("e6")

    def test_non_pawn(self):
        placement = ("8", "8", "8", "8", "R7", "8", "8", "8")
        for mode in ("always", "adjacent-only"):
            assert (
                derive_en_passant(
                    placement, Piece("R", "w"), Square.from_name("a1"), Square.from_name("a4"), mode
                )
                is None
            )

    def test_lonely_double_push_mode_split(self):
        placement = ("8", "8", "8", "8", "4P3", "8", "8", "8")
        args = (placement, Piece("P", "w"), Square.from_name("e2"), Square.from_name("e4"))
        assert derive_en_passant(*args, "adjacent-only") is None
        assert derive_en_passant(*args, "always") == Square.from_name("e3")

    def test_target_is_the_shared_square(self):
        placement = ("8", "8", "8", "8", "4P3", "8", "8", "8")
        args = (placement, Piece("P", "w"), Square.from_name("e2"), Square.from_name("e4"))
        assert derive_en_passant(*args, "always") is SQUARES["e3"]

    def test_friendly_neighbor_does_not_count(self):
        placement = ("8", "8", "8", "8", "3PP3", "8", "8", "8")
        assert (
            derive_en_passant(
                placement,
                Piece("P", "w"),
                Square.from_name("e2"),
                Square.from_name("e4"),
                "adjacent-only",
            )
            is None
        )


class TestClocks:
    def test_quiet_white_move(self):
        assert update_clocks(0, 1, Piece("R", "w"), False) == (1, 1)

    def test_frozen(self):
        assert update_clocks(0, 1, Piece("R", "w"), False, "frozen") == (0, 1)

    def test_black_pawn_capture(self):
        assert update_clocks(7, 12, Piece("P", "b"), True) == (0, 13)

    def test_quiet_black_move(self):
        assert update_clocks(3, 9, Piece("N", "b"), False) == (4, 10)


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
        assert play_sequence("garbage", []) == []

    def test_bad_fen_fails_at_first_ply(self):
        with pytest.raises(SegmentCountError) as info:
            play_sequence("garbage", ["e2e4"])
        assert info.value.ply == 1

    @pytest.mark.parametrize("validation", ["lenient", "strict"])
    def test_clock_grown_past_its_digits(self, validation):
        # the first ply's fullmove number has one digit more than a FEN may
        # carry: strict rejects that ply, lenient returns it and the next
        # ply fails to read it, exactly as the oracle and apply_move do
        fen = "4k3/8/8/8/8/8/8/4K3 b - - 0 999999999"
        moves = ["e8d8", "e1d1"]
        options = ApplyOptions(validation=validation)
        with pytest.raises(BadClockError) as info:
            play_sequence(fen, moves, options)
        assert info.value.ply == (1 if validation == "strict" else 2)
        if validation == "lenient":
            after = apply_move(fen, moves[0], options).fen_after
            assert after == oracle_apply(fen, moves[0], options)
            assert after.endswith(" 1000000000")
            with pytest.raises(BadClockError):
                apply_move(after, moves[1], options)
        else:
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
    public rules give, and its text is serialize_fen of its record."""

    def test_every_ply_agrees_with_the_public_rules(self, fuzz_corpus):
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
                checked[options] += 1
                assert after.castling == update_castling_rights(
                    record.castling, mover, mv.from_square, mv.to_square, captured
                )
                assert after.en_passant is derive_en_passant(
                    after.ranks, mover, mv.from_square, mv.to_square, options.ep_mode
                )
                assert (after.halfmove, after.fullmove) == update_clocks(
                    record.halfmove, record.fullmove, mover, outcome.was_capture,
                    options.clock_mode,
                )
                assert outcome.fen_after == serialize_fen(after)
        # every combination, strict ones included, checks thousands of plies
        assert min(checked.values()) > 1000, checked

    def test_the_kernel_calls_no_checked_wrapper(self, monkeypatch):
        from fenstring import fen_codec, move_apply

        def wrapper_must_not_run(*args):
            raise AssertionError("a checked wrapper ran on the kernel's path")

        for module, name in [(move_apply, "update_castling_rights"),
                             (move_apply, "derive_en_passant"),
                             (move_apply, "update_clocks"),
                             (fen_codec, "serialize_fen")]:
            monkeypatch.setattr(module, name, wrapper_must_not_run)
        # double pushes under both ep modes, a castle, an en-passant capture
        # and a promotion
        moves = ["e2e4", "d7d5", "e4d5", "c7c5", "d5c6", "g8f6", "c6b7", "e7e5",
                 "b7a8q", "f8e7", "g1f3", "e8g8"]
        for options in ALL_OPTIONS:
            fens = play_sequence(START_FEN, moves, options)
            assert fens[-1].split()[:3] == ["Qnbq1rk1/p3bppp/5n2/4p3/8/5N2/PPPP1PPP/RNBQKB1R",
                                            "w", "KQ"]


class TestRecordContract:
    """FenRecord and ApplyOutcome are immutable, hashable records with named
    fields, built by keyword or by position."""

    def test_fields_cannot_be_assigned(self):
        record = parse_fen(START_FEN)
        outcome = apply_move(START_FEN, "e2e4")
        with pytest.raises(AttributeError):
            record.side = "b"
        with pytest.raises(AttributeError):
            outcome.fen_after = START_FEN

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
            en_passant=Square.from_name("e3"),
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

    def test_segments_touched_is_a_frozenset(self):
        assert type(apply_move(START_FEN, "e2e4").segments_touched) is frozenset
        assert type(apply_move(FIG1_FEN, "f7c7").segments_touched) is frozenset
