import ast
import inspect

import pytest
from hypothesis import given, settings

from fenstring import (
    ApplyOptions,
    BoardArray,
    Piece,
    Square,
    apply_move,
    board_from_fen,
    cell_index,
    fen_from_board,
    oracle,
    oracle_apply,
    parse_fen,
    piece_at,
    random_pseudo_move,
    serialize_fen,
    START_FEN,
)
from fenstring.errors import (
    BadPieceLetterError,
    EmptyOriginError,
    FenSyntaxError,
    NoPiecesError,
    WrongColorError,
)

from conftest import EMPTY_FEN, FIG1_FEN, fens

FROZEN = ApplyOptions(clock_mode="frozen")


class TestBoardFromFen:
    def test_fig1_cell_9_black_bishop(self):
        board = board_from_fen(FIG1_FEN)
        assert board.cells[9] == Piece("B", "b")  # b7

    def test_fig1_cell_63_black_knight(self):
        assert board_from_fen(FIG1_FEN).cells[63] == Piece("N", "b")  # h1

    def test_empty_board(self):
        assert board_from_fen(EMPTY_FEN).cells == [None] * 64

    def test_cell_index_layout(self):
        assert cell_index(Square.from_name("a8")) == 0
        assert cell_index(Square.from_name("b7")) == 9
        assert cell_index(Square.from_name("h1")) == 63


class TestFenFromBoard:
    @pytest.mark.parametrize("fen", [FIG1_FEN, EMPTY_FEN, START_FEN, "8/8/8/8/8/8/8/8 b - - 0 1"])
    def test_round_trip(self, fen):
        assert fen_from_board(board_from_fen(fen)) == fen

    @pytest.mark.parametrize("castling, canonical", [
        ("qkQK", "KQkq"), ("kK", "Kk"), ("qQ", "Qq"), ("qk", "kq"), ("KQkq", "KQkq"), ("-", "-"),
    ])
    def test_writes_the_canonical_castling_field(self, castling, canonical):
        board = board_from_fen(START_FEN)
        board.castling = castling
        fen = fen_from_board(board)
        assert fen == START_FEN.replace("KQkq", canonical)
        # as the string path's writer writes the same fields
        assert fen == serialize_fen(parse_fen(START_FEN)._replace(castling=castling))

    def test_side_is_checked_before_castling(self):
        board = board_from_fen(START_FEN)
        board.side, board.castling = "x", "qkQK"
        with pytest.raises(FenSyntaxError) as info:
            fen_from_board(board)
        assert info.value.code == "BadSideChar"
        board.side, board.castling = "b", "KK"
        with pytest.raises(FenSyntaxError) as info:
            fen_from_board(board)
        assert info.value.code == "BadCastlingField"

    def test_hand_built_board_with_fresh_pieces(self):
        # pieces built here, as oracle_apply builds a promoted piece, not the
        # shared ones that parsing hands out
        cells = [None] * 64
        for name, kind, color in [("g8", "N", "w"), ("e8", "K", "b"), ("a7", "P", "b"),
                                  ("h7", "R", "b"), ("d4", "P", "w"), ("e1", "K", "w"),
                                  ("b1", "Q", "b"), ("h1", "R", "w")]:
            cells[cell_index(Square.from_name(name))] = Piece(kind, color)
        board = BoardArray(cells, "b", "K", Square.from_name("d3"), 0, 57)
        assert fen_from_board(board) == "4k1N1/p6r/8/8/3P4/8/8/1q2K2R b K d3 0 57"

    @pytest.mark.parametrize("cells", [
        pytest.param([None] * 63, id="63-cells"),
        pytest.param([None] * 65, id="65-cells"),
        pytest.param([], id="no-cells"),
        pytest.param((None,) * 64, id="tuple"),
        pytest.param([None] * 63 + ["K"], id="letter-cell"),
        pytest.param([None] * 63 + [("K", "w")], id="tuple-cell"),
    ])
    def test_rejects_cells_that_are_not_64_pieces_or_none(self, cells):
        with pytest.raises(FenSyntaxError):
            fen_from_board(BoardArray(cells, "w", "-", None, 0, 1))

    @pytest.mark.parametrize("field, value, code", [
        ("side", "q", "BadSideChar"),
        ("side", None, "BadSideChar"),
        ("side", "w b", "SegmentCount"),
        ("castling", "X", "BadCastlingField"),
        ("castling", "KK", "BadCastlingField"),
        ("castling", None, "BadCastlingField"),
        ("en_passant", Square.from_name("e4"), "BadEnPassantField"),
        ("en_passant", "e3", "Syntax"),
        ("halfmove", -5, "BadClock"),
        ("halfmove", None, "BadClock"),
        ("fullmove", 0, "BadClock"),
        ("fullmove", 10**9, "BadClock"),
    ])
    def test_rejects_trailer_fields_the_parser_rejects(self, field, value, code):
        board = board_from_fen(START_FEN)
        setattr(board, field, value)
        with pytest.raises(FenSyntaxError) as info:
            fen_from_board(board)
        assert info.value.code == code

    def test_a_piece_of_no_kind_or_colour_cannot_be_built(self):
        for kind, color in (("X", "w"), ("K", "z")):
            with pytest.raises(BadPieceLetterError):
                Piece(kind, color)


@settings(max_examples=200)
@given(fens())
def test_round_trip_agrees_with_the_string_codec(fen):
    assert fen_from_board(board_from_fen(fen)) == serialize_fen(parse_fen(fen))


# the string path's placement-rewrite helpers, which the oracle must not use
_REWRITE_HELPERS = {"_write_slot", "_SEGMENT_PLANS", "_SHAPES", "expand_runs", "expand_rank",
                    "contract_rank"}
# all the oracle takes from move_apply: the option and move-argument checks
_FROM_MOVE_APPLY = {"ApplyOptions", "_check_options", "_read_move"}


def test_oracle_shares_no_placement_code_with_the_string_path():
    nodes = list(ast.walk(ast.parse(inspect.getsource(oracle))))
    imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
    # a package module imported whole would reach every helper by attribute
    assert not [alias.name for node in imports if isinstance(node, ast.Import)
                for alias in node.names if alias.name.startswith("fenstring")]
    assert not [node for node in imports
                if isinstance(node, ast.ImportFrom) and node.module in (None, "fenstring")]
    used = {alias.name for node in imports for alias in node.names}
    used |= {node.id for node in nodes if isinstance(node, ast.Name)}
    used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert not used & _REWRITE_HELPERS
    from_move_apply = {alias.name for node in imports if isinstance(node, ast.ImportFrom)
                       and node.module in ("move_apply", "fenstring.move_apply")
                       for alias in node.names}
    assert from_move_apply and from_move_apply <= _FROM_MOVE_APPLY
    # the oracle reads its FEN with the string path's parser, not its own
    assert "parse_fen" in used


class TestOracleApply:
    def test_table_examples(self):
        assert (
            oracle_apply(FIG1_FEN, "f7f6", FROZEN)
            == "7N/1b4N1/5R1k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1"
        )
        assert (
            oracle_apply(FIG1_FEN, "f7c7", FROZEN)
            == "7N/1bR3N1/7k/6b1/KBp4p/5q2/6Q1/7n b - - 0 1"
        )

    def test_knight_development(self):
        assert (
            oracle_apply(START_FEN, "g1f3")
            == "rnbqkbnr/pppppppp/8/8/8/5N2/PPPPPPPP/RNBQKB1R b KQkq - 1 1"
        )

    def test_same_errors_as_string_path(self):
        with pytest.raises(EmptyOriginError):
            oracle_apply(FIG1_FEN, "a3b4")
        with pytest.raises(WrongColorError):
            oracle_apply(FIG1_FEN, "h6h5")


# a rook leaving each corner, a rook capturing on each, and each king
# stepping, from a position holding all four rights: (side, move, rights left)
_RIGHTS_CASES = [
    ("w", "a1a2", "Kkq"), ("w", "h1h2", "Qkq"), ("w", "a1a8", "Kk"), ("w", "h1h8", "Qq"),
    ("b", "a8a7", "KQk"), ("b", "h8h7", "KQq"), ("b", "a8a1", "Kk"), ("b", "h8h1", "Qq"),
    ("w", "e1e2", "kq"), ("b", "e8e7", "KQ"),
]
# double pushes under adjacent-only: (placement, side, move, en-passant field);
# a pawn two files off, an own pawn or an enemy piece beside it sets none
_DOUBLE_PUSHES = [
    ("4k3/8/8/8/3p4/8/4P3/4K3", "w", "e2e4", "e3"),
    ("4k3/8/8/8/5p2/8/4P3/4K3", "w", "e2e4", "e3"),
    ("4k3/8/8/8/2p3p1/8/4P3/4K3", "w", "e2e4", "-"),
    ("4k3/8/8/8/3P1n2/8/4P3/4K3", "w", "e2e4", "-"),
    ("4k3/8/8/8/1p6/8/P7/4K3", "w", "a2a4", "a3"),
    ("4k3/8/8/8/6p1/8/7P/4K3", "w", "h2h4", "h3"),
    ("4k3/8/8/8/p7/8/7P/4K3", "w", "h2h4", "-"),
    ("4k3/3p4/8/4P3/8/8/8/4K3", "b", "d7d5", "d6"),
    ("4k3/3p4/8/1P3P2/8/8/8/4K3", "b", "d7d5", "-"),
]


class TestRulesByCell:
    """The rules the oracle finds by cell arithmetic, pinned square by
    square: the acceptance fuzz reaches these cells too rarely."""

    @pytest.mark.parametrize("side,move,rights", _RIGHTS_CASES)
    def test_rights_lost_at_each_corner(self, side, move, rights):
        fen = f"r3k2r/8/8/8/8/8/8/R3K2R {side} KQkq - 0 1"
        after = oracle_apply(fen, move)
        assert after.split()[2] == rights
        assert after == apply_move(fen, move).fen_after

    @pytest.mark.parametrize("placement,side,move,ep", _DOUBLE_PUSHES)
    def test_adjacent_only_en_passant_square(self, placement, side, move, ep):
        fen = f"{placement} {side} - - 0 1"
        options = ApplyOptions(ep_mode="adjacent-only")
        after = oracle_apply(fen, move, options)
        assert after.split()[3] == ep
        assert after == apply_move(fen, move, options).fen_after


class TestRandomPseudoMove:
    def test_deterministic(self):
        assert random_pseudo_move(START_FEN, 17) == random_pseudo_move(START_FEN, 17)

    def test_lone_king_origin(self):
        for seed in range(50):
            move = random_pseudo_move("8/8/8/8/8/8/8/K7 w - - 0 1", seed)
            assert move[:2] == "a1"

    def test_no_pieces(self):
        with pytest.raises(NoPiecesError):
            random_pseudo_move("8/8/8/8/8/8/8/K7 b - - 0 1", 3)

    def test_origin_distribution_smoke(self):
        record = parse_fen(START_FEN)
        for seed in range(10000):
            move = random_pseudo_move(START_FEN, seed)
            piece = piece_at(record, Square.from_name(move[:2]))
            assert piece is not None and piece.color == "w"

    def test_moves_satisfy_apply_preconditions(self, fuzz_corpus):
        # the corpus was built by applying every generated move; spot-check
        # that promotion suffixes appear exactly when required
        for fen, move, outcome in fuzz_corpus[:3000]:
            if outcome.special == "promotion":
                assert move[-1] in "qrbn"


@settings(max_examples=50)
@given(fens())
def test_cells_agree_with_piece_at(fen):
    record = parse_fen(fen)
    board = board_from_fen(fen)
    for file in range(8):
        for rank in range(1, 9):
            sq = Square(file, rank)
            assert board.cells[cell_index(sq)] == piece_at(record, sq)


def test_differential_spot_checks(fuzz_corpus):
    options = ApplyOptions()
    for fen, move, outcome in fuzz_corpus[:3000]:
        assert oracle_apply(fen, move, options) == outcome.fen_after
