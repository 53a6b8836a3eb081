import ast
import inspect

import pytest
from hypothesis import given, settings

from fenstring import (
    ApplyOptions,
    BoardArray,
    Piece,
    Square,
    board_from_fen,
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
    FenSyntaxError,
    NoPiecesError,
    ValidationError,
)

from conftest import EMPTY_FEN, FIG1_FEN, fens


class TestBoardFromFen:
    def test_fig1_cell_9_black_bishop(self):
        board = board_from_fen(FIG1_FEN)
        assert board.cells[9] == Piece("B", "b")  # b7

    def test_fig1_cell_63_black_knight(self):
        assert board_from_fen(FIG1_FEN).cells[63] == Piece("N", "b")  # h1

    def test_empty_board(self):
        assert board_from_fen(EMPTY_FEN).cells == [None] * 64

    def test_cell_index_layout(self):
        # row-major from a8: cell 0 is a8, 9 is b7 and 63 is h1
        cells = board_from_fen("q7/1n6/8/8/8/8/8/7K w - - 0 1").cells
        assert (cells[0], cells[9], cells[63]) == (Piece("Q", "b"), Piece("N", "b"), Piece("K", "w"))
        assert cells.count(None) == 61


class TestFenFromBoard:
    @pytest.mark.parametrize("fen", [FIG1_FEN, EMPTY_FEN, START_FEN, "8/8/8/8/8/8/8/8 b - - 0 1"])
    def test_round_trip(self, fen):
        assert fen_from_board(board_from_fen(fen)) == fen

    @pytest.mark.parametrize("castling, canonical", [
        ("qkQK", "KQkq"), ("kK", "Kk"), ("qQ", "Qq"), ("qk", "kq"), ("KQkq", "KQkq"), ("-", "-"),
    ])
    def test_writes_the_canonical_castling_field(self, castling, canonical):
        fen = fen_from_board(board_from_fen(START_FEN)._replace(castling=castling))
        assert fen == START_FEN.replace("KQkq", canonical)
        # as the string path's writer writes the same fields
        assert fen == serialize_fen(parse_fen(START_FEN)._replace(castling=castling))

    def test_side_is_checked_before_castling(self):
        board = board_from_fen(START_FEN)
        with pytest.raises(FenSyntaxError) as info:
            fen_from_board(board._replace(side="x", castling="qkQK"))
        assert info.value.code == "BadSideChar"
        with pytest.raises(FenSyntaxError) as info:
            fen_from_board(board._replace(side="b", castling="KK"))
        assert info.value.code == "BadCastlingField"

    def test_hand_built_board_with_fresh_pieces(self):
        # pieces built here, as oracle_apply builds a promoted piece, not the
        # shared ones that parsing hands out
        cells = [None] * 64
        for name, kind, color in [("g8", "N", "w"), ("e8", "K", "b"), ("a7", "P", "b"),
                                  ("h7", "R", "b"), ("d4", "P", "w"), ("e1", "K", "w"),
                                  ("b1", "Q", "b"), ("h1", "R", "w")]:
            square = Square.from_name(name)
            cells[(8 - square.rank) * 8 + square.file] = Piece(kind, color)
        board = BoardArray(cells, "b", "K", "d3", 0, 57)
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
        ("en_passant", "e4", "BadEnPassantField"),
        # a Square, not a square name, is written as its text, which parse_fen names
        ("en_passant", Square.from_name("e3"), "SegmentCount"),
        ("halfmove", -5, "BadClock"),
        ("halfmove", None, "BadClock"),
        ("fullmove", 0, "BadClock"),
        ("fullmove", 10**9, "BadClock"),
    ])
    def test_rejects_trailer_fields_the_parser_rejects(self, field, value, code):
        board = board_from_fen(START_FEN)._replace(**{field: value})
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


# one placement row per occupancy mask (bit f set: file f holds a piece), written
# from the FEN grammar: each piece its letter, drawn in turn from the 12, and
# each run of empty squares its digit
_PIECE_LETTERS = "KQRBNPkqrbnp"


def _row(mask):
    segment, run = "", 0
    for file in range(8):
        if mask >> file & 1:
            segment += (str(run) if run else "") + _PIECE_LETTERS[(mask + file) % 12]
            run = 0
        else:
            run += 1
    return segment + (str(run) if run else "")


@pytest.mark.parametrize("first", range(0, 256, 8))
def test_conversion_round_trips_every_occupancy_row(first):
    # the 256 masks, 8 to a placement, rank 8 first
    masks = range(first, first + 8)
    ranks = tuple(map(_row, masks))
    text = oracle._expanded(ranks)
    assert len(text) == 71
    rows = text.split("/")
    assert len(rows) == 8
    for row, mask in zip(rows, masks):
        assert len(row) == 8
        for file, cell in enumerate(row):
            if mask >> file & 1:
                assert cell == _PIECE_LETTERS[(mask + file) % 12]
            else:
                assert cell not in _PIECE_LETTERS
    assert oracle._contracted(text) == "/".join(ranks)


def test_board_round_trip_over_the_fuzz_corpus(fuzz_corpus):
    # every FEN of the chain is canonical: the string path wrote it
    for fen, _, outcome in fuzz_corpus:
        assert fen_from_board(board_from_fen(fen)) == fen
    assert fen_from_board(board_from_fen(outcome.fen_after)) == outcome.fen_after


# the string path's placement-rewrite helpers, which the oracle must not use
_REWRITE_HELPERS = {"_write_slot", "_SEGMENT_PLANS", "_SHAPES", "expand_runs", "expand_rank",
                    "contract_rank"}
# every name the oracle imports from the string path's modules, all it takes
# from move_apply being the option and move-argument checks; a new one, such
# as a placement helper borrowed for speed, must be argued for here. The FEN
# grammar is read through _read_fen, parse_fen's checks giving a plain tuple,
# so that the array path builds no FenRecord it does not hand out
_PINNED_IMPORTS = {
    "fen_codec": {"BLACK", "MAX_DIGITS", "WHITE", "Piece", "_PIECES", "_read_fen"},
    "move_apply": {"ApplyOptions", "_check_options", "_read_move"},
}


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
    imported = {module: set() for module in _PINNED_IMPORTS}
    for node in imports:
        # relative or absolute: .fen_codec or fenstring.fen_codec
        module = (getattr(node, "module", None) or "").removeprefix("fenstring.")
        imported.get(module, set()).update(alias.name for alias in node.names)
    assert imported == _PINNED_IMPORTS
    # the oracle reads its FEN with the string path's parser, not its own
    assert "_read_fen" in used
    # but it checks strict validation with its own rules: neither the
    # string path's strict checks nor its clock rule, and every call asks
    # _read_fen for the grammar only
    assert not used & {"_check_en_passant_side", "_clocks_after"}
    parses = [node for node in nodes if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "_read_fen"]
    assert parses and all(len(node.args) == 1 and not node.keywords for node in parses)


class TestOracleApply:
    def test_strict_kings_are_checked_before_edge_pawns(self):
        # two white kings and a pawn on rank 1: the king check names the error
        with pytest.raises(ValidationError, match=r"^2 'K' on the board, not exactly one$"):
            oracle_apply("KK6/8/8/8/8/8/8/P7 w - - 0 1", "a1a2", ApplyOptions(validation="strict"))


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
            assert board.cells[(8 - rank) * 8 + file] == piece_at(record, sq)


def test_differential_spot_checks(fuzz_corpus):
    options = ApplyOptions()
    for fen, move, outcome in fuzz_corpus[:3000]:
        assert oracle_apply(fen, move, options) == outcome.fen_after
