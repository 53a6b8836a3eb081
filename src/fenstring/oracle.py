"""Array-based reference implementation used as a differential oracle.

The board is a flat 64-cell mailbox indexed 0 (a8) row-major to 63 (h1).
Moves are processed in the array and the result serialized back to FEN,
the classic FEN -> array -> FEN pipeline, each conversion in bulk:
board_from_fen maps every placement character to the cells it covers and
chains them into the 64-cell list; fen_from_board joins one letter per
cell, cuts the text into rows and contracts the empty runs with its own
replace table. The specials logic (castling, en passant, promotion,
rights, clocks) is intentionally written out again here instead of
calling the string-path helpers, so the two implementations share no
placement code and can check each other. The oracle reads a FEN with
parse_fen and a move with _read_move, as the string path does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Optional

from .errors import (
    BadCastleError,
    BadPromotionPieceError,
    BadSquareError,
    EmptyOriginError,
    FenSyntaxError,
    FriendlyCaptureError,
    MissingPromotionError,
    WrongColorError,
)
from .fen_codec import (
    BLACK,
    PIECE_LETTERS,
    WHITE,
    Piece,
    Square,
    parse_fen,
)
from .move_apply import ApplyOptions, _check_options, _read_move


@dataclass
class BoardArray:
    cells: List[Optional[Piece]]  # 64 entries, 0 = a8 ... 63 = h1
    side: str
    castling: str  # canonical "KQkq" order, or "-"
    en_passant: Optional[Square]
    halfmove: int
    fullmove: int


# each placement character -> the cells it covers: a piece letter its
# shared Piece, a run digit that many empty cells
_CELLS_OF = {
    **{letter: (Piece.from_letter(letter),) for letter in PIECE_LETTERS},
    **{str(n): (None,) * n for n in range(1, 9)},
}
# the 8 rows of the 64-letter text, a8 first
_ROWS = tuple(slice(start, start + 8) for start in range(0, 64, 8))
# each run of empty cells ('.' per cell) and its digit, longest run first,
# so that each run is contracted whole
_EMPTY_RUNS = tuple(("." * n, str(n)) for n in range(8, 0, -1))
# what a cell may hold, checked over all 64 by one issuperset(map(type, ...))
_CELL_TYPES = frozenset((Piece, type(None)))
# the corner cells and the castling right each hosts
_CORNER_RIGHTS = {63: "K", 56: "Q", 7: "k", 0: "q"}


def cell_index(square: Square) -> int:
    if not isinstance(square, Square):
        raise BadSquareError(f"a square must be a Square, got {type(square).__name__}")
    return (8 - square.rank) * 8 + square.file


def board_from_fen(fen: str, validation: str = "lenient") -> BoardArray:
    """Build the mailbox array from a FEN string."""
    record = parse_fen(fen, validation)
    cells = list(chain.from_iterable(map(_CELLS_OF.__getitem__, "".join(record.ranks))))
    return BoardArray(
        cells, record.side, record.castling, record.en_passant, record.halfmove, record.fullmove
    )


def fen_from_board(board: BoardArray) -> str:
    """Serialize the mailbox array back to FEN, a8 to h1."""
    if not isinstance(board, BoardArray):
        raise FenSyntaxError(f"a board must be a BoardArray, got {type(board).__name__}")
    cells = board.cells
    if not isinstance(cells, list):
        raise FenSyntaxError(f"a board's cells must be a list, got {type(cells).__name__}")
    if len(cells) != 64:
        raise FenSyntaxError(f"a board must have 64 cells, got {len(cells)}")
    if not _CELL_TYPES.issuperset(map(type, cells)):
        raise FenSyntaxError("a board's cells must each hold a Piece or None")
    if not isinstance(board.en_passant, (Square, type(None))):
        raise FenSyntaxError(
            f"a board's en-passant square must be a Square or None, "
            f"got {type(board.en_passant).__name__}"
        )
    fen = _serialize(board)
    parse_fen(fen)  # the trailer fields, as text, must pass the FEN grammar
    return fen


def _serialize(board: BoardArray) -> str:
    """fen_from_board without the argument checks, for a board built here."""
    letters = "".join(["." if piece is None else piece.letter for piece in board.cells])
    placement = "/".join(map(letters.__getitem__, _ROWS))
    for run, digit in _EMPTY_RUNS:
        placement = placement.replace(run, digit)
    ep = board.en_passant.name if board.en_passant else "-"
    return f"{placement} {board.side} {board.castling} {ep} {board.halfmove} {board.fullmove}"


def oracle_apply(fen: str, move, options: ApplyOptions = ApplyOptions()) -> str:
    """Apply a move through the array path and return the updated FEN.

    Same semantics and error taxonomy as move_apply.apply_move, computed
    entirely on the 64-cell array.
    """
    _check_options(options)
    board = board_from_fen(fen, options.validation)
    from_sq, to_sq, promotion = _read_move(move)
    from_i, to_i = cell_index(from_sq), cell_index(to_sq)
    cells = board.cells

    mover = cells[from_i]
    if mover is None:
        raise EmptyOriginError(f"no piece on {from_sq.name}")
    if mover.color != board.side:
        raise WrongColorError(f"piece on {from_sq.name} is not {board.side!r} to move")

    captured = cells[to_i]
    if captured and options.validation == "strict" and captured.color == mover.color:
        raise FriendlyCaptureError(f"own piece on {to_sq.name}")
    was_capture = captured is not None

    is_pawn = mover.kind == "P"
    if is_pawn and to_sq.rank in (1, 8) and promotion is None:
        raise MissingPromotionError(f"pawn reaches {to_sq.name} without promotion piece")
    if promotion is not None and not (is_pawn and to_sq.rank in (1, 8)):
        raise BadPromotionPieceError("promotion suffix only valid for a pawn reaching rank 1/8")

    # move the piece in the array
    cells[from_i] = None
    if promotion is not None:
        cells[to_i] = Piece(promotion, mover.color)
    else:
        cells[to_i] = mover

    if (
        mover.kind == "K"
        and from_sq.rank == to_sq.rank
        and to_sq.rank in (1, 8)
        and abs(from_sq.file - to_sq.file) == 2
        and to_sq.file in (2, 6)
    ):
        kingside = to_sq.file == 6
        corner_i, rook_to_i = (to_i + 1, to_i - 1) if kingside else (to_i - 2, to_i + 1)
        rook = cells[corner_i]
        if rook is None or rook.kind != "R" or rook.color != mover.color:
            raise BadCastleError(
                f"no rook of the mover's color on {'h' if kingside else 'a'}{to_sq.rank}"
            )
        cells[corner_i] = None
        cells[rook_to_i] = rook
    elif (
        is_pawn
        and board.en_passant is not None
        and to_sq == board.en_passant
        and abs(from_sq.file - to_sq.file) == 1
        and abs(from_sq.rank - to_sq.rank) == 1
    ):
        # the victim stands on the origin's rank, in the destination's file
        cells[from_i - from_sq.file + to_sq.file] = None
        was_capture = True

    # castling rights, recomputed independently of the string path
    lost = ("KQ" if mover.color == WHITE else "kq") if mover.kind == "K" else ""
    if mover.kind == "R":
        lost += _CORNER_RIGHTS.get(from_i, "")
    if captured is not None:
        lost += _CORNER_RIGHTS.get(to_i, "")
    castling = board.castling
    for right in lost:
        castling = castling.replace(right, "")

    # en-passant target
    new_ep = None
    if is_pawn and from_sq.file == to_sq.file and {from_sq.rank, to_sq.rank} in ({2, 4}, {5, 7}):
        target = Square(to_sq.file, (from_sq.rank + to_sq.rank) // 2)
        if options.ep_mode == "always":
            new_ep = target
        else:
            row_i = to_i - to_sq.file
            for f in (to_sq.file - 1, to_sq.file + 1):
                if 0 <= f <= 7:
                    neighbor = cells[row_i + f]
                    if (
                        neighbor is not None
                        and neighbor.kind == "P"
                        and neighbor.color != mover.color
                    ):
                        new_ep = target

    # clocks
    if options.clock_mode != "frozen":
        board.halfmove = 0 if (is_pawn or was_capture) else board.halfmove + 1
        if mover.color == BLACK:
            board.fullmove += 1

    board.side = BLACK if board.side == WHITE else WHITE
    board.castling = castling or "-"
    board.en_passant = new_ep
    fen_after = _serialize(board)
    if options.validation == "strict":
        parse_fen(fen_after, "strict")
    return fen_after
