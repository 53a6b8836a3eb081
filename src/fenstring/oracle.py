"""Array-based reference implementation used as a differential oracle.

The board is a flat 64-cell mailbox indexed 0 (a8) row-major to 63 (h1):
the classic FEN -> array -> FEN pipeline. oracle_apply's mailbox is a
list of 64 letters, '.' for an empty cell, a piece's colour read from its
letter's case and its kind by upper-casing. Each conversion is in bulk,
through two helpers: _letters expands the parsed placement into the
64-letter text with the oracle's own run table, and _placement cuts that
text into rows and contracts its empty runs with its own replace table;
board_from_fen and fen_from_board map the same text to and from Piece
cells. The specials logic (castling, en passant, promotion, rights,
clocks) is intentionally written out again here instead of calling the
string-path helpers, so the two implementations share no placement code
and can check each other. The oracle reads a FEN with parse_fen and a
move with _read_move, as the string path does.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# each run digit and its empty cells, '.' per cell
_RUN_CELLS = tuple((str(n), "." * n) for n in range(1, 9))
# each cell's letter -> its shared Piece; '.' (an empty cell) is absent
_PIECE_OF_LETTER = {letter: Piece.from_letter(letter) for letter in PIECE_LETTERS}
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


def _letters(ranks) -> str:
    """The 64-letter text of a parsed placement's segments, a8 first: each
    piece its FEN letter, each empty cell '.'."""
    text = "".join(ranks)
    for digit, run in _RUN_CELLS:
        text = text.replace(digit, run)
    return text


def _placement(letters: str) -> str:
    """The FEN placement field of a 64-letter text, a8 first."""
    placement = "/".join(map(letters.__getitem__, _ROWS))
    for run, digit in _EMPTY_RUNS:
        placement = placement.replace(run, digit)
    return placement


def board_from_fen(fen: str, validation: str = "lenient") -> BoardArray:
    """Build the mailbox array from a FEN string."""
    record = parse_fen(fen, validation)
    cells = list(map(_PIECE_OF_LETTER.get, _letters(record.ranks)))
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
    placement = _placement("".join(["." if piece is None else piece.letter for piece in cells]))
    ep = board.en_passant.name if board.en_passant else "-"
    fen = f"{placement} {board.side} {board.castling} {ep} {board.halfmove} {board.fullmove}"
    parse_fen(fen)  # the trailer fields, as text, must pass the FEN grammar
    return fen


def oracle_apply(fen: str, move, options: ApplyOptions = ApplyOptions()) -> str:
    """Apply a move through the array path and return the updated FEN.

    Same semantics and error taxonomy as move_apply.apply_move, computed
    entirely on the 64-cell mailbox: a list of one letter per cell.
    """
    _check_options(options)
    record = parse_fen(fen, options.validation)
    from_sq, to_sq, promotion = _read_move(move)
    from_i, to_i = cell_index(from_sq), cell_index(to_sq)
    cells = list(_letters(record.ranks))
    side = record.side

    mover = cells[from_i]
    if mover == ".":
        raise EmptyOriginError(f"no piece on {from_sq.name}")
    white = mover.isupper()
    if white != (side == WHITE):
        raise WrongColorError(f"piece on {from_sq.name} is not {side!r} to move")
    kind = mover.upper()

    captured = cells[to_i]
    was_capture = captured != "."
    if was_capture and options.validation == "strict" and captured.isupper() == white:
        raise FriendlyCaptureError(f"own piece on {to_sq.name}")

    is_pawn = kind == "P"
    if is_pawn and to_sq.rank in (1, 8) and promotion is None:
        raise MissingPromotionError(f"pawn reaches {to_sq.name} without promotion piece")
    if promotion is not None and not (is_pawn and to_sq.rank in (1, 8)):
        raise BadPromotionPieceError("promotion suffix only valid for a pawn reaching rank 1/8")

    # move the piece in the mailbox
    cells[from_i] = "."
    if promotion is not None:
        cells[to_i] = promotion if white else promotion.lower()
    else:
        cells[to_i] = mover

    if (
        kind == "K"
        and from_sq.rank == to_sq.rank
        and to_sq.rank in (1, 8)
        and abs(from_sq.file - to_sq.file) == 2
        and to_sq.file in (2, 6)
    ):
        kingside = to_sq.file == 6
        corner_i, rook_to_i = (to_i + 1, to_i - 1) if kingside else (to_i - 2, to_i + 1)
        rook = cells[corner_i]
        if rook != ("R" if white else "r"):
            raise BadCastleError(
                f"no rook of the mover's color on {'h' if kingside else 'a'}{to_sq.rank}"
            )
        cells[corner_i] = "."
        cells[rook_to_i] = rook
    elif (
        is_pawn
        and record.en_passant is not None
        and to_sq == record.en_passant
        and abs(from_sq.file - to_sq.file) == 1
        and abs(from_sq.rank - to_sq.rank) == 1
    ):
        # the victim stands on the origin's rank, in the destination's file
        cells[from_i - from_sq.file + to_sq.file] = "."
        was_capture = True

    # castling rights, recomputed independently of the string path
    lost = ("KQ" if white else "kq") if kind == "K" else ""
    if kind == "R":
        lost += _CORNER_RIGHTS.get(from_i, "")
    if captured != ".":
        lost += _CORNER_RIGHTS.get(to_i, "")
    castling = record.castling
    for right in lost:
        castling = castling.replace(right, "")

    # en-passant target
    ep = "-"
    if is_pawn and from_sq.file == to_sq.file and {from_sq.rank, to_sq.rank} in ({2, 4}, {5, 7}):
        target = Square(to_sq.file, (from_sq.rank + to_sq.rank) // 2).name
        if options.ep_mode == "always":
            ep = target
        else:
            row_i = to_i - to_sq.file
            enemy_pawn = "p" if white else "P"
            for f in (to_sq.file - 1, to_sq.file + 1):
                if 0 <= f <= 7 and cells[row_i + f] == enemy_pawn:
                    ep = target

    # clocks
    halfmove, fullmove = record.halfmove, record.fullmove
    if options.clock_mode != "frozen":
        halfmove = 0 if (is_pawn or was_capture) else halfmove + 1
        if not white:
            fullmove += 1

    fen_after = (f"{_placement(''.join(cells))} {BLACK if white else WHITE} {castling or '-'} "
                 f"{ep} {halfmove} {fullmove}")
    if options.validation == "strict":
        parse_fen(fen_after, "strict")
    return fen_after
