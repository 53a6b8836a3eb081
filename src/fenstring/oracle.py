"""Array-based reference implementation used as a differential oracle.

The board is a flat 64-cell mailbox indexed 0 (a8) row-major to 63 (h1):
the classic FEN -> array -> FEN pipeline. oracle_apply's mailbox is the
expanded placement text as a list of 71 cells: each row's 8 letters, '.'
for an empty cell, a piece's colour read from its letter's case and its
kind by upper-casing, and a '/' cell closing each of the first seven
rows, so square (file, rank) is cell (8 - rank) * 9 + file. Each
conversion is in bulk, through two helpers: _expanded writes the parsed
placement's segments out with the oracle's own run table, and _contracted
folds each run of '.' back into its digit with its own replace table;
board_from_fen and fen_from_board map the same text to and from the 64
Piece cells. The specials logic (castling, en passant, promotion, rights,
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
# each run of empty cells ('.' per cell) and its digit, longest run first,
# so that each run is contracted whole
_EMPTY_RUNS = tuple(("." * n, str(n)) for n in range(8, 0, -1))
# where the '/' cells go into a row-major list of 64 letters, last row first
# so that each insert leaves the positions of the ones before it as they are
_ROW_ENDS = range(56, 0, -8)
# what a cell may hold, checked over all 64 by one issuperset(map(type, ...))
_CELL_TYPES = frozenset((Piece, type(None)))
# the corner cells of the 71-cell text and the castling right each hosts
_CORNER_RIGHTS = {70: "K", 63: "Q", 7: "k", 0: "q"}
# (from rank, to rank) of each pawn double step, either way
_DOUBLE_STEPS = frozenset(((2, 4), (4, 2), (5, 7), (7, 5)))


def cell_index(square: Square) -> int:
    if not isinstance(square, Square):
        raise BadSquareError(f"a square must be a Square, got {type(square).__name__}")
    return (8 - square.rank) * 8 + square.file


def _expanded(ranks) -> str:
    """The 71-cell text of a parsed placement's segments, a8 first: each
    piece its FEN letter, each empty cell '.', each row but the last
    closed by '/'."""
    text = "/".join(ranks)
    for digit, run in _RUN_CELLS:
        text = text.replace(digit, run)
    return text


def _contracted(text: str) -> str:
    """The FEN placement field of a 71-cell text."""
    for run, digit in _EMPTY_RUNS:
        text = text.replace(run, digit)
    return text


def board_from_fen(fen: str, validation: str = "lenient") -> BoardArray:
    """Build the mailbox array from a FEN string."""
    record = parse_fen(fen, validation)
    cells = list(map(_PIECE_OF_LETTER.get, _expanded(record.ranks).replace("/", "")))
    return BoardArray(
        cells, record.side, record.castling, record.en_passant, record.halfmove, record.fullmove
    )


def fen_from_board(board: BoardArray) -> str:
    """Serialize the mailbox array back to FEN, a8 to h1, each trailer field
    written as parse_fen reads it (castling "qkQK" as "KQkq")."""
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
    letters = ["." if piece is None else piece.letter for piece in cells]
    for row_end in _ROW_ENDS:
        letters.insert(row_end, "/")
    placement = _contracted("".join(letters))
    ep = board.en_passant.name if board.en_passant else "-"
    # the trailer fields, as text, must pass the FEN grammar; what it reads
    # from them is written back
    _, side, castling, _, halfmove, fullmove = parse_fen(
        f"{placement} {board.side} {board.castling} {ep} {board.halfmove} {board.fullmove}"
    )
    return f"{placement} {side} {castling} {ep} {halfmove} {fullmove}"


def oracle_apply(fen: str, move, options: ApplyOptions = ApplyOptions()) -> str:
    """Apply a move through the array path and return the updated FEN.

    Same semantics and error taxonomy as move_apply.apply_move, computed
    entirely on the mailbox: a list of the expanded placement's 71 cells.
    """
    _check_options(options)
    ranks, side, castling, en_passant, halfmove, fullmove = parse_fen(fen, options.validation)
    from_sq, to_sq, promotion = _read_move(move)
    from_file, from_rank, to_file, to_rank = from_sq.file, from_sq.rank, to_sq.file, to_sq.rank
    from_i, to_i = (8 - from_rank) * 9 + from_file, (8 - to_rank) * 9 + to_file
    cells = list(_expanded(ranks))

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
    if is_pawn and to_rank in (1, 8) and promotion is None:
        raise MissingPromotionError(f"pawn reaches {to_sq.name} without promotion piece")
    if promotion is not None and not (is_pawn and to_rank in (1, 8)):
        raise BadPromotionPieceError("promotion suffix only valid for a pawn reaching rank 1/8")

    # move the piece in the mailbox
    cells[from_i] = "."
    if promotion is not None:
        cells[to_i] = promotion if white else promotion.lower()
    else:
        cells[to_i] = mover

    if (
        kind == "K"
        and from_rank == to_rank
        and to_rank in (1, 8)
        and abs(from_file - to_file) == 2
        and to_file in (2, 6)
    ):
        kingside = to_file == 6
        corner_i, rook_to_i = (to_i + 1, to_i - 1) if kingside else (to_i - 2, to_i + 1)
        rook = cells[corner_i]
        if rook != ("R" if white else "r"):
            raise BadCastleError(
                f"no rook of the mover's color on {'h' if kingside else 'a'}{to_rank}"
            )
        cells[corner_i] = "."
        cells[rook_to_i] = rook
    elif (
        is_pawn
        and en_passant is not None
        and to_sq == en_passant
        and abs(from_file - to_file) == 1
        and abs(from_rank - to_rank) == 1
    ):
        # the victim stands on the origin's rank, in the destination's file
        cells[from_i - from_file + to_file] = "."
        was_capture = True

    # castling rights, recomputed independently of the string path
    lost = ("KQ" if white else "kq") if kind == "K" else ""
    if kind == "R":
        lost += _CORNER_RIGHTS.get(from_i, "")
    if captured != ".":
        lost += _CORNER_RIGHTS.get(to_i, "")
    for right in lost:
        castling = castling.replace(right, "")

    # en-passant target
    ep = "-"
    if is_pawn and from_file == to_file and (from_rank, to_rank) in _DOUBLE_STEPS:
        target = f"{to_sq.name[0]}{(from_rank + to_rank) // 2}"
        if options.ep_mode == "always":
            ep = target
        else:
            row_i = to_i - to_file
            enemy_pawn = "p" if white else "P"
            for f in (to_file - 1, to_file + 1):
                if 0 <= f <= 7 and cells[row_i + f] == enemy_pawn:
                    ep = target

    # clocks
    if options.clock_mode != "frozen":
        halfmove = 0 if (is_pawn or was_capture) else halfmove + 1
        if not white:
            fullmove += 1

    fen_after = (f"{_contracted(''.join(cells))} {BLACK if white else WHITE} {castling or '-'} "
                 f"{ep} {halfmove} {fullmove}")
    if options.validation == "strict":
        parse_fen(fen_after, "strict")
    return fen_after
