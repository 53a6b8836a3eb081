"""Array-based reference implementation used as a differential oracle.

The board is a flat 64-cell mailbox indexed 0 (a8) row-major to 63 (h1).
Moves are processed in the array and the result serialized back to FEN,
the classic FEN -> array -> FEN pipeline. The specials logic (castling,
en passant, promotion, rights, clocks) is intentionally written out
again here instead of calling the string-path helpers, so the two
implementations share no placement-rewrite code and can check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import (
    BadCastleError,
    BadPromotionPieceError,
    EmptyOriginError,
    FriendlyCaptureError,
    MissingPromotionError,
    WrongColorError,
)
from .fen_codec import (
    BLACK,
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


def cell_index(square: Square) -> int:
    return (8 - square.rank) * 8 + square.file


def board_from_fen(fen: str, validation: str = "lenient") -> BoardArray:
    """Build the mailbox array from a FEN string."""
    record = parse_fen(fen, validation)
    cells: List[Optional[Piece]] = [None] * 64
    for row, segment in enumerate(record.ranks):
        col = 0
        for ch in segment:
            if ch.isdigit():
                col += int(ch)
            else:
                cells[row * 8 + col] = Piece.from_letter(ch)
                col += 1
    return BoardArray(
        cells, record.side, record.castling, record.en_passant, record.halfmove, record.fullmove
    )


def fen_from_board(board: BoardArray) -> str:
    """Serialize the mailbox array back to FEN, scanning a8 to h1."""
    segments = []
    for row in range(8):
        seg = []
        empty = 0
        for col in range(8):
            piece = board.cells[row * 8 + col]
            if piece is None:
                empty += 1
            else:
                if empty:
                    seg.append(str(empty))
                    empty = 0
                seg.append(piece.letter)
        if empty:
            seg.append(str(empty))
        segments.append("".join(seg))
    return " ".join(
        (
            "/".join(segments),
            board.side,
            board.castling,
            board.en_passant.name if board.en_passant else "-",
            str(board.halfmove),
            str(board.fullmove),
        )
    )


def oracle_apply(fen: str, move, options: ApplyOptions = ApplyOptions()) -> str:
    """Apply a move through the array path and return the updated FEN.

    Same semantics and error taxonomy as move_apply.apply_move, computed
    entirely on the 64-cell array.
    """
    _check_options(options)
    board = board_from_fen(fen, options.validation)
    from_sq, to_sq, promotion = _read_move(move)
    from_i, to_i = cell_index(from_sq), cell_index(to_sq)
    cells = list(board.cells)

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
        corner = Square(7 if kingside else 0, to_sq.rank)
        rook = cells[cell_index(corner)]
        if rook is None or rook.kind != "R" or rook.color != mover.color:
            raise BadCastleError(f"no rook of the mover's color on {corner.name}")
        cells[cell_index(corner)] = None
        cells[cell_index(Square(5 if kingside else 3, to_sq.rank))] = rook
    elif (
        is_pawn
        and board.en_passant is not None
        and to_sq == board.en_passant
        and abs(from_sq.file - to_sq.file) == 1
        and abs(from_sq.rank - to_sq.rank) == 1
    ):
        cells[cell_index(Square(to_sq.file, from_sq.rank))] = None
        was_capture = True

    # castling rights, recomputed independently of the string path
    wk, wq, bk, bq = (letter in board.castling for letter in "KQkq")
    if mover.kind == "K":
        if mover.color == WHITE:
            wk = wq = False
        else:
            bk = bq = False
    if mover.kind == "R":
        if (from_sq.file, from_sq.rank) == (7, 1):
            wk = False
        elif (from_sq.file, from_sq.rank) == (0, 1):
            wq = False
        elif (from_sq.file, from_sq.rank) == (7, 8):
            bk = False
        elif (from_sq.file, from_sq.rank) == (0, 8):
            bq = False
    if captured is not None:
        if (to_sq.file, to_sq.rank) == (7, 1):
            wk = False
        elif (to_sq.file, to_sq.rank) == (0, 1):
            wq = False
        elif (to_sq.file, to_sq.rank) == (7, 8):
            bk = False
        elif (to_sq.file, to_sq.rank) == (0, 8):
            bq = False

    castling = (
        ("K" if wk else "") + ("Q" if wq else "") + ("k" if bk else "") + ("q" if bq else "")
    ) or "-"

    # en-passant target
    new_ep = None
    if is_pawn and from_sq.file == to_sq.file and {from_sq.rank, to_sq.rank} in ({2, 4}, {5, 7}):
        target = Square(to_sq.file, (from_sq.rank + to_sq.rank) // 2)
        if options.ep_mode == "always":
            new_ep = target
        else:
            for f in (to_sq.file - 1, to_sq.file + 1):
                if 0 <= f <= 7:
                    neighbor = cells[cell_index(Square(f, to_sq.rank))]
                    if (
                        neighbor is not None
                        and neighbor.kind == "P"
                        and neighbor.color != mover.color
                    ):
                        new_ep = target

    # clocks
    halfmove, fullmove = board.halfmove, board.fullmove
    if options.clock_mode != "frozen":
        halfmove = 0 if (is_pawn or was_capture) else halfmove + 1
        if mover.color == BLACK:
            fullmove += 1

    after = BoardArray(
        cells=cells,
        side=BLACK if board.side == WHITE else WHITE,
        castling=castling,
        en_passant=new_ep,
        halfmove=halfmove,
        fullmove=fullmove,
    )
    fen_after = fen_from_board(after)
    if options.validation == "strict":
        parse_fen(fen_after, "strict")
    return fen_after
