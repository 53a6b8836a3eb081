"""Array-based reference implementation used as a differential oracle.

The board is a flat 64-cell mailbox indexed 0 (a8) row-major to 63 (h1):
the classic FEN -> array -> FEN pipeline. oracle_apply's mailbox is a
bytearray of the expanded placement text's 71 cells: each row's 8 letters,
the FEN's '1' for an empty cell, and a '/' cell closing each of the first
seven rows, so square (file, rank) is cell (8 - rank) * 9 + file. A cell
is read through chr(), a piece's colour from its letter's case and its
kind by upper-casing, and written through ord(). Each conversion is in
bulk, through two helpers, each one chain of the oracle's own replaces:
_expanded writes each run digit of the parsed segments out as its '1'
cells, and _contracted folds each run of two or more back into its digit,
longest first; a lone '1' is its own cell either way. board_from_fen and
fen_from_board map the same text to and from the 64 Piece/None cells of
a BoardArray, a named tuple whose trailer fields change by _replace; both
carry the trailer as parse_fen reads it, en passant as its text ("e3" or
"-"). The specials logic (castling, en passant, promotion, rights,
clocks) is intentionally written out again here instead of calling the
string-path helpers, so the two implementations share no placement code
and can check each other. The oracle reads a FEN with _read_fen,
parse_fen's checks giving a plain tuple, for the grammar only, and a
move with _read_move, as the string path does; the strict rules are its
own. Under strict validation oracle_apply's _check_strict checks the
parsed input's segments before the mailbox is built and the result's
text, edge rows aside, before it is contracted, so a strict call parses
one FEN, not two; a result's clocks are checked in every mode.
"""
from __future__ import annotations

from collections import namedtuple

from .errors import (
    BadCastleError,
    BadClockError,
    BadPromotionPieceError,
    EmptyOriginError,
    FenSyntaxError,
    FriendlyCaptureError,
    MissingPromotionError,
    ValidationError,
    WrongColorError,
)
from .fen_codec import (
    BLACK,
    MAX_DIGITS,
    WHITE,
    Piece,
    _PIECES,
    _read_fen,
)
from .move_apply import ApplyOptions, _check_options, _read_move


class BoardArray(namedtuple("BoardArray", "cells side castling en_passant halfmove fullmove")):
    """The mailbox array: ``cells`` is a list of 64 Piece/None, 0 = a8 ... 63 = h1."""

    __slots__ = ()


_EMPTY = ord("1")  # an empty cell, as the mailbox's byte
# what a cell may hold, checked over all 64 by one issuperset(map(type, ...))
_CELL_TYPES = frozenset((Piece, type(None)))
# the corner cells of the 71-cell text and the castling right each hosts
_CORNER_RIGHTS = {70: "K", 63: "Q", 7: "k", 0: "q"}
# (from rank, to rank) of each pawn double step, either way
_DOUBLE_STEPS = frozenset(((2, 4), (4, 2), (5, 7), (7, 5)))
# the least clock the FEN grammar refuses: the first of MAX_DIGITS + 1 digits
_CLOCK_LIMIT = 10**MAX_DIGITS


def _expanded(ranks) -> str:
    """The 71-cell text of a parsed placement's segments, a8 first: each
    piece its FEN letter, each empty cell '1', each row but the last
    closed by '/'. A lone '1' is its own cell."""
    return ("/".join(ranks).replace("8", "11111111").replace("7", "1111111")
            .replace("6", "111111").replace("5", "11111").replace("4", "1111")
            .replace("3", "111").replace("2", "11"))


def _contracted(text: str) -> str:
    """The FEN placement field of a 71-cell text."""
    # longest run first, so that each run is contracted whole
    return (text.replace("11111111", "8").replace("1111111", "7").replace("111111", "6")
            .replace("11111", "5").replace("1111", "4").replace("111", "3").replace("11", "2"))


def _check_strict(placement: str, edge_rows: str, side: str, ep: str) -> None:
    """Raise ValidationError unless a position passes strict validation:
    one 'K' and one 'k' in its placement text, no pawn in its edge rows
    (rank 8 and rank 1), and an en-passant target ('-' for none) on rank 6
    with white to move or on rank 3 with black to move."""
    for king in "Kk":
        count = placement.count(king)
        if count != 1:
            raise ValidationError(f"{count} {king!r} on the board, not exactly one")
    if "P" in edge_rows or "p" in edge_rows:
        raise ValidationError("a pawn stands on rank 8 or rank 1")
    if ep != "-" and ep[1] != ("6" if side == WHITE else "3"):
        raise ValidationError(f"an en-passant target on {ep} with {side!r} to move")


def board_from_fen(fen: str) -> BoardArray:
    """Build the mailbox array from a FEN string, read by the FEN grammar."""
    ranks, *trailer = _read_fen(fen)
    return BoardArray(list(map(_PIECES.get, _expanded(ranks).replace("/", ""))), *trailer)


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
    letters = "".join(["1" if piece is None else piece.letter for piece in cells])
    placement = _contracted("/".join(letters[i:i + 8] for i in range(0, 64, 8)))
    # the trailer fields, as text, must pass the FEN grammar; what it reads
    # from them is written back
    _, *trailer = _read_fen(" ".join(map(str, (placement, *board[1:]))))
    return " ".join(map(str, (placement, *trailer)))


def oracle_apply(fen: str, move, options: ApplyOptions = ApplyOptions()) -> str:
    """Apply a move through the array path and return the updated FEN.

    Same semantics and error taxonomy as move_apply.apply_move, computed
    entirely on the mailbox: a bytearray of the expanded placement's 71 cells.
    The result's clocks are checked in every mode, and under strict validation
    the input's segments before the move is read and the result's text before
    it is written back, each by the oracle's own rules: no FEN is parsed twice.
    Strict validation also refuses a castle's rook or an en-passant capture
    that writes over an own piece, after the king count.
    """
    _check_options(options)
    ranks, side, castling, en_passant, halfmove, fullmove = _read_fen(fen)
    strict = options.validation == "strict"
    if strict:
        # before the move is read, as parse_fen's strict checks come before it
        _check_strict("".join(ranks), ranks[0] + ranks[7], side, en_passant)
    from_sq, to_sq, promotion = _read_move(move)
    from_file, from_rank, to_file, to_rank = from_sq.file, from_sq.rank, to_sq.file, to_sq.rank
    from_i, to_i = (8 - from_rank) * 9 + from_file, (8 - to_rank) * 9 + to_file
    cells = bytearray(_expanded(ranks), "ascii")

    mover = chr(cells[from_i])
    if mover == "1":
        raise EmptyOriginError(f"no piece on {from_sq.name}")
    white = mover.isupper()
    if white != (side == WHITE):
        raise WrongColorError(f"piece on {from_sq.name} is not {side!r} to move")
    kind = mover.upper()

    captured = chr(cells[to_i])
    was_capture = captured != "1"
    if was_capture and strict and captured.isupper() == white:
        raise FriendlyCaptureError(f"own piece on {to_sq.name}")

    is_pawn = kind == "P"
    if is_pawn and to_rank in (1, 8) and promotion is None:
        raise MissingPromotionError(f"pawn reaches {to_sq.name} without promotion piece")
    if promotion is not None and not (is_pawn and to_rank in (1, 8)):
        raise BadPromotionPieceError("promotion suffix only valid for a pawn reaching rank 1/8")

    # move the piece in the mailbox, the promotion piece in its colour's case
    cells[from_i] = _EMPTY
    cells[to_i] = ord(mover if promotion is None else promotion if white else promotion.lower())

    # what a castle's rook or an en-passant capture writes over, in cell erased_i
    erased = "1"
    if (
        kind == "K"
        and from_rank == to_rank
        and to_rank in (1, 8)
        and abs(from_file - to_file) == 2
        and to_file in (2, 6)
    ):
        kingside = to_file == 6
        corner_i, rook_to_i = (to_i + 1, to_i - 1) if kingside else (to_i - 2, to_i + 1)
        rook = chr(cells[corner_i])
        if rook != ("R" if white else "r"):
            raise BadCastleError(
                f"no rook of the mover's color on {'h' if kingside else 'a'}{to_rank}"
            )
        cells[corner_i] = _EMPTY
        erased, erased_i = chr(cells[rook_to_i]), rook_to_i
        cells[rook_to_i] = ord(rook)
    elif (
        is_pawn
        and to_sq.name == en_passant
        and abs(from_file - to_file) == 1
        and abs(from_rank - to_rank) == 1
    ):
        # the victim stands on the origin's rank, in the destination's file
        erased_i = from_i - from_file + to_file
        erased = chr(cells[erased_i])
        cells[erased_i] = _EMPTY
        was_capture = True

    # castling rights, recomputed independently of the string path
    lost = ("KQ" if white else "kq") if kind == "K" else ""
    if kind == "R":
        lost += _CORNER_RIGHTS.get(from_i, "")
    if captured != "1":
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
            enemy_pawn = ord("p" if white else "P")
            for f in (to_file - 1, to_file + 1):
                if 0 <= f <= 7 and cells[row_i + f] == enemy_pawn:
                    ep = target

    # clocks
    if options.clock_mode != "frozen":
        halfmove = 0 if (is_pawn or was_capture) else halfmove + 1
        if not white:
            fullmove += 1
    # in every mode, so the result parses: the rest of its grammar holds by construction
    if halfmove >= _CLOCK_LIMIT or fullmove >= _CLOCK_LIMIT:
        raise BadClockError(f"a clock grows past {MAX_DIGITS} digits: {halfmove} {fullmove}")

    text = cells.decode()
    to_move = BLACK if white else WHITE
    if strict:
        # no edge rows: a strict input has no pawn there, and one that arrives must promote
        _check_strict(text, "", to_move, ep)
        if erased != "1" and erased.isupper() == white:
            raise FriendlyCaptureError(
                f"own piece on {'abcdefgh'[erased_i % 9]}{8 - erased_i // 9}"
            )
    return f"{_contracted(text)} {to_move} {castling or '-'} {ep} {halfmove} {fullmove}"
