"""Apply a coordinate move directly to a FEN string.

Each square the move changes is written straight into the compact text
of its rank segment, through the codec's table of segment shapes; every
other segment is carried over character-for-character. No board array
is built, and the only row ever expanded is a double push's landing
segment under ep_mode "adjacent-only", read through expand_rank to find
an enemy pawn beside the pawn. Moves are applied as written:
chess legality (checks, pins, blocked paths) is deliberately not
enforced, so the result is a faithful transcription of the move.

_apply is the one kernel behind every entry point. A ply is one pass: it
unpacks the record once, makes the move's writes and takes the trailer
and the FEN text from the unchecked cores of update_clocks,
update_castling_rights, derive_en_passant and serialize_fen. Each rule is
written once, in its core, and each special-move shape once, in _CASTLES or
_PASSED; the public functions check their arguments and call the same
cores. _read_move reads every move argument, text or a Move, into its
squares and promotion kind; only parse_move builds a Move. Text is read
with no regular expression: two slices looked up among the square names,
and the rest among the nine promotion suffixes. A result is checked only
for what a ply can break: its clocks in every mode and, under strict
validation, whether it captured a king, whether a castle's rook or an
en-passant capture wrote over an own piece, and its en-passant square.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .errors import (
    BadCastleError,
    BadCastlingFieldError,
    BadClockError,
    BadMoveSyntaxError,
    BadOptionError,
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
    SQUARES,
    WHITE,
    FenRecord,
    Piece,
    Square,
    _CASTLING_FIELDS,
    _OPTION_VALUES,
    _PIECES,
    _SQUARE_AT,
    _Value,
    _check_en_passant_side,
    _check_option,
    _check_placement,
    _check_square,
    _fen_text,
    _rank_segment,
    _write_slot,
    expand_rank,
    parse_fen,
)

_PROMOTION_KINDS = ("Q", "R", "B", "N")
# the text after a move's two squares -> its promotion kind: none, or one letter in either case
_PROMOTION_SUFFIXES = {"": None, **{letter: kind for kind in _PROMOTION_KINDS
                                     for letter in (kind, kind.lower())}}
_CLOCK_LIMIT = 10**MAX_DIGITS

# king color -> the two rights it holds
_KING_RIGHTS = {WHITE: "KQ", BLACK: "kq"}
# corner square -> the right it hosts
_CORNER_RIGHTS = {SQUARES["h1"]: "K", SQUARES["a1"]: "Q", SQUARES["h8"]: "k", SQUARES["a8"]: "q"}
# segments_touched of a ply from segment i to segment j, built once for the 64 pairs
_TOUCHED = tuple(tuple(frozenset((i, j)) for j in range(8)) for i in range(8))
# each castle-shaped king move, a two-file step along rank 1 or 8 onto the c
# or g file -> (the rook's corner file, its file after the castle, the special)
_CASTLES = {
    (_SQUARE_AT[from_file, rank], _SQUARE_AT[to_file, rank]): shape
    for to_file, shape in ((6, (7, 5, "castle-kingside")), (2, (0, 3, "castle-queenside")))
    for from_file in (to_file - 2, to_file + 2) if 0 <= from_file <= 7
    for rank in (1, 8)
}
# each same-file step between ranks 2 and 4 or 5 and 7, either way -> the passed square's name
_PASSED = {
    (_SQUARE_AT[file, start], _SQUARE_AT[file, end]): _SQUARE_AT[file, (start + end) // 2].name
    for file in range(8)
    for start, end in ((2, 4), (4, 2), (5, 7), (7, 5))
}


class Move(namedtuple("Move", "from_square to_square promotion")):
    """A parsed move: a named tuple of its two squares and its promotion kind
    ('Q', 'R', 'B', 'N' or None), checked when built."""

    __slots__ = ()

    def __new__(cls, from_square: Square, to_square: Square, promotion: str | None = None):
        _check_square(from_square, to_square)
        # the rewrite writes the promotion letter as given, in the mover's case
        if promotion is not None and promotion not in _PROMOTION_KINDS:
            raise BadPromotionPieceError(
                f"promotion piece must be Q, R, B or N, got {promotion!r}"
            )
        if from_square is to_square:
            raise _null_move_error(from_square.name)
        return tuple.__new__(cls, (from_square, to_square, promotion))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: checked like every other Move
        return cls(*iterable)


class ApplyOptions(_Value):
    """How a move is applied: ep_mode "always" or "adjacent-only", clock_mode
    "standard" or "frozen", validation "lenient" or "strict". Each of the 8
    combinations is built once, at import."""

    __slots__ = _fields = tuple(_OPTION_VALUES)

    def __new__(cls, ep_mode="always", clock_mode="standard", validation="lenient"):
        # checked once, when built: the rewrite tests each field against one
        # of its values and would take any unknown value for the other one
        values = (ep_mode, clock_mode, validation)
        for name, value in zip(_OPTION_VALUES, values):
            _check_option(name, value)
        return _OPTIONS[values]


_OPTIONS = {
    values: ApplyOptions._build(**dict(zip(_OPTION_VALUES, values)))
    for values in product(*_OPTION_VALUES.values())
}


class ApplyOutcome(namedtuple(
    "ApplyOutcome", "fen_after segments_touched was_capture was_pawn_move special",
    defaults=(None,),
)):
    """What a ply did; ``special`` is "castle-kingside", "castle-queenside",
    "en-passant-capture", "promotion" or None."""

    __slots__ = ()


def _check_options(options) -> None:
    if not isinstance(options, ApplyOptions):
        raise BadOptionError(f"options must be an ApplyOptions, got {type(options).__name__}")


def _null_move_error(name: str) -> BadMoveSyntaxError:
    return BadMoveSyntaxError(f"origin equals destination: {name}")


def _check_move_arguments(mover, *squares) -> None:
    """Raise the typed error for a mover that is not a Piece or a square that is not a Square."""
    if not isinstance(mover, Piece):
        raise FenSyntaxError(f"a mover must be a Piece, got {type(mover).__name__}")
    _check_square(*squares)


def _read_move(move):
    """The one reader of a move argument, text or a Move: (origin,
    destination, promotion kind or None); anything else is bad move syntax."""
    if isinstance(move, str):
        # square, optional '-', square, optional suffix: a '-' is never
        # part of a square name, so a dashed move misses the first reading
        from_sq = SQUARES.get(move[:2])
        to_sq = SQUARES.get(move[2:4])
        suffix = move[4:]
        if to_sq is None and move[2:3] == "-":
            to_sq = SQUARES.get(move[3:5])
            suffix = move[5:]
        if from_sq is None or to_sq is None or suffix not in _PROMOTION_SUFFIXES:
            raise BadMoveSyntaxError(f"bad move syntax: {move!r}")
        if from_sq is to_sq:
            raise _null_move_error(from_sq.name)
        return from_sq, to_sq, _PROMOTION_SUFFIXES[suffix]
    if isinstance(move, Move):
        return move
    raise BadMoveSyntaxError(f"a move must be text or a Move, got {type(move).__name__}")


def parse_move(text: str) -> Move:
    """Parse "e2e4", "e2-e4" or "e7e8q" (promotion suffix, any case)."""
    return Move(*_read_move(text))


def _rights_after(rights, mover, from_square, to_square, captured):
    """update_castling_rights without the argument checks."""
    lost = _KING_RIGHTS[mover.color] if mover.kind == "K" else ""
    if mover.kind == "R":
        lost += _CORNER_RIGHTS.get(from_square, "")
    if captured is not None:
        lost += _CORNER_RIGHTS.get(to_square, "")
    if not lost or rights == "-":
        return rights
    for letter in lost:
        rights = rights.replace(letter, "")
    return rights or "-"


def update_castling_rights(
    rights: str,
    mover: Piece,
    from_square: Square,
    to_square: Square,
    captured: Piece | None = None,
) -> str:
    """Drop rights invalidated by the move; rights are never regained.

    ``rights`` is a canonical castling field ("KQkq" order, or "-"). A
    king move clears both rights of its color; a rook leaving a corner
    clears that corner's right; a capture landing on a corner clears the
    right hosted there.
    """
    if not isinstance(rights, str) or _CASTLING_FIELDS.get(rights) != rights:
        raise BadCastlingFieldError(f"castling rights must be a canonical castling field, "
                                    f"got {rights!r}")
    _check_move_arguments(mover, from_square, to_square)
    if captured is not None and not isinstance(captured, Piece):
        raise FenSyntaxError(f"a captured piece must be a Piece or None, "
                             f"got {type(captured).__name__}")
    return _rights_after(rights, mover, from_square, to_square, captured)


def _en_passant_after(ranks, mover, from_square, to_square, ep_mode):
    """derive_en_passant without the argument checks."""
    # only a step in _PASSED puts its target on rank 3/6; other two-rank
    # pseudo-pushes would put it on a rank no FEN allows
    target = _PASSED.get((from_square, to_square), "-") if mover.kind == "P" else "-"
    if target == "-" or ep_mode == "always":
        return target
    enemy_pawn = "p" if mover.color == WHITE else "P"
    row = expand_rank(_rank_segment(ranks, to_square.rank))
    for f in (to_square.file - 1, to_square.file + 1):
        if 0 <= f <= 7 and row[f] == enemy_pawn:
            return target
    return "-"


def derive_en_passant(
    placement_after,
    mover: Piece,
    from_square: Square,
    to_square: Square,
    ep_mode: str = "always",
) -> str:
    """The en-passant field after the move: the passed square's name, or "-".

    Only a same-file pawn move between ranks 2 and 4 or 5 and 7, either
    way, qualifies. Mode "always" records the square the pawn passes
    unconditionally; "adjacent-only" records it only when an enemy pawn
    sits on an adjacent file of the landing rank (the 'Pp'/'pP' pattern)
    in the post-move placement.
    """
    _check_placement(placement_after)
    _check_move_arguments(mover, from_square, to_square)
    _check_option("ep_mode", ep_mode)
    return _en_passant_after(placement_after, mover, from_square, to_square, ep_mode)


def _clocks_after(halfmove, fullmove, mover, was_capture, clock_mode):
    """update_clocks without the argument checks."""
    if clock_mode == "frozen":
        return halfmove, fullmove
    return (0 if mover.kind == "P" or was_capture else halfmove + 1,
            fullmove + 1 if mover.color == BLACK else fullmove)


def _check_clocks(halfmove: int, fullmove: int) -> None:
    if halfmove >= _CLOCK_LIMIT or fullmove >= _CLOCK_LIMIT:
        raise BadClockError(f"clock longer than {MAX_DIGITS} digits: {halfmove} {fullmove}")


def update_clocks(
    halfmove: int,
    fullmove: int,
    mover: Piece,
    was_capture: bool,
    clock_mode: str = "standard",
):
    """Standard: halfmove resets on pawn move/capture else +1; fullmove +1
    after a black move. Frozen: both pass through unchanged. Clocks given or
    returned with more than MAX_DIGITS digits are refused, as by parse_fen."""
    _check_move_arguments(mover)
    # only a bool: the core takes any true value for a capture
    if type(was_capture) is not bool:
        raise FenSyntaxError(f"was_capture must be a bool, got {type(was_capture).__name__}")
    # type(), not isinstance(): a bool is an int, and True is no fullmove number
    if not (type(halfmove) is int and type(fullmove) is int and halfmove >= 0 and fullmove >= 1):
        raise BadClockError(f"clocks must be integers, halfmove >= 0 and fullmove >= 1, "
                            f"got {halfmove!r} and {fullmove!r}")
    _check_clocks(halfmove, fullmove)
    _check_option("clock_mode", clock_mode)
    halfmove, fullmove = _clocks_after(halfmove, fullmove, mover, was_capture, clock_mode)
    _check_clocks(halfmove, fullmove)
    return halfmove, fullmove


def _apply(record: FenRecord, move, options: ApplyOptions):
    """The rewrite shared by every entry point: (next record, outcome).

    ``record`` comes from parse_fen or an earlier ply under the same
    validation, so a game or fuzz chain is parsed once. Each square the
    move changes is written into its compact segment by _write_slot, which
    reads the letter that was there and checks the segment's shape: two
    writes for a ply, two more for a castle's rook and one for an
    en-passant victim. A strict record holds one king per side and no ply
    makes one, so a ply breaks the king rule only by writing over a king.
    """
    ranks, side, castling, en_passant, halfmove, fullmove = record
    from_sq, to_sq, promotion = _read_move(move)

    ranks = list(ranks)
    from_i = 8 - from_sq.rank
    to_i = 8 - to_sq.rank
    # the origin is cleared first, so that a destination in the same
    # segment is written on the cleared text
    ranks[from_i], mover_letter = _write_slot(ranks[from_i], from_sq.file, "1")
    mover = _PIECES.get(mover_letter)
    if mover is None:
        raise EmptyOriginError(f"no piece on {from_sq.name}")
    if mover.color != side:
        raise WrongColorError(f"piece on {from_sq.name} is not {side!r} to move")

    landing = mover_letter
    if promotion is not None:
        landing = promotion if side == WHITE else promotion.lower()
    ranks[to_i], target_letter = _write_slot(ranks[to_i], to_sq.file, landing)
    captured = _PIECES.get(target_letter)
    if captured and options.validation == "strict" and captured.color == side:
        raise FriendlyCaptureError(f"own piece on {to_sq.name}")
    was_capture = captured is not None

    is_pawn = mover.kind == "P"
    if is_pawn and to_sq.rank in (1, 8) and promotion is None:
        raise MissingPromotionError(f"pawn reaches {to_sq.name} without promotion piece")
    if promotion is not None and not (is_pawn and to_sq.rank in (1, 8)):
        raise BadPromotionPieceError("promotion suffix only valid for a pawn reaching rank 1/8")

    special = None
    # what a castle's rook or an en-passant capture writes over, on erased_at
    erased = "1"
    if promotion is not None:
        special = "promotion"
    elif mover.kind == "K" and (from_sq, to_sq) in _CASTLES:
        corner_file, rook_file, special = _CASTLES[from_sq, to_sq]
        rook_letter = "R" if side == WHITE else "r"
        row, corner = _write_slot(ranks[to_i], corner_file, "1")
        if corner != rook_letter:
            raise BadCastleError(f"no {rook_letter!r} on castling corner of rank {to_sq.rank}")
        ranks[to_i], erased = _write_slot(row, rook_file, rook_letter)
        erased_at = _SQUARE_AT[rook_file, to_sq.rank]
    elif (
        is_pawn
        and to_sq.name == en_passant
        and abs(from_sq.file - to_sq.file) == 1
        and abs(from_i - to_i) == 1
    ):
        # bypassed pawn sits behind the target, in the mover's origin rank
        ranks[from_i], erased = _write_slot(ranks[from_i], to_sq.file, "1")
        erased_at = _SQUARE_AT[to_sq.file, from_sq.rank]
        was_capture = True
        special = "en-passant-capture"

    halfmove, fullmove = _clocks_after(halfmove, fullmove, mover, was_capture, options.clock_mode)
    # in every mode, so the result parses: the rest of its grammar holds by construction
    _check_clocks(halfmove, fullmove)
    # tuple.__new__ skips _make's Python frame and length check: six fields by construction
    after = tuple.__new__(FenRecord, (
        tuple(ranks),
        BLACK if side == WHITE else WHITE,
        _rights_after(castling, mover, from_sq, to_sq, captured),
        # the rule can hold only for a pawn move: the others skip the call
        _en_passant_after(ranks, mover, from_sq, to_sq, options.ep_mode) if is_pawn else "-",
        halfmove,
        fullmove,
    ))
    if options.validation == "strict":
        # no edge rows: a strict input has no pawn there, and one that arrives must promote
        for king in "Kk":
            if king == target_letter or king == erased:
                raise ValidationError(f"expected exactly one {king!r}, found 0")
        if erased != "1" and _PIECES[erased].color == side:
            raise FriendlyCaptureError(f"own piece on {erased_at.name}")
        _check_en_passant_side(after.side, after.en_passant)

    return after, tuple.__new__(
        ApplyOutcome, (_fen_text(after), _TOUCHED[from_i][to_i], was_capture, is_pawn, special)
    )


def apply_move(fen: str, move, options: ApplyOptions = ApplyOptions()) -> ApplyOutcome:
    """Apply a move to a FEN string by localized segment rewriting.

    ``move`` may be a move string or a parsed Move. Raises a MoveError
    subclass when the move cannot be transcribed (empty origin, wrong
    color, missing promotion, bad castle).
    """
    _check_options(options)
    return _apply(parse_fen(fen, options.validation), move, options)[1]


def _iter_sequence(record: FenRecord, moves, options: ApplyOptions):
    """Yield the FEN after each move, played from ``record``, a FEN that
    parse_fen has read under ``options.validation``.

    The failing ply's error is re-raised with a ``ply`` attribute (1-based).
    """
    try:
        moves = iter(moves)
    except TypeError:
        raise BadMoveSyntaxError(
            f"moves must be an iterable of moves, got {type(moves).__name__}"
        ) from None
    for ply, move in enumerate(moves, start=1):
        try:
            record, outcome = _apply(record, move, options)
        except Exception as exc:
            exc.ply = ply
            raise
        yield outcome.fen_after


def play_sequence(fen: str, moves, options: ApplyOptions = ApplyOptions()):
    """Apply moves in order; returns one FEN per ply.

    ``fen`` is read before the first ply, with or without moves, and its
    error carries no ``ply``. On a failing ply its error is re-raised with
    a ``ply`` attribute (1-based) attached.
    """
    _check_options(options)
    return list(_iter_sequence(parse_fen(fen, options.validation), moves, options))
