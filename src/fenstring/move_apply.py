"""Apply a coordinate move directly to a FEN string.

Each square the move changes is written straight into the compact text
of its rank segment, through the codec's table of segment shapes; every
other segment is carried over character-for-character. No board array
is built, and the only row ever expanded is a double push's landing
segment under ep_mode "adjacent-only", read through expand_runs to find
an enemy pawn beside the pawn. Moves are applied as written:
chess legality (checks, pins, blocked paths) is deliberately not
enforced, so the result is a faithful transcription of the move.

_apply is the one kernel behind every entry point. A ply is one pass: it
unpacks the record once, makes the move's writes and takes the trailer
from the rule cores _clocks_after, _rights_after and _en_passant_after,
and the FEN text from serialize_fen's core. It returns the next record
and the outcome as plain tuples; apply_move alone wraps an ApplyOutcome,
so a game or a fuzz chain builds no named tuple per ply. Each rule is
written once, in its core, and each special-move shape once, in _CASTLES
or _PASSED. _read_move reads every move argument, text or a Move, into
its squares and promotion kind; only parse_move builds a Move. Text is
read with no regular expression: two slices looked up among the square
names, and the rest among the nine promotion suffixes; each exact str
text is read once, into a table filled on first use. A result is checked only for what a ply
can break: its clocks, which only standard mode grows, and, under strict
validation, whether it captured a king, whether a castle's rook or an
en-passant capture wrote over an own piece, and its en-passant square.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .errors import (
    BadCastleError,
    BadClockError,
    BadMoveSyntaxError,
    BadOptionError,
    BadPromotionPieceError,
    EmptyOriginError,
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
    Square,
    _OPTION_VALUES,
    _PIECES,
    _SQUARE_AT,
    _Value,
    _check_en_passant_side,
    _check_option,
    _check_square,
    _fen_text,
    _read_fen,
    _write_slot,
    expand_runs,
)

_PROMOTION_KINDS = ("Q", "R", "B", "N")
# the text after a move's two squares -> its promotion kind: none, or one letter in either case
_PROMOTION_SUFFIXES = {"": None, **{letter: kind for kind in _PROMOTION_KINDS
                                     for letter in (kind, kind.lower())}}
# exact move text -> its read, filled by _read_move
_MOVE_READS = {}
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


def _read_move(move):
    """The one reader of a move argument, text or a Move: (origin,
    destination, promotion kind or None); anything else is bad move syntax.
    Exact str text is read on first use, into _MOVE_READS, which keeps only
    successful reads: at most the 72,576 valid texts (with or without '-'),
    ~10 MB if every one is read. A str subclass is read every time."""
    if type(move) is str:
        read = _MOVE_READS.get(move)
        if read is not None:
            return read
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
        read = from_sq, to_sq, _PROMOTION_SUFFIXES[suffix]
        if type(move) is str:
            _MOVE_READS[move] = read
        return read
    if isinstance(move, Move):
        return move
    raise BadMoveSyntaxError(f"a move must be text or a Move, got {type(move).__name__}")


def parse_move(text: str) -> Move:
    """Parse "e2e4", "e2-e4" or "e7e8q" (promotion suffix, any case)."""
    return Move(*_read_move(text))


def _rights_after(rights, mover, from_square, to_square, captured):
    """The canonical castling field after the move: a king move drops both
    rights of its color, and a rook leaving a corner or a capture landing on
    one drops the right hosted there; rights are never regained."""
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


def _en_passant_after(ranks, mover, from_square, to_square, ep_mode):
    """The en-passant field after the move: the passed square's name, or "-".
    Mode "always" records it for each pawn step in _PASSED; "adjacent-only"
    only when an enemy pawn stands beside the landing square in ``ranks``,
    the placement after the move (the 'Pp'/'pP' pattern)."""
    # only a step in _PASSED puts its target on rank 3/6; other two-rank
    # pseudo-pushes would put it on a rank no FEN allows
    target = _PASSED.get((from_square, to_square), "-") if mover.kind == "P" else "-"
    if target == "-" or ep_mode == "always":
        return target
    enemy_pawn = "p" if mover.color == WHITE else "P"
    # the placement is parsed or written: runs alone are left to expand
    row = expand_runs(ranks[8 - to_square.rank])
    for f in (to_square.file - 1, to_square.file + 1):
        if 0 <= f <= 7 and row[f] == enemy_pawn:
            return target
    return "-"


def _clocks_after(halfmove, fullmove, mover, was_capture, clock_mode):
    """The clocks after the move. Standard: halfmove resets on a pawn move
    or a capture, else +1; fullmove +1 after a black move; a clock grown
    past MAX_DIGITS digits raises, so the result parses. Frozen: both pass
    through unchanged, and parsed clocks never have too many digits."""
    if clock_mode == "frozen":
        return halfmove, fullmove
    halfmove = 0 if mover.kind == "P" or was_capture else halfmove + 1
    if mover.color == BLACK:
        fullmove += 1
    if halfmove >= _CLOCK_LIMIT or fullmove >= _CLOCK_LIMIT:
        raise BadClockError(f"clock longer than {MAX_DIGITS} digits: {halfmove} {fullmove}")
    return halfmove, fullmove


def _apply(record: FenRecord | tuple, move, options: ApplyOptions):
    """The rewrite shared by every entry point: (next record, outcome), each
    a plain tuple in the field order of FenRecord and of ApplyOutcome.

    ``record`` is the plain tuple _read_fen or an earlier ply returned, or
    a FenRecord of the same fields, under the same validation, so a game
    or fuzz chain is parsed once and builds no named tuple per ply: only
    apply_move wraps its outcome as an ApplyOutcome. Each square the move
    changes is written into its compact segment by _write_slot, which
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
    next_side = BLACK if side == WHITE else WHITE
    # the rule can hold only for a pawn move: the others skip the call
    next_en_passant = (
        _en_passant_after(ranks, mover, from_sq, to_sq, options.ep_mode) if is_pawn else "-"
    )
    after = (tuple(ranks), next_side, _rights_after(castling, mover, from_sq, to_sq, captured),
             next_en_passant, halfmove, fullmove)
    if options.validation == "strict":
        # no edge rows: a strict input has no pawn there, and one that arrives must promote
        if target_letter in "Kk" or erased in "Kk":
            for king in "Kk":
                if king == target_letter or king == erased:
                    raise ValidationError(f"expected exactly one {king!r}, found 0")
        if erased != "1" and _PIECES[erased].color == side:
            raise FriendlyCaptureError(f"own piece on {erased_at.name}")
        if next_en_passant != "-":
            _check_en_passant_side(next_side, next_en_passant)

    return after, (_fen_text(after), _TOUCHED[from_i][to_i], was_capture, is_pawn, special)


def apply_move(fen: str, move, options: ApplyOptions = ApplyOptions()) -> ApplyOutcome:
    """Apply a move to a FEN string by localized segment rewriting.

    ``move`` may be a move string or a parsed Move. Raises a MoveError
    subclass when the move cannot be transcribed (empty origin, wrong
    color, missing promotion, bad castle).
    """
    _check_options(options)
    outcome = _apply(_read_fen(fen, options.validation), move, options)[1]
    # wrapped after the call, so that an error path builds nothing more
    return tuple.__new__(ApplyOutcome, outcome)


def _iter_sequence(record: FenRecord | tuple, moves, options: ApplyOptions):
    """Yield the FEN after each move, played from ``record``: the plain
    tuple of fields that _read_fen has read under ``options.validation``,
    as _apply carries from ply to ply, or a FenRecord of the same fields.

    The failing ply's error is re-raised with a ``ply`` attribute (1-based).
    """
    try:
        # text iterates by character and bytes-like data by int, not by move:
        # each is refused as None is
        moves = iter(None if isinstance(moves, (str, bytes, bytearray, memoryview)) else moves)
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
        yield outcome[0]


def play_sequence(fen: str, moves, options: ApplyOptions = ApplyOptions()):
    """Apply moves, an iterable of moves but not text, in order; returns
    one FEN per ply.

    ``fen`` is read before the first ply, with or without moves, and its
    error carries no ``ply``. On a failing ply its error is re-raised with
    a ``ply`` attribute (1-based) attached.
    """
    _check_options(options)
    return list(_iter_sequence(_read_fen(fen, options.validation), moves, options))
