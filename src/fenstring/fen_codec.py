"""The FEN text format: fields, rank segments, squares; parsing and serialization.

A FEN record has six space-separated fields:

    <placement> <side> <castling> <en-passant> <halfmove> <fullmove>

The placement field is eight slash-separated rank segments, rank 8 first.
A compact segment like "1b3RN1" expands to exactly 8 slots ("1b111RN1",
each empty square a single '1') so that a square's file index equals its
slot index; runs of '1' contract back to their decimal count.

Parsing is grammar-only by default ("lenient"); "strict" additionally
requires exactly one king per side, no pawns on ranks 1/8 and an
en-passant square consistent with the side to move.

A segment's shape is the ASCII bytes of its text with every piece letter
read as one mark ("2p1p3" -> b"2x1x3"), read through a 256-byte table:
the text is encoded as ASCII with each other character replaced by '?',
so a foreign character is never dropped, and the mark itself becomes '?'
too. The shape stays bytes; nothing decodes it. There are exactly 256
valid shapes, one per set of occupied squares. A table built at import
from those 256 rows maps each shape to one write plan per file: which
character covers the file, how a piece placed there splits its run, and
how clearing it merges the runs on either side. _write_slot writes a
square of the compact text through that plan, so a move never expands or
contracts a segment; an unknown shape raises.

The same table is the segment grammar, and it alone accepts a segment:
parse_fen checks the whole placement's shapes in one pass, and
_check_placement and expand_rank check theirs too. A refused segment is
named in one place, _check_segments: it runs the per-segment checker on
the first segment the table refuses and only on it; both accept the same
segments, so the error class, message and precedence are the checker's.

parse_fen reads each trailer field the same way, with one lookup: the
castling field in the table of its 65 valid spellings, and each clock in
a table built at import of the canonical texts "0" to "999". Only a field
a table does not hold reaches its checker, parse_castling or
_parse_clock: for a castling field that names the error, and for a clock
it also reads what the table leaves out, a zero-padded or 4 to 9 digit
clock; so values, error classes and messages are the checkers'.

A FenRecord is an immutable named tuple, built with tuple.__new__ once per
parse; a ply carries the next record as a plain tuple of the same six
fields. serialize_fen checks that it is given a FenRecord and writes the
canonical text of what its fields parse to, and its unchecked core
_fen_text writes the text of a record whose fields are canonical already,
either form: one that parse_fen or a ply built, or that the CLI built
from checked fields. Squares and pieces are interned slot classes: the 64
squares and 12 pieces are built at import, and building one again returns
the shared instance, so they compare by identity.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, permutations, product

from .errors import (
    AdjacentDigitsError,
    BadCastlingFieldError,
    BadClockError,
    BadEnPassantFieldError,
    BadExpandedRankError,
    BadOptionError,
    BadPieceLetterError,
    BadSegmentError,
    BadSideCharError,
    BadSquareError,
    FenSyntaxError,
    OutOfRangeError,
    RankWidthError,
    SegmentCountError,
    ValidationError,
)

WHITE = "w"
BLACK = "b"

PIECE_LETTERS = "KQRBNPkqrbnp"

# a clock field, like a legacy empty-run token, is 1 to MAX_DIGITS ASCII
# digits: str.isdigit() also accepts digits int() refuses, int() of longer
# text is slow, and past the interpreter's digit limit it raises ValueError
MAX_DIGITS = 9

START_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"

# each run digit 2..8 and its expansion; '1' is its own expansion
_RUN_EXPANSIONS = tuple((str(n), "1" * n) for n in range(2, 9))
# the inverse, longest run first, so that each run is contracted whole
_RUN_CONTRACTIONS = tuple((run, digit) for digit, run in reversed(_RUN_EXPANSIONS))

# a segment's shape: each piece letter read as one mark; the mark itself is
# read as a character no shape holds, so it cannot pass for a piece
_PIECE_MARK = "x"
_SHAPE_BYTES = bytes.maketrans((PIECE_LETTERS + _PIECE_MARK).encode(),
                               (_PIECE_MARK * 12 + "?").encode())

# every canonical clock text "0".."999" -> its value: parse_fen reads both
# clocks of almost every FEN with one lookup each; _parse_clock reads the rest
_CLOCKS = {str(n): n for n in range(1000)}

# every value each option may take; code that branches on one checks it there
_OPTION_VALUES = {
    "ep_mode": ("always", "adjacent-only"),
    "clock_mode": ("standard", "frozen"),
    "validation": ("lenient", "strict"),
}


def _check_option(name: str, value) -> None:
    if value not in _OPTION_VALUES[name]:
        raise BadOptionError(f"{name} must be one of {_OPTION_VALUES[name]}, got {value!r}")


class _Value:
    """An interned immutable value: every instance is built at import and
    the constructor returns the one with the given fields, so equality and
    hashing are identity. Fields are slots and cannot be assigned; copy,
    deepcopy and pickle rebuild through the constructor, so they give back
    the same instance."""

    __slots__ = ()
    _fields = ()

    @classmethod
    def _build(cls, **slots):
        value = object.__new__(cls)
        for name, field in slots.items():
            object.__setattr__(value, name, field)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Square(_Value):
    """Board square; file 0..7 maps to 'a'..'h', rank 1..8."""

    __slots__ = ("file", "rank", "name")
    _fields = ("file", "rank")

    def __new__(cls, file: int, rank: int) -> "Square":
        # type(), not isinstance(): a bool is an int, and True is no coordinate
        if not (type(file) is int and type(rank) is int):
            raise BadSquareError(
                f"a square's file and rank must be integers, "
                f"got {type(file).__name__} and {type(rank).__name__}"
            )
        square = _SQUARE_AT.get((file, rank))
        if square is None:
            raise BadSquareError(f"square out of range: file={file} rank={rank}")
        return square

    @classmethod
    def from_name(cls, name: str) -> "Square":
        if not isinstance(name, str):
            raise BadSquareError(f"a square name must be text, got {type(name).__name__}")
        square = SQUARES.get(name)
        if square is None:
            raise BadSquareError(f"bad square name: {name!r}")
        return square


# the 64 squares by (file, rank) and by name, so hot paths look squares up
_SQUARE_AT = {
    (f, r): Square._build(file=f, rank=r, name="abcdefgh"[f] + str(r))
    for r in range(1, 9)
    for f in range(8)
}
SQUARES = {sq.name: sq for sq in _SQUARE_AT.values()}
# every valid en-passant field: "-" or a square name on rank 3 or 6
_EN_PASSANT_FIELDS = frozenset(["-", *(name for name in SQUARES if name[1] in "36")])


def _check_square(*squares) -> None:
    for square in squares:
        if not isinstance(square, Square):
            raise BadSquareError(f"a square must be a Square, got {type(square).__name__}")


class Piece(_Value):
    """A piece; kind is one of 'KQRBNP', color 'w' or 'b'."""

    __slots__ = ("kind", "color", "letter")
    _fields = ("kind", "color")

    def __new__(cls, kind: str, color: str) -> "Piece":
        try:
            return _PIECE_OF[kind, color]
        except (KeyError, TypeError):
            raise BadPieceLetterError(
                f"a piece must be a kind in 'KQRBNP' and a color 'w' or 'b', "
                f"got {kind!r} and {color!r}"
            ) from None

    @classmethod
    def from_letter(cls, letter: str) -> "Piece":
        try:
            return _PIECES[letter]
        except (KeyError, TypeError):
            raise BadPieceLetterError(f"bad piece letter: {letter!r}") from None


# the twelve pieces by FEN letter and by (kind, color)
_PIECES = {
    ch: Piece._build(kind=ch.upper(), color=WHITE if ch.isupper() else BLACK, letter=ch)
    for ch in PIECE_LETTERS
}
_PIECE_OF = {(piece.kind, piece.color): piece for piece in _PIECES.values()}


# every valid castling field mapped to its canonical text ("KQkq" order, or
# "-"): each letter order of each of the 16 sets of rights, 65 fields in all
_CASTLING_FIELDS = {
    "".join(order): "".join(rights) or "-"
    for n in range(5)
    for rights in combinations("KQkq", n)
    for order in permutations(rights or "-")
}


class FenRecord(namedtuple("FenRecord", "ranks side castling en_passant halfmove fullmove")):
    """Fully parsed FEN; ranks[0] is rank 8, ranks[7] is rank 1. ``castling``
    is in canonical "KQkq" order, or "-"; ``en_passant`` is its text, "e3" or "-"."""

    __slots__ = ()


def expand_runs(text: str) -> str:
    """Replace each run digit 2..8 with that many '1's; other text is left as is."""
    for digit, run in _RUN_EXPANSIONS:
        text = text.replace(digit, run)
    return text


def expand_rank(segment: str) -> str:
    """Expand a compact rank segment to its 8-slot form ("1b3RN1" -> "1b111RN1")."""
    _check_segments((segment,), (_shape(segment),))
    return expand_runs(segment)


def contract_rank(expanded: str) -> str:
    """Contract an 8-slot rank back to compact form ("11111R1k" -> "5R1k")."""
    if not isinstance(expanded, str):
        raise BadExpandedRankError(f"an expanded rank must be text, got {type(expanded).__name__}")
    # 8 slots, each a piece letter or '1': strip leaves nothing of such text
    if len(expanded) != 8 or expanded.strip(PIECE_LETTERS + "1"):
        raise BadExpandedRankError(f"bad expanded rank: {expanded!r}")
    for run, digit in _RUN_CONTRACTIONS:
        expanded = expanded.replace(run, digit)
    return expanded


def _shape(text: str) -> bytes | None:
    """The ASCII shape of a segment ("2p1p3" -> b"2x1x3"), or None if it is
    not text. Each non-ASCII character becomes '?', one that no shape holds:
    replaced, never dropped, so that "ppppépppp" cannot pass for "pppppppp"."""
    if isinstance(text, str):
        return text.encode("ascii", "replace").translate(_SHAPE_BYTES)
    return None


def _segment_plans() -> dict:
    """Every valid segment shape -> its 8 write plans, one per file.

    Each of the 256 sets of occupied squares gives one row and its shape,
    the row's runs written as digits. A file's plan is (at, occupied,
    before, after, clear_head, merged, clear_tail), where ``at`` is the
    character that covers the file: a piece is placed as
    text[:at] + before + letter + after + text[at+1:], which splits a run
    it lands in, and the slot is cleared as
    text[:clear_head] + merged + text[clear_tail:], which merges an
    occupied slot with the runs on either side.
    """
    table = {}
    for row in map("".join, product("1P", repeat=8)):
        segment = contract_rank(row)
        # the squares each character of the segment covers: 0 for a piece
        runs = [0 if ch == "P" else int(ch) for ch in segment] + [0]
        plans = []
        for at, run in enumerate(runs[:-1]):
            if not run:
                left, right = runs[at - 1] if at else 0, runs[at + 1]
                plans.append((at, True, "", "", at - (left > 0), str(left + 1 + right),
                              at + 1 + (right > 0)))
            # a piece k squares into a run splits it; a clear leaves the text as it is
            for k in range(run):
                before, after = str(k) if k else "", str(run - 1 - k) if k < run - 1 else ""
                plans.append((at, False, before, after, 0, "", 0))
        table[_shape(segment)] = tuple(plans)
    return table


# the grammar of a segment, complete: built once from the 256 rows and
# never filled from the segments it is asked about
_SEGMENT_PLANS = _segment_plans()
# its shapes as a set: parse_fen checks a placement's 8 in one call, expand_rank one
_SHAPES = frozenset(_SEGMENT_PLANS)


def _write_slot(segment: str, file: int, letter: str):
    """Write ``letter`` ('1' clears) on slot ``file`` of a compact segment:
    (the new segment, the letter that was there, '1' if it was empty)."""
    # _shape inline: this runs two to four times a ply
    plans = _SEGMENT_PLANS.get(segment.encode("ascii", "replace").translate(_SHAPE_BYTES))
    if plans is None:
        raise BadExpandedRankError(f"bad rank segment: {segment!r}")
    at, occupied, before, after, clear_head, merged, clear_tail = plans[file]
    old = segment[at] if occupied else "1"
    if letter == "1":
        return segment[:clear_head] + merged + segment[clear_tail:], old
    return f"{segment[:at]}{before}{letter}{after}{segment[at + 1:]}", old


def segment_index(rank: int) -> int:
    """Placement-segment index of a rank: the first segment is rank 8."""
    # type(), not isinstance(): a bool is an int, and True is no rank
    if type(rank) is not int or not 1 <= rank <= 8:
        raise OutOfRangeError(f"rank out of range: {rank!r}")
    return 8 - rank


def _check_placement(ranks) -> None:
    """Raise the typed error unless ``ranks`` is a tuple or list of 8 segments
    of the segment grammar, rank 8 first: text or a set is not read by rank."""
    if not isinstance(ranks, (tuple, list)):
        raise FenSyntaxError(
            f"a placement must be a sequence of 8 rank segments, got {type(ranks).__name__}"
        )
    if len(ranks) != 8:
        raise SegmentCountError(f"expected 8 rank segments, got {len(ranks)}")
    _check_segments(ranks, map(_shape, ranks))


def _check_segments(segments, shapes) -> None:
    """The one place a refused segment is named: the checker runs on the
    first segment whose shape the table does not hold, and raises there."""
    for segment, shape in zip(segments, shapes):
        if shape not in _SHAPES:
            _check_segment(segment)


def _check_segment(segment: str) -> None:
    """Validate one rank segment: legal characters, width 8, canonical runs."""
    if not isinstance(segment, str):
        raise BadSegmentError(f"a rank segment must be text, got {type(segment).__name__}")
    width = 0
    prev_digit = False
    for ch in segment:
        if ch in "123456789":
            if prev_digit:
                raise AdjacentDigitsError(f"adjacent digits in segment {segment!r}")
            width += int(ch)
            prev_digit = True
        elif ch in PIECE_LETTERS:
            width += 1
            prev_digit = False
        else:
            raise BadPieceLetterError(f"bad character {ch!r} in segment {segment!r}")
    if width != 8:
        raise RankWidthError(f"segment {segment!r} spans {width} squares, expected 8")


def _check_en_passant_side(side: str, ep: str) -> None:
    if ep != "-" and ep[1] != ("6" if side == WHITE else "3"):
        raise ValidationError(f"en-passant square {ep} inconsistent with side {side!r} to move")


def parse_castling(field: str) -> str:
    """Canonical text of a castling field; any letter order is accepted,
    duplicates are rejected."""
    if not isinstance(field, str):
        raise BadCastlingFieldError(f"a castling field must be text, got {type(field).__name__}")
    rights = _CASTLING_FIELDS.get(field)
    if rights is None:
        raise BadCastlingFieldError(f"bad castling field: {field!r}")
    return rights


def _en_passant_field(field: str) -> str:
    """``field``, if it is an en-passant field: "-" or a square name on rank 3 or 6."""
    if field in _EN_PASSANT_FIELDS:
        return field
    if field in SQUARES:
        raise BadEnPassantFieldError(f"en-passant square {field!r} not on rank 3 or 6")
    raise BadEnPassantFieldError(f"bad en-passant field: {field!r}")


def _parse_clock(field: str, minimum: int, what: str) -> int:
    if field.isascii() and field.isdigit() and len(field) <= MAX_DIGITS:
        value = int(field)
        if value >= minimum:
            return value
    raise BadClockError(f"bad {what}: {field!r}")


def parse_fen(text: str, validation: str = "lenient") -> FenRecord:
    """Parse FEN text into a FenRecord, or raise a typed syntax error.

    Fields are apart by runs of whitespace, which may also lead and trail:
    every character str.isspace() accepts, the ASCII separators 0x1c-0x1f
    and Unicode spaces such as U+00A0 and U+2003 included. No field may
    hold one, so no text reads two ways. Everything else follows the
    grammar exactly.

    Checks fail in this order: the text's type; the field count; the
    segment count; the first segment the shape table refuses, scanned from
    the left, width last; side, castling, the en-passant name, its rank;
    halfmove, then fullmove; the validation value, and under strict
    validation the kings, edge-row pawns, then the en-passant rank. On a
    passing position each strict rule costs one test; a rule's loop runs
    only when its test fails, to name the failure.

    The castling and en-passant fields and the clocks are each read with
    one lookup, the clocks in a table of "0" to "999"; a field a table
    does not hold goes to its checker, which names the error or, for a
    zero-padded or longer clock, reads it.
    """
    if not isinstance(text, str):
        raise FenSyntaxError(f"a FEN must be text, got {type(text).__name__}")
    fields = text.split()
    if len(fields) != 6:
        raise SegmentCountError(f"expected 6 space-separated fields, got {len(fields)}")
    placement, side, castling_field, ep_field, halfmove_field, fullmove_field = fields

    segments = placement.split("/")
    if len(segments) != 8:
        raise SegmentCountError(f"expected 8 rank segments, got {len(segments)}")
    # _shape inline: one Python call less on every parse
    shapes = placement.encode("ascii", "replace").translate(_SHAPE_BYTES).split(b"/")
    if not _SHAPES.issuperset(shapes):
        _check_segments(segments, shapes)

    if side not in (WHITE, BLACK):
        raise BadSideCharError(f"side field must be 'w' or 'b', got {side!r}")

    # a field its table or set does not hold goes to its checker, which
    # names the error, or reads a clock the table leaves out
    castling = _CASTLING_FIELDS.get(castling_field) or parse_castling(castling_field)

    if ep_field not in _EN_PASSANT_FIELDS:
        _en_passant_field(ep_field)

    halfmove = _CLOCKS.get(halfmove_field)
    if halfmove is None:
        halfmove = _parse_clock(halfmove_field, 0, "halfmove clock")
    # a fullmove of 0 is in the table, below the fullmove minimum: the checker refuses it
    fullmove = _CLOCKS.get(fullmove_field) or _parse_clock(fullmove_field, 1, "fullmove number")

    # tuple.__new__, not FenRecord(...): the generated __new__ is one more Python call
    record = tuple.__new__(FenRecord,
                           (tuple(segments), side, castling, ep_field, halfmove, fullmove))
    if validation != "lenient":
        if validation != "strict":
            _check_option("validation", validation)
        if not placement.count("K") == placement.count("k") == 1:
            for king in "Kk":
                if (n := placement.count(king)) != 1:
                    raise ValidationError(f"expected exactly one {king!r}, found {n}")
        edges = segments[0] + segments[7]
        if "P" in edges or "p" in edges:
            for edge in (segments[0], segments[7]):
                if "P" in edge or "p" in edge:
                    raise ValidationError(f"pawn on first/last rank in segment {edge!r}")
        if ep_field != "-":
            _check_en_passant_side(side, ep_field)
    return record


def _fen_text(record: FenRecord) -> str:
    """serialize_fen without the argument check, for a record built here."""
    ranks, side, castling, en_passant, halfmove, fullmove = record
    return f"{'/'.join(ranks)} {side} {castling} {en_passant} {halfmove} {fullmove}"


def serialize_fen(record: FenRecord) -> str:
    """Serialize a record to canonical FEN text, as parse_fen reads its
    fields (castling "qkQK" is written "KQkq"); text that would not parse
    raises the error parse_fen gives for it."""
    if not isinstance(record, FenRecord):
        raise FenSyntaxError(f"a record must be a FenRecord, got {type(record).__name__}")
    try:
        fen = _fen_text(record)
    except TypeError as exc:
        raise FenSyntaxError(f"cannot serialize the record as FEN: {exc}") from None
    return _fen_text(parse_fen(fen))


def piece_at(record: FenRecord, square: Square) -> Piece | None:
    """Return the piece on a square, or None if it is empty; the placement
    must be a tuple or list of 8 segments, so text or a set is refused."""
    if not isinstance(record, FenRecord):
        raise FenSyntaxError(f"a record must be a FenRecord, got {type(record).__name__}")
    _check_square(square)
    _check_placement(record.ranks)
    letter = expand_runs(record.ranks[8 - square.rank])[square.file]
    return _PIECES.get(letter)
