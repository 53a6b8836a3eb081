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

The placement is validated in one pass over the whole field: its runs are
expanded to one '1' per empty square, one regex checks the 8x8 slot
layout and another looks for adjacent digits. Only when that bulk check
fails does the per-segment checker run, segment by segment, to name the
first error, so the error class, message and precedence are those of the
per-segment grammar. expand_rank always runs that checker on its segment.

A FenRecord is an immutable named tuple, built positionally once per parse
and once per applied move.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple, Optional

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
# one slot of an expanded rank: a piece letter, or '1' for an empty square
_SLOT = f"[{PIECE_LETTERS}1]"
_SLOT_RANK = re.compile(_SLOT + "{8}")
# a valid placement, expanded: eight slot ranks; with no two digits adjacent
# in the compact text, this is the whole grammar
_SLOT_PLACEMENT = re.compile(f"{_SLOT}{{8}}(?:/{_SLOT}{{8}}){{7}}")
_DIGIT_PAIR = re.compile(r"[0-9][0-9]")

# every value each option may take; code that branches on one checks it there
_OPTION_VALUES = {
    "ep_mode": ("always", "adjacent-only"),
    "clock_mode": ("standard", "frozen"),
    "validation": ("lenient", "strict"),
}


def _bad_option(name: str, value) -> BadOptionError:
    return BadOptionError(f"{name} must be one of {_OPTION_VALUES[name]}, got {value!r}")


@dataclass(frozen=True)
class Square:
    """Board square; file 0..7 maps to 'a'..'h', rank 1..8."""

    file: int
    rank: int

    def __post_init__(self):
        if not (isinstance(self.file, int) and isinstance(self.rank, int)):
            raise BadSquareError(
                f"a square's file and rank must be integers, "
                f"got {type(self.file).__name__} and {type(self.rank).__name__}"
            )
        if not (0 <= self.file <= 7 and 1 <= self.rank <= 8):
            raise BadSquareError(f"square out of range: file={self.file} rank={self.rank}")

    @classmethod
    def from_name(cls, name: str) -> "Square":
        square = SQUARES.get(name)
        if square is None:
            raise BadSquareError(f"bad square name: {name!r}")
        return square

    @property
    def name(self) -> str:
        return "abcdefgh"[self.file] + str(self.rank)


# every square by name, so hot paths look squares up instead of building them
SQUARES = {sq.name: sq for sq in (Square(f, r) for r in range(1, 9) for f in range(8))}


@dataclass(frozen=True)
class Piece:
    """A piece; kind is one of 'KQRBNP', color 'w' or 'b'."""

    kind: str
    color: str

    @classmethod
    def from_letter(cls, letter: str) -> "Piece":
        piece = _PIECES.get(letter)
        if piece is None:
            raise BadPieceLetterError(f"bad piece letter: {letter!r}")
        return piece

    @property
    def letter(self) -> str:
        return self.kind if self.color == WHITE else self.kind.lower()


# the twelve pieces by FEN letter; Piece is frozen, so one instance each is shared
_PIECES = {ch: Piece(ch.upper(), WHITE if ch.isupper() else BLACK) for ch in PIECE_LETTERS}


# every valid castling field mapped to its canonical text ("KQkq" order, or
# "-"): each letter order of each of the 16 sets of rights, 65 fields in all
_CASTLING_FIELDS = {
    "".join(order): "".join(rights) or "-"
    for n in range(5)
    for rights in combinations("KQkq", n)
    for order in permutations(rights or "-")
}


class FenRecord(NamedTuple):
    """Fully parsed FEN; ranks[0] is rank 8, ranks[7] is rank 1."""

    ranks: tuple
    side: str
    castling: str  # canonical "KQkq" order, or "-"
    en_passant: Optional[Square]
    halfmove: int
    fullmove: int


def expand_runs(text: str) -> str:
    """Replace each run digit 2..8 with that many '1's; other text is left as is."""
    for digit, run in _RUN_EXPANSIONS:
        text = text.replace(digit, run)
    return text


def expand_rank(segment: str) -> str:
    """Expand a compact rank segment to its 8-slot form ("1b3RN1" -> "1b111RN1")."""
    _check_segment(segment)
    return expand_runs(segment)


def contract_rank(expanded: str) -> str:
    """Contract an 8-slot rank back to compact form ("11111R1k" -> "5R1k")."""
    if _SLOT_RANK.fullmatch(expanded) is None:
        raise BadExpandedRankError(f"bad expanded rank: {expanded!r}")
    for run, digit in _RUN_CONTRACTIONS:
        expanded = expanded.replace(run, digit)
    return expanded


def segment_index(rank: int) -> int:
    """Placement-segment index of a rank: the first segment is rank 8."""
    if not 1 <= rank <= 8:
        raise OutOfRangeError(f"rank out of range: {rank}")
    return 8 - rank


def file_index(letter: str) -> int:
    """'a' -> 0 ... 'h' -> 7; equals the slot index within an expanded rank."""
    if len(letter) != 1 or not "a" <= letter <= "h":
        raise OutOfRangeError(f"file out of range: {letter!r}")
    return ord(letter) - ord("a")


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


def _strict_checks(record: FenRecord) -> None:
    placement = "".join(record.ranks)
    for king in "Kk":
        n = placement.count(king)
        if n != 1:
            raise ValidationError(f"expected exactly one {king!r}, found {n}")
    for edge in (record.ranks[0], record.ranks[7]):
        if "P" in edge or "p" in edge:
            raise ValidationError(f"pawn on first/last rank in segment {edge!r}")
    if record.en_passant is not None:
        expected_rank = 6 if record.side == WHITE else 3
        if record.en_passant.rank != expected_rank:
            raise ValidationError(
                f"en-passant square {record.en_passant.name} inconsistent with "
                f"side {record.side!r} to move"
            )


def parse_castling(field: str) -> str:
    """Canonical text of a castling field; any letter order is accepted,
    duplicates are rejected."""
    rights = _CASTLING_FIELDS.get(field)
    if rights is None:
        raise BadCastlingFieldError(f"bad castling field: {field!r}")
    return rights


def _parse_clock(field: str, minimum: int, what: str) -> int:
    if field.isascii() and field.isdigit() and len(field) <= MAX_DIGITS:
        value = int(field)
        if value >= minimum:
            return value
    raise BadClockError(f"bad {what}: {field!r}")


def parse_fen(text: str, validation: str = "lenient") -> FenRecord:
    """Parse FEN text into a FenRecord, or raise a typed syntax error.

    Repeated/leading/trailing whitespace between fields is tolerated;
    everything else follows the grammar exactly.
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
    if _SLOT_PLACEMENT.fullmatch(expand_runs(placement)) is None or _DIGIT_PAIR.search(placement):
        # the bulk check only tells that the placement is bad; this names why
        for segment in segments:
            _check_segment(segment)

    if side not in (WHITE, BLACK):
        raise BadSideCharError(f"side field must be 'w' or 'b', got {side!r}")

    castling = parse_castling(castling_field)

    if ep_field == "-":
        en_passant = None
    else:
        en_passant = SQUARES.get(ep_field)
        if en_passant is None:
            raise BadEnPassantFieldError(f"bad en-passant field: {ep_field!r}")
        if en_passant.rank not in (3, 6):
            raise BadEnPassantFieldError(f"en-passant square {ep_field!r} not on rank 3 or 6")

    record = FenRecord(
        tuple(segments),
        side,
        castling,
        en_passant,
        _parse_clock(halfmove_field, 0, "halfmove clock"),
        _parse_clock(fullmove_field, 1, "fullmove number"),
    )
    if validation != "lenient":
        if validation != "strict":
            raise _bad_option("validation", validation)
        _strict_checks(record)
    return record


def serialize_fen(record: FenRecord) -> str:
    """Serialize a record back to canonical FEN text."""
    return " ".join(
        (
            "/".join(record.ranks),
            record.side,
            record.castling,
            record.en_passant.name if record.en_passant else "-",
            str(record.halfmove),
            str(record.fullmove),
        )
    )


def piece_at(record: FenRecord, square: Square) -> Optional[Piece]:
    """Return the piece on a square, or None if it is empty."""
    letter = expand_rank(record.ranks[segment_index(square.rank)])[square.file]
    return None if letter == "1" else Piece.from_letter(letter)
