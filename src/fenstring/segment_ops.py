"""Rank-segment expansion/contraction and square indexing.

The core string mechanic: a compact segment like "1b3RN1" expands to
exactly 8 slots ("1b111RN1", each empty square a single '1') so that a
square's file index equals its slot index; runs of '1' contract back to
their decimal count.
"""

from .errors import BadExpandedRankError, BadSegmentError, OutOfRangeError
from .fen_codec import PIECE_LETTERS, RUN_DIGITS

_SLOT_CHARS = frozenset(PIECE_LETTERS + "1")
_EXPAND = str.maketrans({digit: "1" * int(digit) for digit in RUN_DIGITS})
# longest first, so that each run is replaced whole
_RUNS = tuple(("1" * n, str(n)) for n in range(8, 1, -1))


def expand_rank(segment: str) -> str:
    """Expand a compact rank segment to its 8-slot form ("1b3RN1" -> "1b111RN1")."""
    expanded = segment.translate(_EXPAND)
    if not _SLOT_CHARS.issuperset(expanded):
        ch = next(ch for ch in expanded if ch not in _SLOT_CHARS)
        raise BadSegmentError(f"bad character {ch!r} in segment {segment!r}")
    if len(expanded) != 8:
        raise BadSegmentError(f"segment {segment!r} spans {len(expanded)} squares, expected 8")
    return expanded


def contract_rank(expanded: str) -> str:
    """Contract an 8-slot rank back to compact form ("11111R1k" -> "5R1k")."""
    if len(expanded) != 8 or not _SLOT_CHARS.issuperset(expanded):
        raise BadExpandedRankError(f"bad expanded rank: {expanded!r}")
    compact = expanded
    for run, count in _RUNS:
        compact = compact.replace(run, count)
    return compact


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
