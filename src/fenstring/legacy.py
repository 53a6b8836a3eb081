"""The original 1883 comma-separated Forsyth notation.

Ranks are comma-separated groups of space-separated tokens, read from
Black's queen-rook corner (a8): integers count empty squares, piece
names are written out with capitals for White and small letters for
Black, and the knight is "Kt"/"kt". Only the placement is encoded; the
modern trailer fields did not exist yet.
"""

from .errors import BadTokenError, FenSyntaxError, GroupCountError, RankWidthError
from .fen_codec import MAX_DIGITS, _check_placement, contract_rank

_PIECE_TOKENS = {
    "K": "K", "Q": "Q", "R": "R", "B": "B", "Kt": "N", "P": "P",
    "k": "k", "q": "q", "r": "r", "b": "b", "kt": "n", "p": "p",
}
_LETTER_TOKENS = {v: k for k, v in _PIECE_TOKENS.items()}


def _empty_slots(run: int, group: str) -> str:
    if run > 8:
        raise RankWidthError(f"empty run of {run} in rank {group.strip()!r}")
    return "1" * run


def parse_legacy_forsyth(text: str):
    """Parse legacy notation into 8 modern rank segments (rank 8 first).

    A trailing period is tolerated; adjacent integer tokens are summed
    since typeset sources vary.
    """
    if not isinstance(text, str):
        raise FenSyntaxError(f"legacy Forsyth notation must be text, got {type(text).__name__}")
    stripped = text.strip()
    if stripped.endswith("."):
        stripped = stripped[:-1]
    groups = stripped.split(",")
    if len(groups) != 8:
        raise GroupCountError(f"expected 8 comma-separated ranks, got {len(groups)}")

    segments = []
    for group in groups:
        slots = ""  # one per square, '1' if empty; contract_rank writes the runs
        run = 0
        for token in group.split():
            if token.isascii() and token.isdigit() and len(token) <= MAX_DIGITS:
                run += int(token)
            elif token in _PIECE_TOKENS:
                slots += _empty_slots(run, group) + _PIECE_TOKENS[token]
                run = 0
            else:
                raise BadTokenError(f"bad token {token!r} in rank {group.strip()!r}")
        slots += _empty_slots(run, group)
        if len(slots) != 8:
            raise RankWidthError(f"rank {group.strip()!r} spans {len(slots)} squares, expected 8")
        segments.append(contract_rank(slots))
    return tuple(segments)


def emit_legacy_forsyth(placement) -> str:
    """Render 8 modern rank segments (any iterable but text or bytes-like data)
    in the legacy form."""
    try:
        # text iterates by character and bytes-like data by int, not by
        # segment: each is refused as None is
        segments = iter(
            None if isinstance(placement, (str, bytes, bytearray, memoryview)) else placement
        )
    except TypeError:
        raise FenSyntaxError(
            f"a placement must be an iterable of rank segments, got {type(placement).__name__}"
        ) from None
    placement = tuple(segments)
    _check_placement(placement)  # 8 segments of the segment grammar, as parse_fen checks them
    groups = []
    for segment in placement:
        tokens = [ch if ch.isdigit() else _LETTER_TOKENS[ch] for ch in segment]
        groups.append(" ".join(tokens))
    return ", ".join(groups)
