"""The original 1883 comma-separated Forsyth notation.

Ranks are comma-separated groups of space-separated tokens, read from
Black's queen-rook corner (a8): integers count empty squares, piece
names are written out with capitals for White and small letters for
Black, and the knight is "Kt"/"kt". Only the placement is encoded; the
modern trailer fields did not exist yet.
"""

from .errors import BadTokenError, GroupCountError, RankWidthError
from .fen_codec import expand_rank

_PIECE_TOKENS = {
    "K": "K", "Q": "Q", "R": "R", "B": "B", "Kt": "N", "P": "P",
    "k": "k", "q": "q", "r": "r", "b": "b", "kt": "n", "p": "p",
}
_LETTER_TOKENS = {v: k for k, v in _PIECE_TOKENS.items()}
# an empty-run token is 1 to _MAX_RUN_DIGITS ASCII digits: str.isdigit() also
# accepts digits int() refuses, and int() of very long text is slow or raises
_MAX_RUN_DIGITS = 9


def parse_legacy_forsyth(text: str):
    """Parse legacy notation into 8 modern rank segments (rank 8 first).

    A trailing period is tolerated; adjacent integer tokens are summed
    since typeset sources vary.
    """
    stripped = text.strip()
    if stripped.endswith("."):
        stripped = stripped[:-1]
    groups = stripped.split(",")
    if len(groups) != 8:
        raise GroupCountError(f"expected 8 comma-separated ranks, got {len(groups)}")

    segments = []
    for group in groups:
        out = []
        width = 0
        run = 0
        for token in group.split():
            if token.isascii() and token.isdigit() and len(token) <= _MAX_RUN_DIGITS:
                run += int(token)
            elif token in _PIECE_TOKENS:
                if run:
                    if run > 8:
                        raise RankWidthError(f"empty run of {run} in rank {group.strip()!r}")
                    out.append(str(run))
                    width += run
                    run = 0
                out.append(_PIECE_TOKENS[token])
                width += 1
            else:
                raise BadTokenError(f"bad token {token!r} in rank {group.strip()!r}")
        if run:
            if run > 8:
                raise RankWidthError(f"empty run of {run} in rank {group.strip()!r}")
            out.append(str(run))
            width += run
        if width != 8:
            raise RankWidthError(f"rank {group.strip()!r} spans {width} squares, expected 8")
        segments.append("".join(out))
    return tuple(segments)


def emit_legacy_forsyth(placement) -> str:
    """Render 8 modern rank segments in the legacy comma-separated form."""
    groups = []
    for segment in placement:
        expand_rank(segment)  # the segment grammar, as parse_fen checks it
        tokens = [ch if ch.isdigit() else _LETTER_TOKENS[ch] for ch in segment]
        groups.append(" ".join(tokens))
    return ", ".join(groups)
