"""Apply chess moves directly to FEN strings by localized segment
rewriting, with an array-based oracle for differential verification.

The oracle, the fuzzer and the legacy codec load on first use of any of
their exports (PEP 562), so a process that only rewrites strings, such as
`fenstring play`, never imports them. Every public record type is a named
tuple, and no module imports dataclasses or typing: dataclasses alone would
cost a process more import time than the string path spends on a long game.
"""

from .errors import (
    FenstringError,
    FenSyntaxError,
    MoveError,
)
from .fen_codec import (
    BLACK,
    START_FEN,
    WHITE,
    FenRecord,
    Piece,
    Square,
    contract_rank,
    expand_rank,
    parse_castling,
    parse_fen,
    piece_at,
    segment_index,
    serialize_fen,
)
from .move_apply import (
    ApplyOptions,
    ApplyOutcome,
    Move,
    apply_move,
    parse_move,
    play_sequence,
)

# the trailer rule cores the kernel runs, under the names that only the
# benchmark's traced per-layer stages call: not exports, and gone when
# those stages are renamed to the cores (ROADMAP item 3 Part A)
from .move_apply import (  # noqa: F401
    _clocks_after as update_clocks,
    _en_passant_after as derive_en_passant,
    _rights_after as update_castling_rights,
)

# each export that loads on first use -> its module
_LAZY = {
    **dict.fromkeys(("FuzzReport", "differential_fuzz", "fuzz_pairs", "random_pseudo_move"),
                    "fuzzing"),
    **dict.fromkeys(("emit_legacy_forsyth", "parse_legacy_forsyth"), "legacy"),
    **dict.fromkeys(("BoardArray", "board_from_fen", "fen_from_board", "oracle_apply"),
                    "oracle"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # all three load together, and each becomes an attribute of the package,
    # so that from then on every module holding one of these exports is too
    from . import fuzzing, legacy, oracle  # noqa: F401

    for export, module in _LAZY.items():
        globals()[export] = getattr(globals()[module], export)
    return globals()[name]


__version__ = "0.1.0"

__all__ = [
    "ApplyOptions",
    "ApplyOutcome",
    "BLACK",
    "BoardArray",
    "FenRecord",
    "FenSyntaxError",
    "FenstringError",
    "FuzzReport",
    "Move",
    "MoveError",
    "Piece",
    "START_FEN",
    "Square",
    "WHITE",
    "apply_move",
    "board_from_fen",
    "contract_rank",
    "differential_fuzz",
    "emit_legacy_forsyth",
    "expand_rank",
    "fen_from_board",
    "fuzz_pairs",
    "oracle_apply",
    "parse_castling",
    "parse_fen",
    "parse_legacy_forsyth",
    "parse_move",
    "piece_at",
    "play_sequence",
    "random_pseudo_move",
    "segment_index",
    "serialize_fen",
]
