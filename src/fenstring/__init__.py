"""Apply chess moves directly to FEN strings by localized segment
rewriting, with an array-based oracle for differential verification."""

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
    file_index,
    parse_castling,
    parse_fen,
    piece_at,
    segment_index,
    serialize_fen,
)
from .fuzzing import FuzzReport, differential_fuzz, fuzz_pairs, random_pseudo_move
from .legacy import emit_legacy_forsyth, parse_legacy_forsyth
from .move_apply import (
    ApplyOptions,
    ApplyOutcome,
    Move,
    apply_move,
    derive_en_passant,
    parse_move,
    play_sequence,
    update_castling_rights,
    update_clocks,
)
from .oracle import (
    BoardArray,
    board_from_fen,
    cell_index,
    fen_from_board,
    oracle_apply,
)

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
    "cell_index",
    "contract_rank",
    "derive_en_passant",
    "differential_fuzz",
    "emit_legacy_forsyth",
    "expand_rank",
    "fen_from_board",
    "file_index",
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
    "update_castling_rights",
    "update_clocks",
]
