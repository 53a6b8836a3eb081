"""Seeded differential fuzzing of the string path against the array oracle."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import FenstringError, NoPiecesError
from .fen_codec import START_FEN, parse_fen
from .move_apply import ApplyOptions, _apply
from .oracle import oracle_apply, random_pseudo_move


@dataclass
class FuzzReport:
    seed: int
    iterations: int
    positions: int
    mismatches: int
    first_counterexample: Optional[Tuple[str, str, str, str]] = None  # fen, move, string, array

    def format(self) -> str:
        lines = [
            f"seed: {self.seed}",
            f"iterations: {self.iterations}",
            f"positions visited: {self.positions}",
            f"mismatches: {self.mismatches}",
        ]
        if self.first_counterexample:
            fen, move, string_fen, array_fen = self.first_counterexample
            lines += [
                "first counterexample:",
                f"  position: {fen}",
                f"  move:     {move}",
                f"  string:   {string_fen}",
                f"  array:    {array_fen}",
            ]
        return "\n".join(lines)


def _chain(iterations: int, seed: int, options: ApplyOptions, start_fen: str):
    """Yield (fen, move, outcome) along a deterministic pseudo-move chain.

    Each move is applied once, to the record carried from the previous
    pair; a position is parsed only when the chain starts or restarts.
    """
    rng = random.Random(seed)
    fen, record = start_fen, None
    for _ in range(iterations):
        try:
            move = random_pseudo_move(fen, rng.randrange(2**32))
        except NoPiecesError:
            fen, record = start_fen, None
            move = random_pseudo_move(fen, rng.randrange(2**32))
        if record is None:
            record = parse_fen(fen, options.validation)
        record, outcome = _apply(record, move, options)
        yield fen, move, outcome
        fen = outcome.fen_after


def fuzz_pairs(iterations: int, seed: int, options: ApplyOptions = ApplyOptions(),
               start_fen: str = START_FEN):
    """Yield (fen, move) pairs along a deterministic pseudo-move chain.

    The chain restarts from the seed position when the side to move has
    no pieces left.
    """
    for fen, move, _ in _chain(iterations, seed, options, start_fen):
        yield fen, move


def differential_fuzz(iterations: int, seed: int,
                      options: ApplyOptions = ApplyOptions()) -> FuzzReport:
    """Compare the string path against oracle_apply over a fuzzed chain.

    A pair mismatches when the two paths return different FENs or the
    oracle raises an error. The string path's result is the one that
    advanced the chain; an error there ends the chain and is raised.
    """
    mismatches = 0
    positions = 0
    first = None
    for fen, move, outcome in _chain(iterations, seed, options, START_FEN):
        string_fen = outcome.fen_after
        try:
            array_fen = oracle_apply(fen, move, options)
        except FenstringError as exc:
            array_fen = f"<{exc.code}>"
        positions += 1
        if string_fen != array_fen:
            mismatches += 1
            if first is None:
                first = (fen, move, string_fen, array_fen)
    return FuzzReport(seed, iterations, positions, mismatches, first)
