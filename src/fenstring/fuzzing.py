"""Seeded differential fuzzing of the string path against the array oracle."""

from __future__ import annotations

import random
from collections import namedtuple

from .errors import (
    BadOptionError, FenstringError, FriendlyCaptureError, NoPiecesError, ValidationError
)
from .fen_codec import BLACK, SQUARES, START_FEN, WHITE, _read_fen, expand_runs
from .move_apply import ApplyOptions, _CASTLES, _apply, _check_options
from .oracle import oracle_apply

# slot i of the 64-slot placement (a8 first, h1 last) -> its square
_SLOT_SQUARES = tuple(SQUARES[f + r] for r in "87654321" for f in "abcdefgh")
# the side to move's piece letters each read as '*', which bytes.count and bytes.split then locate
_OWN_MARKS = {WHITE: bytes.maketrans(b"KQRBNP", b"******"),
              BLACK: bytes.maketrans(b"kqrbnp", b"******")}


class FuzzReport(namedtuple(
    "FuzzReport", "seed iterations positions mismatches first_counterexample",
    defaults=(None,),
)):
    """``first_counterexample`` is the first mismatch's (fen, move, string, array), or None."""

    __slots__ = ()

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


def _below(getrandbits, n: int) -> int:
    """A draw from range(n), made from ``getrandbits`` as
    ``random.Random._randbelow`` makes it: ``randrange(n)`` and ``choice`` of
    a length-n sequence give the same value from the same generator state."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _pseudo_move(record: tuple, getrandbits) -> str:
    """Draw a pseudo-move for the side to move, from the parsed ranks, with
    the ``getrandbits`` of a generator seeded for this draw. ``record`` is
    the plain tuple of a FEN's fields that _read_fen gives or a ply
    carries: its ranks and side are read by position."""
    ranks, side = record[0], record[1]
    slots = expand_runs("".join(ranks))
    marked = slots.encode().translate(_OWN_MARKS[side])
    # the origins are the marks, a8 first; the r-th is found when it is
    # drawn, as 63 less the length of the text after it, so none is listed
    origins = marked.count(b"*")
    if not origins:
        raise NoPiecesError(f"side {side!r} has no pieces")

    while True:
        # the origin choice() of the listed origins gives for the same draw
        from_i = 63 - len(marked.split(b"*", _below(getrandbits, origins) + 1)[-1])
        to_i = _below(getrandbits, 64)  # randrange(64)
        if to_i == from_i:
            continue
        mover = slots[from_i]
        from_sq, to_sq = _SLOT_SQUARES[from_i], _SLOT_SQUARES[to_i]

        # a castle-shaped king move needs its own rook on the corner
        if mover in "Kk" and (from_sq, to_sq) in _CASTLES:
            corner = to_i - to_sq.file + _CASTLES[from_sq, to_sq][0]
            if slots[corner] != ("R" if mover == "K" else "r"):
                continue

        text = from_sq.name + to_sq.name
        if mover in "Pp" and to_sq.rank in (1, 8):
            text += "qrbn"[_below(getrandbits, 4)]
        return text


def _seeded(seed) -> random.Random:
    # random.Random(None) would seed from the OS, and a NaN from its hash,
    # which follows the object's identity: chains nobody can repeat
    if isinstance(seed, float) and seed != seed:
        raise BadOptionError("a seed must not be NaN")
    # a bool is an int, but True is no seed: it would run seed 1's chain
    if seed is not None and type(seed) is not bool:
        try:
            return random.Random(seed)
        except TypeError:
            pass
    raise BadOptionError(f"a seed must be an int, float, str or bytes, got {type(seed).__name__}")


def random_pseudo_move(fen: str, seed: int) -> str:
    """Deterministic pseudo-move generator for fuzzing.

    Picks an occupied origin of the side to move and any other square as
    destination, adds a promotion suffix when a pawn lands on rank 1/8,
    and avoids castle-shaped king moves whose corner rook is missing.
    The move satisfies apply_move's structural preconditions but is not
    necessarily legal chess. The draws are those of random.Random(seed):
    choice of the origin, randrange(64) for the destination and choice of
    the promotion letter.
    """
    return _pseudo_move(_read_fen(fen), _seeded(seed).getrandbits)


def _chain(iterations: int, seed: int, options: ApplyOptions):
    """Yield (fen, move, outcome) along a deterministic pseudo-move chain,
    each outcome the plain tuple _apply returns.

    Each move is drawn from and applied to the record carried from the
    previous pair: the start position's _read_fen tuple, then _apply's plain
    tuples. Under strict validation a drawn move that captures an own piece
    or leaves a position that fails it (a king captured) is drawn again
    from the same record; a king move to an empty square applies, so
    the draws end. The chain restarts from the start position, and draws
    again for the same pair, only when the side to move has no pieces left.

    Every attempt takes the master generator's next randrange(2**32) and
    reseeds the per-draw generator with it.
    """
    _check_options(options)
    if type(iterations) is bool:  # a bool is an int, but True is no count
        raise BadOptionError("iterations must be an integer, got bool")
    try:
        pairs = range(iterations)
    except TypeError:
        raise BadOptionError(
            f"iterations must be an integer, got {type(iterations).__name__}"
        ) from None
    if pairs.stop < 0:
        raise BadOptionError(f"iterations must not be negative, got {pairs.stop}")
    master = _seeded(seed).getrandbits
    # reseeded for each draw, as random_pseudo_move seeds its own, by the C
    # base class's seed: for an int it sets the state Random.seed sets
    draw = random.Random()
    reseed, getrandbits = super(random.Random, draw).seed, draw.getrandbits
    start = _read_fen(START_FEN, options.validation)
    fen, record = START_FEN, start
    for _ in pairs:
        while True:
            try:
                reseed(_below(master, 2**32))
                move = _pseudo_move(record, getrandbits)
                record, outcome = _apply(record, move, options)
                break
            except (FriendlyCaptureError, ValidationError):
                pass  # draw again from the same record
            except NoPiecesError:
                fen, record = START_FEN, start
        yield fen, move, outcome
        fen = outcome[0]


def fuzz_pairs(iterations: int, seed: int, options: ApplyOptions = ApplyOptions()):
    """Yield (fen, move) pairs along a deterministic pseudo-move chain.

    The chain restarts from the start position only when the side to move
    has no pieces left: never under strict validation, where a drawn move
    that captures an own piece or leaves a position failing it is drawn again.
    """
    for fen, move, _ in _chain(iterations, seed, options):
        yield fen, move


def differential_fuzz(iterations: int, seed: int,
                      options: ApplyOptions = ApplyOptions()) -> FuzzReport:
    """Compare the string path against oracle_apply over a fuzzed chain.

    A pair mismatches when the two paths return different FENs or the
    oracle raises an error. The string path's result is the one that
    advanced the chain; an error there that the chain does not draw again
    for ends it and is raised.
    """
    mismatches = 0
    positions = 0
    first = None
    for fen, move, outcome in _chain(iterations, seed, options):
        string_fen = outcome[0]
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
