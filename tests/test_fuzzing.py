import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fenstring import (
    START_FEN,
    ApplyOptions,
    apply_move,
    board_from_fen,
    differential_fuzz,
    fuzz_pairs,
    oracle_apply,
    parse_fen,
    play_sequence,
    random_pseudo_move,
)
from fenstring import fuzzing
from fenstring.errors import (
    EmptyOriginError, FenstringError, FriendlyCaptureError, NoPiecesError, ValidationError
)

from conftest import ALL_OPTIONS, both_paths, fens, pseudo_game, reference_pseudo_move


def test_fuzz_pairs_walk_the_pseudo_game():
    for options in (ApplyOptions(), ApplyOptions(ep_mode="adjacent-only", clock_mode="frozen")):
        expected = [(fen, move) for fen, move, _ in pseudo_game(600, seed=5, options=options)]
        assert list(fuzz_pairs(600, 5, options)) == expected


def test_every_pair_reaches_the_oracle(monkeypatch):
    # a wrong oracle must be handed each pair once and mismatch on each,
    # with the string path's own result in the counterexample
    seen = []

    def wrong_oracle(fen, move, options):
        seen.append((fen, move))
        return "not a fen"

    monkeypatch.setattr(fuzzing, "oracle_apply", wrong_oracle)
    game = pseudo_game(300, seed=7)
    report = differential_fuzz(300, 7)
    assert seen == [(fen, move) for fen, move, _ in game]
    assert (report.positions, report.mismatches) == (300, 300)
    fen, move, outcome = game[0]
    assert report.first_counterexample == (fen, move, outcome.fen_after, "not a fen")


def test_oracle_error_is_a_mismatch(monkeypatch):
    # an oracle that raises is counted, and the report prints its code
    def raising_oracle(fen, move, options):
        raise EmptyOriginError("stand-in")

    monkeypatch.setattr(fuzzing, "oracle_apply", raising_oracle)
    report = differential_fuzz(20, 3)
    assert (report.positions, report.mismatches) == (20, 20)
    fen, move, string_fen, array_fen = report.first_counterexample
    assert array_fen == "<EmptyOrigin>"
    assert report.format().splitlines()[3:] == [
        "mismatches: 20",
        "first counterexample:",
        f"  position: {fen}",
        f"  move:     {move}",
        f"  string:   {string_fen}",
        "  array:    <EmptyOrigin>",
    ]


# cell i of the mailbox (a8 first, h1 last) -> its square name
_CELL_NAMES = [f + r for r in "87654321" for f in "abcdefgh"]
# the castle-shaped king moves of each side, drawn on every position: an
# arbitrary pair is one of them too rarely to reach a missing rook
_CASTLE_SHAPES = {"w": ["e1g1", "e1c1"], "b": ["e8g8", "e8c8"]}


def test_error_codes_agree_on_arbitrary_moves():
    """On fuzz-chain positions, under every option combination, arbitrary
    square pairs (with and without a promotion suffix) give the same FEN or
    the same error code on the string path and the oracle, and between them
    they reach each code listed below."""
    rng = random.Random(8)
    codes = set()
    for options in ALL_OPTIONS:
        for fen, _ in fuzz_pairs(250, 8, options):
            board = board_from_fen(fen)
            own = [i for i, piece in enumerate(board.cells) if piece and piece.color == board.side]
            moves = list(_CASTLE_SHAPES[board.side])
            for _ in range(3):
                origin = rng.choice(own) if rng.random() < 0.75 else rng.randrange(64)
                suffix = rng.choice(("", "", "", "q", "R", "b", "n"))
                moves.append(_CELL_NAMES[origin] + _CELL_NAMES[rng.randrange(64)] + suffix)
            for move in moves:
                string, _, array = both_paths(fen, move, options)
                assert string == array, (fen, move, options)
                if " " not in string:
                    codes.add(string)
    assert codes == {
        "BadCastle", "BadMoveSyntax", "BadPromotionPiece", "EmptyOrigin", "FriendlyCapture",
        "MissingPromotion", "Validation", "WrongColor",
    }


@settings(max_examples=100)
@given(fens().filter(lambda fen: fen.split()[3] != "-"))
def test_pawn_moves_onto_the_en_passant_target_agree(fen):
    """The fuzz chains almost never capture en passant, so on arbitrary
    positions that carry a target, every pawn's move onto it gives the same
    FEN or the same error code on the string path and the oracle, under
    every option combination. A pawn diagonally beside the target of the
    side to move captures, and its victim leaves the board."""
    target = fen.split()[3]
    cells = board_from_fen(fen).cells
    moves = [_CELL_NAMES[i] + target for i, piece in enumerate(cells)
             if piece and piece.kind == "P"]
    for options in ALL_OPTIONS:
        for move in moves:
            string, _, array = both_paths(fen, move, options)
            assert string == array, (fen, move, options)


_STRICT_OPTIONS = [options for options in ALL_OPTIONS if options.validation == "strict"]
_SQUARE_PAIRS = st.tuples(st.sampled_from(_CELL_NAMES), st.sampled_from(_CELL_NAMES)).map("".join)


@given(fens(), st.lists(_SQUARE_PAIRS, min_size=1, max_size=6))
# inputs that fail strict validation by one rule each, with a move from an
# empty square: an input check that misses gives EmptyOrigin instead
@example("4k3/8/8/8/8/8/8/8 w - - 0 1", ["d4d5"])  # no white king
@example("4k3/8/8/8/8/8/8/2k1K3 w - - 0 1", ["d4d5"])  # two black kings
@example("4k3/8/8/8/8/8/8/P3K3 w - - 0 1", ["d4d5"])  # a white pawn on rank 1
@example("p3k3/8/8/8/8/8/8/4K3 b - - 0 1", ["d4d5"])  # a black pawn on rank 8
@example("4k3/8/8/8/8/8/8/4K3 w - e3 0 1", ["d4d5"])  # a target on rank 3, white to move
@example("4k3/8/8/8/8/8/8/4K3 b - e6 0 1", ["d4d5"])  # a target on rank 6, black to move
def test_strict_results_agree_on_arbitrary_positions(fen, moves):
    """Under strict validation, on arbitrary positions (most fail it) and
    arbitrary square pairs, the string path and the oracle give the same FEN
    or the same error code: each checks the input and the result with its
    own rules."""
    for options in _STRICT_OPTIONS:
        for move in moves:
            string, _, array = both_paths(fen, move, options)
            assert string == array, (fen, move, options)


@given(fens(), st.lists(_SQUARE_PAIRS, min_size=1, max_size=6))
# a ply that carries a clock to 10 digits, one example per clock
@example("4k3/8/8/8/8/8/8/4K3 w - - 999999999 1", ["e1d1", "e8d8"])
@example("4k3/8/8/8/8/8/8/4K3 b - - 0 999999999", ["e8d8", "e1d1"])
def test_every_result_parses_under_its_validation(fen, moves):
    """Under all 8 option combinations, every FEN that apply_move,
    oracle_apply and play_sequence return parses again under the
    validation it was made with: a result is ready for any other program."""
    for options in ALL_OPTIONS:
        results = []
        for move in moves:
            for apply in (lambda *a: apply_move(*a).fen_after, oracle_apply):
                try:
                    results.append(apply(fen, move, options))
                except FenstringError:
                    pass
        try:
            results += play_sequence(fen, moves, options)
        except FenstringError as exc:
            # a FEN error carries no ply and leaves no results
            if hasattr(exc, "ply"):
                results += play_sequence(fen, moves[:exc.ply - 1], options)
        for after in results:
            parse_fen(after, options.validation)


@pytest.mark.parametrize("fen, move, standard, frozen", [
    pytest.param("4k3/8/8/8/8/8/8/4RK2 w - - 0 1", "e1e8", "Validation", "Validation",
                 id="white-captures-the-black-king"),
    pytest.param("4rk2/8/8/8/8/8/8/4K3 b - - 0 1", "e8e1", "Validation", "Validation",
                 id="black-captures-the-white-king"),
    # a white pawn's step from rank 5 to rank 7 passes e6, and black is to move
    pytest.param("4k3/3p4/8/4P3/8/8/8/4K3 w - - 0 1", "e5e7", "Validation", "Validation",
                 id="target-e6-with-black-to-move"),
    pytest.param("4k3/8/8/8/8/8/8/4K3 b - - 0 999999999", "e8d8", "BadClock", None,
                 id="fullmove-of-10-digits"),
    pytest.param("4k3/8/8/8/8/8/8/4K3 w - - 999999999 1", "e1d1", "BadClock", None,
                 id="halfmove-of-10-digits"),
    # the clock is checked first, so it names the error when both fail
    pytest.param("4rk2/8/8/8/8/8/8/4K3 b - - 0 999999999", "e8e1", "BadClock", "Validation",
                 id="long-clock-and-king-captured"),
])
@pytest.mark.parametrize("ep_mode", ["always", "adjacent-only"])
@pytest.mark.parametrize("validation", ["lenient", "strict"])
def test_strict_results_fail_alike(fen, move, standard, frozen, ep_mode, validation):
    # each way the result of a position that passes strict validation can
    # fail it, by its error code on both paths under clock_mode standard and
    # frozen; None where the result is a FEN. Lenient validation refuses the
    # long clocks alike and gives a FEN where strict gives Validation
    parse_fen(fen, "strict")
    for clock_mode, code in (("standard", standard), ("frozen", frozen)):
        if validation == "lenient" and code == "Validation":
            code = None
        options = ApplyOptions(ep_mode, clock_mode, validation)
        string, _, array = both_paths(fen, move, options)
        assert string == array
        if code is None:
            assert " " in string
        else:
            assert string == code


def test_zero_iterations_compare_nothing():
    assert list(fuzz_pairs(0, 0)) == []
    report = differential_fuzz(0, 0)
    assert (report.iterations, report.positions, report.mismatches) == (0, 0, 0)


@pytest.mark.parametrize(
    "i, ep_mode, clock_mode, digest",
    [
        (0, "always", "standard",
         "d0914805f0c45c05a556c42aeeb0b515ac504cd3d480b5cf56fb9cf3a059c7f6"),
        (1, "always", "frozen",
         "4a25eaafae2f500eddacd1c85cdb153d2561bfb7329972e5c280de8d9ec4a169"),
        (2, "adjacent-only", "standard",
         "d7f19e7d8c187a7728ed4e43c6b5cf5bba15b6dba43075247fe2f49afc608b7b"),
        (3, "adjacent-only", "frozen",
         "57811297ab2d80a1a5d51c1b5dc2bf97a7efb0096b64d8a757406d836c530e7d"),
    ],
)
def test_acceptance_chains_are_pinned(i, ep_mode, clock_mode, digest):
    # the exact pairs test_06 fuzzes, so a drift in the generator's draws shows
    options = ApplyOptions(ep_mode=ep_mode, clock_mode=clock_mode)
    h = hashlib.sha256()
    for fen, move in fuzz_pairs(25000, 1000 + i, options):
        h.update(f"{fen} {move}\n".encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("ep_mode", ["always", "adjacent-only"])
@pytest.mark.parametrize("clock_mode, digest", [
    ("standard", "984736a835cee28c6ecf59b7a9f792e2c18306cd4b3ad813ea86795ab82b4bc5"),
    ("frozen", "5e2b0e9307cd87680ad31b4ddba34d66e4c6d51b78636759c341a98f60a973ec"),
])
def test_strict_chains_are_pinned(ep_mode, clock_mode, digest):
    # the lenient digests above never draw again from the same record; these
    # do, on every friendly capture and king capture. They make no double
    # push, so both en-passant modes give the same chain
    options = ApplyOptions(ep_mode=ep_mode, clock_mode=clock_mode, validation="strict")
    h = hashlib.sha256()
    for fen, move in fuzz_pairs(3000, 0, options):
        h.update(f"{fen} {move}\n".encode())
    assert h.hexdigest() == digest


# a strict chain never restarts, so one long chain is soon down to the two
# kings: 12 chains of 250 pairs per option combination keep material on the
# board (none of their pairs holds the kings alone), as CI's strict step does
STRICT_SEEDS = range(12)


@pytest.mark.parametrize("ep_mode", ["always", "adjacent-only"])
@pytest.mark.parametrize("clock_mode", ["standard", "frozen"])
def test_strict_chains_restart_and_agree(ep_mode, clock_mode):
    # a strict chain draws again on a friendly capture and on a position that
    # fails strict validation, and restarts only on NoPieces, which a strict
    # position with its two kings never raises: so it yields every pair, each
    # from a position that passes strict validation, and only the first from
    # the start position
    options = ApplyOptions(ep_mode=ep_mode, clock_mode=clock_mode, validation="strict")
    for seed in STRICT_SEEDS:
        report = differential_fuzz(250, seed, options)
        assert (report.positions, report.mismatches) == (250, 0), seed
        pairs = list(fuzz_pairs(250, seed, options))
        assert len(pairs) == 250
        for fen, _ in pairs:
            parse_fen(fen, "strict")
            assert sum(map(str.isalpha, fen.split()[0])) > 2, (seed, fen)
        assert sum(fen == START_FEN for fen, _ in pairs) == 1, seed


@pytest.mark.parametrize("ep_mode", ["always", "adjacent-only"])
@pytest.mark.parametrize("clock_mode", ["standard", "frozen"])
def test_strict_chains_refuse_king_captures_of_both_colours(monkeypatch, ep_mode, clock_mode):
    # the chains reach the strict king rule and the friendly-capture rule
    # from both sides, so the differential tests above check them against
    # the oracle's full count; each refused draw is drawn again
    refused = []
    real_apply = fuzzing._apply

    def counting_apply(record, move, options):
        try:
            return real_apply(record, move, options)
        except ValidationError as exc:
            refused.append(str(exc))
            raise
        except FriendlyCaptureError:
            # the chain carries the kernel's plain tuple: the side is field 1
            refused.append(f"FriendlyCapture by {record[1]!r}")
            raise

    monkeypatch.setattr(fuzzing, "_apply", counting_apply)
    options = ApplyOptions(ep_mode=ep_mode, clock_mode=clock_mode, validation="strict")
    for seed in STRICT_SEEDS:
        assert len(list(fuzz_pairs(250, seed, options))) == 250
    for king, side in ("K", "w"), ("k", "b"):
        assert refused.count(f"expected exactly one {king!r}, found 0") >= 10
        assert refused.count(f"FriendlyCapture by {side!r}") >= 10


def test_generator_draws_are_pinned():
    # int seeds, and a str and a float seed, which Random hashes its own way
    assert [random_pseudo_move(START_FEN, s) for s in range(8)] == [
        "e1f2", "e2a7", "b2d7", "h2a6", "h2g4", "a1f3", "c2g1b", "c1d6",
    ]
    assert random_pseudo_move(START_FEN, "x") == "c1f1"
    assert random_pseudo_move(START_FEN, 2.5) == "f1d3"


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**70 + 5, "x", "fenstring", b"", b"\x00\xff"])
def test_below_draws_as_randrange_and_choice(seed):
    # the generator draws through _below, a copy of Random._randbelow: an
    # interpreter that changes that method fails here, not only in a digest
    for n in [*range(1, 71), 2**32]:
        bits = random.Random(seed).getrandbits
        drawn = [fuzzing._below(bits, n) for _ in range(200)]
        by_randrange, by_choice = random.Random(seed), random.Random(seed)
        assert drawn == [by_randrange.randrange(n) for _ in range(200)], n
        assert drawn == [by_choice.choice(range(n)) for _ in range(200)], n


def test_base_class_reseed_sets_the_state_random_seed_sets():
    # the chain reseeds its per-draw generator through random.Random's C base
    # class, which for an int seed must leave the state Random.seed leaves
    for seed in (0, 1, 12345, 2**31, 2**32 - 1):
        by_random, by_base = random.Random(), random.Random()
        by_random.seed(seed)
        super(random.Random, by_base).seed(seed)
        assert by_base.getstate() == by_random.getstate(), seed


def _draw(generator, fen, seed):
    try:
        return generator(fen, seed)
    except NoPiecesError:
        return NoPiecesError


@given(fens(), st.integers(0, 2**32 - 1))
@example("4k3/8/8/8/8/8/8/4K3 w - - 0 1", 0)  # every castle shape lacks its rook
@example("r3k2r/8/8/8/8/8/8/R3K2R b KQkq - 0 1", 40)  # draws e8g8
@example("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1", 80)  # draws e1c1
@example("8/PPPPPPPP/8/8/8/8/pppppppp/8 w - - 0 1", 0)  # promotions
@example("8/8/8/8/8/8/8/K7 b - - 0 1", 0)  # no black pieces
def test_generator_matches_the_board_reference(fen, seed):
    # forty draws per position, so that a generated position shows the rarer
    # cases (castle shapes, promotions) more often than one draw would
    for s in range(seed, seed + 40):
        assert _draw(random_pseudo_move, fen, s) == _draw(reference_pseudo_move, fen, s)
