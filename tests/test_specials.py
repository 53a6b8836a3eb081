"""The special-move corpus: every en-passant capture, double push, castle,
castle-shaped king move, promotion, move across a row's end and capture
onto a corner, on near-empty boards, listed instead of sampled. Each entry
is (fen, move, expected, push): ``expected`` is the special the string
path names, or the error code both paths raise, under lenient validation;
``push`` is a double push's passed square and whether an enemy pawn stands
beside its landing square, or None. Every entry runs under all 8 option combinations, and the
string path and the oracle must give the same FEN or the same error code."""

from collections import Counter
from itertools import product

import pytest

from fenstring import Square, apply_move, contract_rank, oracle_apply, parse_fen, piece_at
from fenstring.errors import FenstringError

from conftest import ALL_OPTIONS, both_paths

FILES = "abcdefgh"
# the 16 castling fields, "-" included
RIGHTS = ["".join(r for r, held in zip("KQkq", bits) if held) or "-"
          for bits in product((False, True), repeat=4)]


def _fen(pieces, side, castling="-", en_passant="-"):
    """The FEN with {square name: letter} on the board, every other square
    empty; an empty letter leaves its square empty."""
    placement = "/".join(
        contract_rank("".join(pieces.get(f"{f}{rank}") or "1" for f in FILES))
        for rank in range(8, 0, -1)
    )
    return f"{placement} {side} {castling} {en_passant} 0 1"


def _en_passant():
    """Every en-passant capture: each target file, both colours, from either
    side, with the other squares of the victim's rank empty, all taken, or
    taken on every other file, and with an own knight in the victim's place,
    which strict validation refuses. Then each capture onto the a and h
    files, with and without enemy pawns just across the row's end, which the
    capture must leave. One king a side, so strict validation holds."""
    for side, rank, target_rank, own, victim, fillers in (("w", 5, 6, "P", "p", "Nb"),
                                                           ("b", 4, 3, "p", "P", "nB")):
        for target, origin in product(range(8), repeat=2):
            if abs(target - origin) != 1:
                continue
            move = f"{FILES[origin]}{rank}{FILES[target]}{target_rank}"
            for fill in ("empty", "full", "even", "odd", "own"):
                pieces = {"e1": "K", "e8": "k"}
                for f in set(range(8)) - {target, origin}:
                    if fill == "full" or fill == ("even", "odd")[f % 2]:
                        pieces[f"{FILES[f]}{rank}"] = fillers[f % 2]
                pieces[f"{FILES[target]}{rank}"] = fillers[0] if fill == "own" else victim
                pieces[move[:2]] = own
                yield _fen(pieces, side, en_passant=move[2:]), move, "en-passant-capture", None
    for side, move, victim, across in (("w", "b5a6", "a5", "h6"), ("w", "g5h6", "h5", "a4"),
                                       ("b", "b4a3", "a4", "h5"), ("b", "g4h3", "h4", "a3")):
        own, enemy = ("P", "p") if side == "w" else ("p", "P")
        for pawn_across in ("", enemy):
            pieces = {"e1": "K", "e8": "k", move[:2]: own, victim: enemy, across: pawn_across}
            yield _fen(pieces, side, en_passant=move[2:]), move, "en-passant-capture", None


def _double_pushes():
    """Every same-file pawn step between ranks 2 and 4 or 5 and 7, forwards
    and backwards, by either colour, alone or with an enemy pawn beside the
    landing square, on either side. Then each push onto the a and h files
    with enemy pawns beside it or just across the row's end, which is no
    neighbour. Strict validation refuses a target left on the wrong side."""
    for file, (start, end) in product(range(8), ((2, 4), (4, 2), (5, 7), (7, 5))):
        move = f"{FILES[file]}{start}{FILES[file]}{end}"
        passed = f"{FILES[file]}{(start + end) // 2}"
        for side, pawn, enemy in (("w", "P", "p"), ("b", "p", "P")):
            for beside in (None, file - 1, file + 1):
                if beside is not None and not 0 <= beside <= 7:
                    continue
                pieces = {"e1": "K", "e8": "k", move[:2]: pawn}
                if beside is not None:
                    pieces[f"{FILES[beside]}{end}"] = enemy
                yield _fen(pieces, side), move, None, (passed, beside is not None)
    for side, move, beside, across in (("w", "a2a4", "b4", "h5"), ("w", "h2h4", "g4", "a3"),
                                       ("b", "a7a5", "b5", "h6"), ("b", "h7h5", "g5", "a4")):
        own, enemy = ("P", "p") if side == "w" else ("p", "P")
        passed = f"{move[0]}{(int(move[1]) + int(move[3])) // 2}"
        for others in ((), (beside,), (across,), (beside, across)):
            pieces = {"e1": "K", "e8": "k", move[:2]: own, **dict.fromkeys(others, enemy)}
            yield _fen(pieces, side), move, None, (passed, beside in others)


# each castle: side, move, special, the rook's corner, the squares between
# king and rook, and the square one in from the corner
CASTLES = (
    ("w", "e1g1", "castle-kingside", "h1", ("f1", "g1"), "g1"),
    ("w", "e1c1", "castle-queenside", "a1", ("b1", "c1", "d1"), "b1"),
    ("b", "e8g8", "castle-kingside", "h8", ("f8", "g8"), "g8"),
    ("b", "e8c8", "castle-queenside", "a8", ("b8", "c8", "d8"), "b8"),
)


def _castles():
    """Each castle with every square between king and rook empty, an enemy
    piece or an own piece, which strict validation refuses on the king's or
    the rook's landing square; then with the rook one square in from its
    corner: BadCastle, or first a friendly capture where the king lands on it."""
    for side, move, special, corner, between, inner in CASTLES:
        rook, enemies = ("R", "nbq") if side == "w" else ("r", "NBQ")
        fillings = [("", enemy, enemy.swapcase()) for enemy in enemies[:len(between)]]
        for occupants in product(*fillings):
            pieces = {"e1": "K", "e8": "k", corner: rook, **dict(zip(between, occupants))}
            yield _fen(pieces, side, "KQkq"), move, special, None
        yield _fen({"e1": "K", "e8": "k", inner: rook}, side, "KQkq"), move, "BadCastle", None


def _castle_rights():
    """Each castle under each of the 16 castling fields: a pseudo-move needs
    no right, and the king drops both of its colour's."""
    for (side, move, special, corner, *_), rights in product(CASTLES, RIGHTS):
        rook = "R" if side == "w" else "r"
        yield _fen({"e1": "K", "e8": "k", corner: rook}, side, rights), move, special, None


def _king_two_file_moves():
    """Every king two-file move along ranks 1 and 8, by either colour, with
    no rook or with its own rooks on the rank's free corners. Only e1g1, e1c1
    and their rank-8 twins castle, with the rook there; a1c1 and a8c8 are
    castle-shaped too, but their corner is the king's origin: BadCastle."""
    for rank, (side, king, rook, enemy_king) in product((1, 8), (("w", "K", "R", "k"),
                                                                  ("b", "k", "r", "K"))):
        for from_file, to_file in product(range(8), repeat=2):
            if abs(from_file - to_file) != 2:
                continue
            move = f"{FILES[from_file]}{rank}{FILES[to_file]}{rank}"
            for rooks in (False, True):
                pieces = {f"{FILES[from_file]}{rank}": king, "d5": enemy_king}
                if rooks:
                    for corner in "ah":
                        pieces.setdefault(f"{corner}{rank}", rook)
                expected = None
                if (from_file, to_file) in ((4, 6), (4, 2), (0, 2)):
                    expected = "BadCastle"
                    if rooks and from_file == 4:
                        expected = "castle-kingside" if to_file == 6 else "castle-queenside"
                yield _fen(pieces, side, "KQkq"), move, expected, None


def _promotions():
    """Every promotion: each file, both colours, by a push and by each
    diagonal capture of an enemy rook, to each of q, R, b and N, and the same
    moves without a suffix: MissingPromotion. Then a one-square pawn step
    that reaches no edge, with a suffix: BadPromotionPiece."""
    for side, rank, to_rank, pawn, enemy in (("w", 7, 8, "P", "r"), ("b", 2, 1, "p", "R")):
        for file, to_file in product(range(8), repeat=2):
            if abs(file - to_file) > 1:
                continue
            move = f"{FILES[file]}{rank}{FILES[to_file]}{to_rank}"
            pieces = {"d4": "K", "d5": "k", move[:2]: pawn}
            if to_file != file:
                pieces[move[2:]] = enemy
            fen = _fen(pieces, side, "KQkq")
            for suffix in "qRbN":
                yield fen, move + suffix, "promotion", None
            yield fen, move, "MissingPromotion", None
    for side, start, end, pawn in (("w", 2, 3, "P"), ("b", 7, 6, "p")):
        for file in range(8):
            move = f"{FILES[file]}{start}{FILES[file]}{end}{'qRbN'[file % 4]}"
            fen = _fen({"e1": "K", "e8": "k", move[:2]: pawn}, side)
            yield fen, move, "BadPromotionPiece", None


def _row_end_moves():
    """Every move between an h-file square and an a-file square one rank up
    or down, either way: the squares that follow each other across a row's
    end in a row-major board. Each of the 12 pieces moves onto an empty
    square, an enemy rook or its own rook, with every castling right on the
    board, so that a corner the move leaves or takes drops its right; a pawn
    reaching rank 1 or 8 promotes to a queen. A king mover makes two kings of
    its colour and a pawn on rank 1 or 8 fails strict validation too."""
    for h_rank, a_rank in product(range(1, 9), repeat=2):
        if abs(h_rank - a_rank) != 1:
            continue
        for (origin, target), mover in product(((f"h{h_rank}", f"a{a_rank}"),
                                                (f"a{a_rank}", f"h{h_rank}")), "KQRBNPkqrbnp"):
            promotes = mover in "Pp" and target[1] in "18"
            for on_target in ("", "r", "R"):
                pieces = {"d4": "K", "d5": "k", origin: mover, target: on_target}
                yield (_fen(pieces, "w" if mover.isupper() else "b", "KQkq"),
                       f"{origin}{target}{'q' if promotes else ''}",
                       "promotion" if promotes else None, None)


# each corner, the right it hosts, and the squares a rook and a knight
# capture onto it from, neither of them a corner
CORNERS = (("a1", "Q", "a4", "b3"), ("h1", "K", "h4", "g3"),
           ("a8", "q", "a5", "b6"), ("h8", "k", "h5", "g6"))


def _corner_captures():
    """Every capture onto a corner, by a rook and by a knight of either
    colour, of an enemy rook or knight, under each of the 16 castling
    fields: the corner's right goes, whatever took what, and no other."""
    for (corner, _, rook_from, knight_from), side, rights in product(CORNERS, "wb", RIGHTS):
        for (mover, origin), taken in product((("R", rook_from), ("N", knight_from)), "rn"):
            pair = mover + taken if side == "w" else (mover + taken).swapcase()
            pieces = {"e1": "K", "e8": "k", origin: pair[0], corner: pair[1]}
            yield _fen(pieces, side, rights), origin + corner, None, None


CORPUS = {
    "en-passant": tuple(_en_passant()),
    "double-push": tuple(_double_pushes()),
    "castle": tuple(_castles()),
    "castle-rights": tuple(_castle_rights()),
    "king-two-file": tuple(_king_two_file_moves()),
    "promotion": tuple(_promotions()),
    "row-end": tuple(_row_end_moves()),
    "corner": tuple(_corner_captures()),
}

# family -> its number of entries, and the errors it meets under strict
# validation that lenient validation does not raise, with ep_mode "always"
# and with "adjacent-only": an own piece written over, a target left for the
# wrong side (each step from rank 5 or 7 by white, 2 or 4 by black), two
# kings of a colour or a pawn on rank 1 or 8
COUNTS = {
    "en-passant": (2 * 14 * 5 + 4 * 2, {"FriendlyCapture": 28}, {"FriendlyCapture": 28}),
    "double-push": (2 * 4 * 22 + 4 * 4, {"Validation": 4 * 22}, {"Validation": 4 * 14}),
    "castle": (2 * (9 + 27 + 2), {"FriendlyCapture": 42}, {"FriendlyCapture": 42}),
    "castle-rights": (4 * 16, {}, {}),
    "king-two-file": (2 * 2 * 12 * 2, {"FriendlyCapture": 8}, {"FriendlyCapture": 8}),
    "promotion": (2 * 22 * 5 + 16, {}, {}),
    "row-end": (14 * 2 * 12 * 3, *[{"Validation": 192, "FriendlyCapture": 272}] * 2),
    "corner": (4 * 2 * 2 * 2 * 16, {}, {}),
}


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
@pytest.mark.parametrize("family", CORPUS)
def test_both_paths_agree_on_every_entry(family, options):
    size, *strict_errors = COUNTS[family]
    assert len(CORPUS[family]) == size
    met = Counter()
    for fen, move, expected, push in CORPUS[family]:
        string, special, array = both_paths(fen, move, options)
        assert string == array, (fen, move)
        if " " in string:
            assert special == expected, (fen, move)
            if push:
                passed, beside = push
                set_target = beside or options.ep_mode == "always"
                assert string.split()[3] == (passed if set_target else "-"), (fen, move)
        elif string != expected:
            met[string] += 1
    index = ("always", "adjacent-only").index(options.ep_mode)
    assert met == (strict_errors[index] if options.validation == "strict" else {})


# a failure names the corner and whether a rook or a knight stood on it
@pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
@pytest.mark.parametrize("taken", "rn")
@pytest.mark.parametrize("corner, right", [corner[:2] for corner in CORNERS])
def test_a_capture_on_a_corner_drops_its_right_alone(corner, right, taken, options):
    square = Square.from_name(corner)
    cases = [(fen, move) for fen, move, _, _ in CORPUS["corner"] if move[2:] == corner
             and piece_at(parse_fen(fen), square).kind == taken.upper()]
    assert len(cases) == 2 * 2 * 16
    for fen, move in cases:
        expected = fen.split()[2].replace(right, "") or "-"
        string, _, array = both_paths(fen, move, options)
        assert string.split()[2] == array.split()[2] == expected, (fen, move)


# the families that hold castles and en-passant captures; their specials by
# kind under each validation, strict refusing the 42 castles and the 28
# captures that write over an own piece; and the segments each kind touches
LOCAL_FAMILIES = ("castle", "castle-rights", "king-two-file", "en-passant")
LOCAL_COUNTS = {
    "lenient": {"castle-kingside": 54, "castle-queenside": 90, "en-passant-capture": 148},
    "strict": {"castle-kingside": 44, "castle-queenside": 60, "en-passant-capture": 120},
}
SEGMENTS_TOUCHED = {"castle-kingside": 1, "castle-queenside": 1, "en-passant-capture": 2}


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
def test_a_castle_or_en_passant_capture_rewrites_only_the_segments_it_touches(options):
    """The paper's locality for the specials that test_07 skips: a castle
    touches one segment and an en-passant capture two. Each of them is
    rewritten, and every other segment is byte-identical to the input's, in
    the string path's FEN and the oracle's alike."""
    met = Counter()
    for family in LOCAL_FAMILIES:
        for fen, move, _, _ in CORPUS[family]:
            try:
                outcome = apply_move(fen, move, options)
            except FenstringError:
                continue
            if outcome.special not in SEGMENTS_TOUCHED:
                continue
            met[outcome.special] += 1
            touched = outcome.segments_touched
            assert len(touched) == SEGMENTS_TOUCHED[outcome.special], (fen, move)
            before = fen.split()[0].split("/")
            for after in (outcome.fen_after, oracle_apply(fen, move, options)):
                rows = after.split()[0].split("/")
                for i in range(8):
                    assert (rows[i] == before[i]) is (i not in touched), (fen, move, after, i)
    assert met == LOCAL_COUNTS[options.validation]
