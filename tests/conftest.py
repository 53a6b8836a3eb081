import random
import re

import pytest
from hypothesis import strategies as st

from fenstring import (
    START_FEN,
    ApplyOptions,
    Square,
    apply_move,
    board_from_fen,
    cell_index,
    contract_rank,
)
from fenstring.errors import NoPiecesError

FIG1_FEN = "7N/1b3RN1/7k/6b1/KBp4p/5q2/6Q1/7n w - - 0 1"
EMPTY_FEN = "8/8/8/8/8/8/8/8 w - - 0 1"

ALL_OPTIONS = [
    ApplyOptions(ep, clock, validation)
    for ep in ("always", "adjacent-only")
    for clock in ("standard", "frozen")
    for validation in ("lenient", "strict")
]

BAIRD_LEGACY = (
    "1 B 6, 2 kt 5, p 1 Kt 1 P 2 R, P 1 K 3 Kt 1, "
    "4 P k 2, 1 Q 2 p 2 p, 6 kt P, 1 B 4 R 1."
)
BAIRD_PLACEMENT = "1B6/2n5/p1N1P2R/P1K3N1/4Pk2/1Q2p2p/6nP/1B4R1"

_SLOT_ALPHABET = "KQRBNPkqrbnp1"

# compact rank segment, generated through its expanded form
segments = st.text(alphabet=_SLOT_ALPHABET, min_size=8, max_size=8).map(contract_rank)

_LEGACY_PIECE_TOKENS = ("K", "Q", "R", "B", "Kt", "P", "k", "q", "r", "b", "kt", "p")


@st.composite
def legacy_ranks(draw):
    """One legacy rank: the 12 piece tokens and run tokens 0-9, some with
    leading zeros, some adjacent. Most span exactly 8 squares; 1 in 8 is
    loose, its runs may overshoot and it may hold the bad token "N"."""
    loose = draw(st.integers(0, 7)) == 0
    pieces = _LEGACY_PIECE_TOKENS + (("N",) if loose else ())
    tokens, width = [], 0
    while width < 8:
        if draw(st.booleans()):
            run = draw(st.integers(0, 9 if loose else 8 - width))
            tokens.append("0" * draw(st.integers(0, 2)) + str(run))
            width += run
        else:
            tokens.append(draw(st.sampled_from(pieces)))
            width += 1
    return " ".join(tokens)


_castling_fields = st.sets(st.sampled_from("KQkq")).map(
    lambda s: "".join(c for c in "KQkq" if c in s) or "-"
)
_ep_fields = st.one_of(
    st.just("-"),
    st.builds(lambda f, r: f + r, st.sampled_from("abcdefgh"), st.sampled_from("36")),
)


@st.composite
def fens(draw):
    """Canonical, grammatically valid (not necessarily legal) FEN text."""
    placement = "/".join(draw(segments) for _ in range(8))
    side = draw(st.sampled_from("wb"))
    castling = draw(_castling_fields)
    ep = draw(_ep_fields)
    halfmove = draw(st.integers(0, 300))
    fullmove = draw(st.integers(1, 999))
    return f"{placement} {side} {castling} {ep} {halfmove} {fullmove}"


# the move grammar, written from its definition and not from the reader:
# square, optional '-', square, optional promotion letter in either case;
# text is a move when the whole of it matches
MOVE_GRAMMAR = re.compile(r"([a-h][1-8])-?([a-h][1-8])([qrbnQRBN]?)")

# what turns a move into nearly a move: separators, whitespace, non-ASCII
# digits and fullwidth letters that look like ASCII ones, a doubled suffix
_MOVE_NOISE = "- \n\t٨８ｅＱqQx"


@st.composite
def nearly_moves(draw):
    """Move text by the grammar, with up to three characters inserted,
    deleted or replaced."""
    text = draw(st.from_regex(MOVE_GRAMMAR, fullmatch=True))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        ch = draw(st.sampled_from(_MOVE_NOISE + "abcdefgh12345678"))
        text = text[:at] + ("" if edit == "delete" else ch) + text[at + (edit != "insert"):]
    return text


move_texts = st.one_of(st.text(max_size=8), nearly_moves())


# the FEN grammar, written from the format's definition and not from the
# parser: one pattern per field, fields apart by runs of whitespace, which
# may also lead and trail. Whitespace is every character str.isspace()
# accepts, listed here: the ASCII space, tab, line feed, vertical tab, form
# feed and carriage return, the ASCII separators 0x1c-0x1f, and the Unicode
# spaces and line breaks. No field holds any of them, so no text reads two
# ways.
FEN_WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
                  "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
                  "\u2028\u2029\u202f\u205f\u3000")
# a rank segment: pieces and run digits 1-8, no two digits side by side;
# that it spans exactly 8 squares is checked beside the pattern
_SEGMENT = r"(?:[1-8]?[KQRBNPkqrbnp])*[1-8]?"
FEN_FIELDS = {
    "placement": rf"{_SEGMENT}(?:/{_SEGMENT}){{7}}",
    "side": r"[wb]",
    # each right at most once, in any order (checked beside the pattern)
    "castling": r"-|[KQkq]{1,4}",
    "en_passant": r"-|[a-h][36]",
    # 1 to 9 ASCII digits; the fullmove number is 1 or more
    "halfmove": r"[0-9]{1,9}",
    "fullmove": r"[0-9]{1,9}",
}
_SPACE = f"[{re.escape(FEN_WHITESPACE)}]"
FEN_GRAMMAR = re.compile(
    f"{_SPACE}*" + f"{_SPACE}+".join(f"(?P<{name}>{pattern})" for name, pattern in FEN_FIELDS.items())
    + f"{_SPACE}*"
)


def reference_fen(text, validation="lenient"):
    """The canonical text of a FEN by the reference grammar (single spaces,
    castling in "KQkq" order, clocks as integers), or None when the grammar
    refuses it; "strict" also requires one king a side, no pawn on ranks 1
    and 8, and an en-passant square on the side to move's sixth rank."""
    match = FEN_GRAMMAR.fullmatch(text)
    if match is None:
        return None
    placement, side, castling, ep, halfmove, fullmove = match.groups()
    segments = placement.split("/")
    if any(sum(int(ch) if ch.isdigit() else 1 for ch in segment) != 8 for segment in segments):
        return None
    if len(set(castling)) != len(castling) or int(fullmove) < 1:
        return None
    if validation == "strict" and not (
        placement.count("K") == placement.count("k") == 1
        and not set("Pp") & set(segments[0] + segments[7])
        and ep in ("-", f"{ep[0]}{'6' if side == 'w' else '3'}")
    ):
        return None
    castling = "".join(right for right in "KQkq" if right in castling) or "-"
    return f"{placement} {side} {castling} {ep} {int(halfmove)} {int(fullmove)}"


# what turns a FEN into nearly a FEN: whitespace of every kind, characters
# that look like whitespace and are not, digits the grammar refuses, and
# letters of each field in the wrong place
_FEN_NOISE = "/ -\t\n\x1c\x1f\xa0\u2003\u3000\u200b\ufeff0129\u0663\uff57KkQqPpRrNxwb36e"
# field texts just inside or just outside each field's grammar
_FIELD_VARIANTS = {
    1: ("w", "b", "W", "ww", "-"),
    2: ("qkQK", "kK", "KK", "KQkqK", "K-", "--", "Kx", "kqQ"),
    3: ("e3", "h6", "e4", "i3", "a0", "e", "--"),
    4: ("00", "000000001", "0000000001", "999999999", "-1", "+1", "\u0663", "1_0", "0x1"),
    5: ("0", "01", "000000001", "1000000000", "-1", "+1", "\u0663"),
}


@st.composite
def _fens_strict_may_pass(draw):
    """FEN text by the grammar with one king a side, no pawn on ranks 1
    and 8 but now and then, and an en-passant square mostly on the side to
    move's sixth rank: text that strict validation often accepts."""
    slots = [list(draw(st.text(alphabet="QRBNPqrbnp1", min_size=8, max_size=8))) for _ in range(8)]
    if draw(st.integers(0, 3)):
        for row in slots[0], slots[7]:
            row[:] = ["1" if slot in "Pp" else slot for slot in row]
    white_king, black_king = draw(st.lists(st.integers(0, 63), min_size=2, max_size=2, unique=True))
    slots[white_king // 8][white_king % 8] = "K"
    slots[black_king // 8][black_king % 8] = "k"
    placement = "/".join(contract_rank("".join(row)) for row in slots)
    side = draw(st.sampled_from("wb"))
    ep = draw(st.sampled_from(("-", "-", f"e{'6' if side == 'w' else '3'}", "c3", "h6")))
    return f"{placement} {side} {draw(_castling_fields)} {ep} 0 {draw(st.integers(1, 99))}"


@st.composite
def nearly_fens(draw):
    """FEN text by the grammar with one field swapped for a near variant,
    its fields apart by runs of other whitespace, and up to three characters
    inserted, deleted or replaced: any, all or none of these."""
    fields = draw(st.one_of(fens(), _fens_strict_may_pass())).split(" ")
    if draw(st.booleans()):
        at = draw(st.sampled_from(sorted(_FIELD_VARIANTS)))
        fields[at] = draw(st.sampled_from(_FIELD_VARIANTS[at]))
    text = " ".join(fields)
    if draw(st.booleans()):
        # a run before each field, the first one leading
        runs = st.text(FEN_WHITESPACE, min_size=1, max_size=2)
        text = "".join(draw(runs) + field for field in fields)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        ch = draw(st.sampled_from(_FEN_NOISE))
        text = text[:at] + ("" if edit == "delete" else ch) + text[at + (edit != "insert"):]
    return text


def reference_pseudo_move(fen, seed):
    """The pseudo-move generator written on the mailbox board: the reference
    that random_pseudo_move must draw the same moves as."""
    rng = random.Random(seed)
    board = board_from_fen(fen)
    origins = [
        i for i, piece in enumerate(board.cells) if piece is not None and piece.color == board.side
    ]
    if not origins:
        raise NoPiecesError(f"side {board.side!r} has no pieces")

    while True:
        from_i = rng.choice(origins)
        to_i = rng.randrange(64)
        if to_i == from_i:
            continue
        from_sq = Square(from_i % 8, 8 - from_i // 8)
        to_sq = Square(to_i % 8, 8 - to_i // 8)
        mover = board.cells[from_i]

        if (
            mover.kind == "K"
            and from_sq.rank == to_sq.rank
            and to_sq.rank in (1, 8)
            and abs(from_sq.file - to_sq.file) == 2
            and to_sq.file in (2, 6)
        ):
            corner = Square(7 if to_sq.file == 6 else 0, to_sq.rank)
            rook = board.cells[cell_index(corner)]
            if rook is None or rook.kind != "R" or rook.color != mover.color:
                continue

        text = from_sq.name + to_sq.name
        if mover.kind == "P" and to_sq.rank in (1, 8):
            text += rng.choice("qrbn")
        return text


def pseudo_game(iterations, seed, options=None, start_fen=START_FEN):
    """(fen_before, move, outcome) triples along a seeded pseudo-move chain,
    drawn by the reference generator and applied with apply_move."""
    options = options or ApplyOptions()
    rng = random.Random(seed)
    fen = start_fen
    out = []
    for _ in range(iterations):
        try:
            move = reference_pseudo_move(fen, rng.randrange(2**32))
        except NoPiecesError:
            fen = start_fen
            move = reference_pseudo_move(fen, rng.randrange(2**32))
        outcome = apply_move(fen, move, options)
        out.append((fen, move, outcome))
        fen = outcome.fen_after
    return out


@pytest.fixture(scope="session")
def fuzz_corpus():
    """Shared chain of 20k applied pseudo-moves under default options."""
    return pseudo_game(20000, seed=20260824)
