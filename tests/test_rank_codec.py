import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fenstring import contract_rank, expand_rank, segment_index
from fenstring.errors import BadExpandedRankError, BadSegmentError, OutOfRangeError
from fenstring.fen_codec import PIECE_LETTERS, _SEGMENT_PLANS, _check_segment, _write_slot

from conftest import segments


class TestExpand:
    @pytest.mark.parametrize(
        "segment,expanded",
        [
            ("1b3RN1", "1b111RN1"),
            ("8", "11111111"),
            ("KBp4p", "KBp1111p"),
            ("7k", "1111111k"),
            ("rnbqkbnr", "rnbqkbnr"),
        ],
    )
    def test_examples(self, segment, expanded):
        assert expand_rank(segment) == expanded


# characters that are no slot: other digits, a piece mark, the rank
# separator, whitespace and a non-ASCII digit
_NOT_SLOTS = "023456789x/ \t\n٣"


class TestContract:
    @pytest.mark.parametrize(
        "expanded,segment",
        [
            ("1bR111N1", "1bR3N1"),
            ("11111R1k", "5R1k"),
            ("11111111", "8"),
            ("1b1111N1", "1b4N1"),
        ],
    )
    def test_examples(self, expanded, segment):
        assert contract_rank(expanded) == segment

    @pytest.mark.parametrize("expanded", ["", "1111111", "111111111", "11x11111", "11211111"])
    def test_rejections(self, expanded):
        with pytest.raises(BadExpandedRankError):
            contract_rank(expanded)

    @given(st.one_of(
        st.text(alphabet=PIECE_LETTERS + "1" + _NOT_SLOTS, max_size=10),
        st.text(alphabet=PIECE_LETTERS + "1", min_size=7, max_size=9),
        # 8 slots, one written over by a character that is no slot
        st.builds(lambda slots, i, ch: slots[:i] + ch + slots[i + 1:],
                  st.text(alphabet=PIECE_LETTERS + "1", min_size=8, max_size=8),
                  st.integers(0, 7), st.sampled_from(_NOT_SLOTS)),
    ))
    @example("11111111\n")
    @example("1111111٣")
    def test_accepts_exactly_eight_slots(self, text):
        # the accept set, stated here as a regular expression the codec does not use
        if re.fullmatch("[KQRBNPkqrbnp1]{8}", text):
            assert expand_rank(contract_rank(text)) == text
        else:
            with pytest.raises(BadExpandedRankError) as info:
                contract_rank(text)
            assert str(info.value) == f"bad expanded rank: {text!r}"


class TestIndexing:
    def test_segment_index(self):
        assert segment_index(8) == 0
        assert segment_index(7) == 1
        assert segment_index(1) == 7

    @pytest.mark.parametrize("rank", [0, 9, -1])
    def test_segment_index_range(self, rank):
        with pytest.raises(OutOfRangeError):
            segment_index(rank)


@given(segments)
def test_contract_of_expand_is_identity(segment):
    assert contract_rank(expand_rank(segment)) == segment


@given(st.text(alphabet=PIECE_LETTERS + "1", min_size=8, max_size=8))
def test_expand_of_contract_is_identity(expanded):
    assert expand_rank(contract_rank(expanded)) == expanded


@given(segments)
def test_width_preserved(segment):
    assert len(expand_rank(segment)) == 8


def test_shift_lemma_exhaustive():
    # moving a lone piece k files equals clearing its slot and writing its
    # letter k slots away, checked for every letter, origin and destination
    for letter in PIECE_LETTERS:
        for start in range(8):
            for end in range(8):
                if end == start:
                    continue
                before = ["1"] * 8
                before[start] = letter
                after = ["1"] * 8
                after[end] = letter
                moved = list(expand_rank(contract_rank("".join(before))))
                moved[start] = "1"
                moved[end] = letter
                assert contract_rank("".join(moved)) == contract_rank("".join(after))


def _write_by_row(segment, file, letter):
    """The reference write: expand to 8 slots, set one, contract."""
    row = list(expand_rank(segment))
    old, row[file] = row[file], letter
    return contract_rank("".join(row)), old


def test_writer_matches_row_write_on_every_shape():
    # each of the 256 sets of occupied squares, twice with random letters,
    # written on every file with every slot letter
    rng = random.Random(20260824)
    shapes = set()
    for mask in range(256):
        for _ in range(2):
            segment = contract_rank(
                "".join(rng.choice(PIECE_LETTERS) if mask >> f & 1 else "1" for f in range(8))
            )
            shapes.add("".join("x" if ch in PIECE_LETTERS else ch for ch in segment))
            for file in range(8):
                for letter in PIECE_LETTERS + "1":
                    assert _write_slot(segment, file, letter) == _write_by_row(
                        segment, file, letter
                    ), (segment, file, letter)
    # the table is keyed by the ASCII bytes of each shape
    assert {shape.encode() for shape in shapes} == set(_SEGMENT_PLANS)


@given(st.one_of(segments, st.text(alphabet=PIECE_LETTERS + "0123456789x²/", max_size=9)))
@example("44")
@example("x7")
@example("²7")
@example("9")
@example("")
@example("17")
@example("8/")
@example("xxxxxxxx")
@example("ppppépppp")
@example("٨")
@example("\ud8007")
@example("８")
@example("?7")
def test_writer_accepts_exactly_the_valid_segments(text):
    try:
        _check_segment(text)
    except BadSegmentError:
        for letter in ("P", "1"):
            with pytest.raises(BadExpandedRankError):
                _write_slot(text, 0, letter)
    else:
        for letter in ("P", "1"):
            assert _write_slot(text, 0, letter) == _write_by_row(text, 0, letter)
