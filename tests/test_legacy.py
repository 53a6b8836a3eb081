import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fenstring import emit_legacy_forsyth, parse_fen, parse_legacy_forsyth
from fenstring.errors import (
    AdjacentDigitsError,
    BadTokenError,
    FenSyntaxError,
    GroupCountError,
    RankWidthError,
    SegmentCountError,
)

from conftest import BAIRD_LEGACY, BAIRD_PLACEMENT, FIG1_FEN, legacy_ranks, segments


class TestParse:
    def test_baird(self):
        assert "/".join(parse_legacy_forsyth(BAIRD_LEGACY)) == BAIRD_PLACEMENT

    def test_empty_board(self):
        assert parse_legacy_forsyth("8, 8, 8, 8, 8, 8, 8, 8") == ("8",) * 8

    def test_adjacent_integers_summed(self):
        assert parse_legacy_forsyth("3 5, 8, 8, 8, 8, 8, 8, 8")[0] == "8"

    def test_rank_width(self):
        with pytest.raises(RankWidthError):
            parse_legacy_forsyth("1 B 7, 8, 8, 8, 8, 8, 8, 8")

    @pytest.mark.parametrize("rank", ["9 P", "4 5"], ids=["before-a-piece", "at-the-end"])
    def test_empty_run_longer_than_a_rank(self, rank):
        with pytest.raises(RankWidthError) as info:
            parse_legacy_forsyth(f"{rank}, 8, 8, 8, 8, 8, 8, 8")
        assert str(info.value) == f"empty run of 9 in rank {rank!r}"

    def test_group_count(self):
        with pytest.raises(GroupCountError):
            parse_legacy_forsyth("8, 8, 8, 8, 8, 8, 8")

    def test_bad_token(self):
        with pytest.raises(BadTokenError):
            parse_legacy_forsyth("1 N 6, 8, 8, 8, 8, 8, 8, 8")  # knight must be Kt

    @pytest.mark.parametrize("token", ["²", "٨", "9" * 5000, "0" * 9 + "8"],
                             ids=["superscript", "arabic-indic", "5000-digits", "10-digits"])
    def test_run_token_not_short_ascii_digits(self, token):
        with pytest.raises(BadTokenError):
            parse_legacy_forsyth(f"{token}, 8, 8, 8, 8, 8, 8, 8")

    def test_nine_digit_run_token(self):
        assert parse_legacy_forsyth("0" * 8 + "8, 8, 8, 8, 8, 8, 8, 8") == ("8",) * 8

    def test_bad_token_after_an_overlong_run(self):
        # a run is judged when a piece or the rank's end closes it, so the
        # bad token that comes first is the error
        with pytest.raises(BadTokenError):
            parse_legacy_forsyth("9 x, 8, 8, 8, 8, 8, 8, 8")


class TestEmit:
    def test_fig1(self):
        placement = parse_fen(FIG1_FEN).ranks
        assert emit_legacy_forsyth(placement) == (
            "7 Kt, 1 b 3 R Kt 1, 7 k, 6 b 1, K B p 4 p, 5 q 2, 6 Q 1, 7 kt"
        )

    def test_empty_board(self):
        assert emit_legacy_forsyth(("8",) * 8) == "8, 8, 8, 8, 8, 8, 8, 8"

    def test_adjacent_digits_rejected(self):
        # "44" spans 8 squares, but parse_fen rejects it, so it is no segment
        with pytest.raises(AdjacentDigitsError):
            emit_legacy_forsyth(("44",) * 8)

    @pytest.mark.parametrize("count", [7, 9])
    def test_segment_count(self, count):
        with pytest.raises(SegmentCountError):
            emit_legacy_forsyth(("8",) * count)

    def test_iterator_of_segments(self):
        assert emit_legacy_forsyth(iter(("8",) * 8)) == "8, 8, 8, 8, 8, 8, 8, 8"

    @pytest.mark.parametrize("make", [list, lambda s: (x for x in s), dict.fromkeys],
                             ids=["list", "generator", "dict-keys"])
    def test_any_other_iterable_of_8_segments(self, make):
        segments = ("8", "p7", "1p6", "2p5", "3p4", "4p3", "5p2", "6p1")
        assert emit_legacy_forsyth(make(segments)) == (
            "8, p 7, 1 p 6, 2 p 5, 3 p 4, 4 p 3, 5 p 2, 6 p 1"
        )

    @pytest.mark.parametrize("text", ["88888888", "8/8/8/8/8/8/8/8", "RRRRRRRR"])
    def test_placement_given_as_text_is_refused(self, text):
        # text iterates by character: "88888888" would read as 8 one-letter segments
        with pytest.raises(FenSyntaxError) as info:
            emit_legacy_forsyth(text)
        assert type(info.value) is FenSyntaxError
        assert str(info.value) == "a placement must be an iterable of rank segments, got str"

    def test_baird_round(self):
        # emits Appendix-style text equal to the source modulo trailing period
        placement = tuple(BAIRD_PLACEMENT.split("/"))
        assert emit_legacy_forsyth(placement) == BAIRD_LEGACY.rstrip(".")


@given(st.lists(segments, min_size=8, max_size=8))
def test_round_trip(placement):
    placement = tuple(placement)
    assert parse_legacy_forsyth(emit_legacy_forsyth(placement)) == placement


@given(st.sampled_from((8, 8, 8, 8, 7, 9)).flatmap(
    lambda n: st.lists(legacy_ranks(), min_size=n, max_size=n)))
@example(["0 0 3 05 ", "P 0 7", "1 1 1 1 1 1 1 1", "Kt 7", "8", "8", "8", "4 k 3"])
def test_generated_ranks_parse_to_a_placement_or_fail_typed(ranks):
    try:
        segments = parse_legacy_forsyth(", ".join(ranks))
    except (RankWidthError, BadTokenError, GroupCountError):
        return
    assert parse_fen("/".join(segments) + " w - - 0 1").ranks == segments
