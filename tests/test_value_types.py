"""The value types: squares, pieces and options are interned immutable
values that compare by identity; a Move is a named tuple, checked when built."""

import copy
import pickle
from itertools import product

import pytest

from fenstring import ApplyOptions, Move, Piece, Square
from fenstring.errors import (
    BadMoveSyntaxError,
    BadOptionError,
    BadPieceLetterError,
    BadPromotionPieceError,
    BadSquareError,
)
from fenstring.fen_codec import _OPTION_VALUES, SQUARES

_MOVES = [
    (SQUARES[a], SQUARES[b], promotion)
    for a, b in (("e2", "e4"), ("e4", "e2"), ("e7", "e8"), ("a7", "b8"))
    for promotion in (None, "Q", "N")
]
# each value type, the fields of every one of its values (a sample of moves),
# and whether its constructor hands out one shared instance per value
_TYPES = {
    "Square": (Square, [(f, r) for r in range(1, 9) for f in range(8)], True),
    "Piece": (Piece, [(kind, color) for kind in "KQRBNP" for color in "wb"], True),
    "ApplyOptions": (ApplyOptions, list(product(*_OPTION_VALUES.values())), True),
    "Move": (Move, _MOVES, False),
}
_FIELD_NAMES = {
    "Square": ("file", "rank"),
    "Piece": ("kind", "color"),
    "ApplyOptions": ("ep_mode", "clock_mode", "validation"),
    "Move": ("from_square", "to_square", "promotion"),
}


def _values(name):
    cls, fields, _interned = _TYPES[name]
    return [(args, cls(*args)) for args in fields]


@pytest.mark.parametrize("name", _TYPES)
def test_equal_and_hash_equal_exactly_when_the_fields_are(name):
    cls, fields, interned = _TYPES[name]
    values = _values(name)
    for args, value in values:
        again = cls(*args)
        assert again == value and hash(again) == hash(value)
        assert (again is value) == interned
        for other_args, other in values:
            assert (value == other) == (args == other_args)
            assert (value != other) == (args != other_args)


@pytest.mark.parametrize("name", _TYPES)
def test_fields_read_back_by_name_and_by_keyword(name):
    cls = _TYPES[name][0]
    for args, value in _values(name):
        assert tuple(getattr(value, field) for field in _FIELD_NAMES[name]) == args
        assert cls(**dict(zip(_FIELD_NAMES[name], args))) == value


@pytest.mark.parametrize("name", _TYPES)
def test_assigning_or_deleting_a_field_raises_attribute_error(name):
    _args, value = _values(name)[0]
    for field in _FIELD_NAMES[name] + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert _values(name)[0] == (_args, value)


@pytest.mark.parametrize("name", _TYPES)
@pytest.mark.parametrize("how", ["copy", "deepcopy"] + [
    f"pickle-{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
])
def test_copy_and_pickle_give_an_equal_value_or_the_same_one(name, how):
    interned = _TYPES[name][2]
    for _args, value in _values(name):
        if how.startswith("pickle"):
            again = pickle.loads(pickle.dumps(value, int(how.split("-")[1])))
        else:
            again = getattr(copy, how)(value)
        assert again == value and type(again) is type(value)
        if interned:
            assert again is value


@pytest.mark.parametrize("name", _TYPES)
def test_repr_names_the_fields(name):
    for args, value in _values(name):
        shown = ", ".join(f"{field}={arg!r}" for field, arg in zip(_FIELD_NAMES[name], args))
        assert repr(value) == f"{name}({shown})"


def test_squares_and_pieces_are_the_parser_s():
    assert all(Square(sq.file, sq.rank) is sq for sq in SQUARES.values())
    assert all(Piece.from_letter(letter) is Piece(letter.upper(), "w" if letter.isupper() else "b")
               for letter in "KQRBNPkqrbnp")
    assert [Square.from_name(name).name for name in SQUARES] == list(SQUARES)
    assert ApplyOptions() is ApplyOptions("always", "standard", "lenient")


_E2, _E4 = SQUARES["e2"], SQUARES["e4"]


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: Square(8, 1), BadSquareError, id="Square-file-8"),
    pytest.param(lambda: Square(0, 0), BadSquareError, id="Square-rank-0"),
    pytest.param(lambda: Square(-1, 9), BadSquareError, id="Square-negative"),
    pytest.param(lambda: Square("a", 1), BadSquareError, id="Square-text-file"),
    pytest.param(lambda: Square(0, 1.0), BadSquareError, id="Square-float-rank"),
    pytest.param(lambda: Square.from_name("i1"), BadSquareError, id="Square-bad-name"),
    pytest.param(lambda: Piece("X", "w"), BadPieceLetterError, id="Piece-kind-X"),
    pytest.param(lambda: Piece("K", "z"), BadPieceLetterError, id="Piece-color-z"),
    pytest.param(lambda: Piece("k", "b"), BadPieceLetterError, id="Piece-lowercase-kind"),
    pytest.param(lambda: Piece([], "w"), BadPieceLetterError, id="Piece-list-kind"),
    pytest.param(lambda: Piece.from_letter("x"), BadPieceLetterError, id="Piece-bad-letter"),
    pytest.param(lambda: Piece.from_letter(["K"]), BadPieceLetterError, id="Piece-list-letter"),
    pytest.param(lambda: ApplyOptions(ep_mode="bogus"), BadOptionError, id="ApplyOptions-ep"),
    pytest.param(lambda: ApplyOptions(clock_mode="Frozen"), BadOptionError, id="ApplyOptions-clock"),
    pytest.param(lambda: ApplyOptions(validation=[]), BadOptionError, id="ApplyOptions-list"),
    pytest.param(lambda: Move(_E2, _E2), BadMoveSyntaxError, id="Move-null"),
    pytest.param(lambda: Move("e2", _E4), BadSquareError, id="Move-text-square"),
    pytest.param(lambda: Move(_E2, _E4, "K"), BadPromotionPieceError, id="Move-promote-king"),
    pytest.param(lambda: Move(_E2, _E4, "q"), BadPromotionPieceError, id="Move-lowercase"),
    pytest.param(lambda: Move(_E2, _E4)._replace(to_square=_E2), BadMoveSyntaxError,
                 id="Move-replace-null"),
])
def test_each_bad_value_raises_its_typed_error(build, error):
    with pytest.raises(error):
        build()
