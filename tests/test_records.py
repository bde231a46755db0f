"""The value-class base ``records.Record``: equality, the cached hash,
immutability, pickling, copying and class patterns."""

import copy
import pickle

import pytest

from danielewski.membership import Bracket, Leaf
from danielewski.records import Record


class Pair(Record):
    __slots__ = ("a", "b")


class Twin(Record):
    __slots__ = ("a", "b")


class Counted:
    """A field value that counts the calls of its ``__hash__``."""

    def __init__(self):
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return 7


def test_hash_is_computed_once():
    field = Counted()
    r = Pair(field, 1)
    assert hash(r) == hash(r)
    assert field.hashes == 1


def test_equality_and_hash_follow_the_fields_within_one_class():
    assert Pair(1, (2, 3)) == Pair(a=1, b=(2, 3))
    assert hash(Pair(1, (2, 3))) == hash(Pair(1, (2, 3)))
    assert Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2) != Twin(1, 2) and Twin(1, 2) != Pair(1, 2)
    assert len({Pair(1, 2), Twin(1, 2), Pair(1, 2)}) == 2


def test_records_are_immutable():
    r = Pair(1, 2)
    hash(r)
    for name in ("a", "_hash", "c"):
        with pytest.raises(AttributeError):
            setattr(r, name, 3)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert (r.a, r.b) == (1, 2)


def test_pickle_and_copy_rebuild_from_the_fields():
    shear = Bracket(Leaf("SFx", 1), Leaf("SFy", 0))
    h = hash(shear)
    assert shear.__reduce__() == (Bracket, (Leaf("SFx", 1), Leaf("SFy", 0)))
    for other in (pickle.loads(pickle.dumps(shear)), copy.copy(shear), copy.deepcopy(shear)):
        assert other == shear and hash(other) == h


def test_class_patterns_bind_positionally():
    assert Pair.__match_args__ == ("a", "b")
    match Pair(1, Leaf("SFy", 2)):
        case Pair(a, Leaf("SFy", i)):
            assert (a, i) == (1, 2)
        case _:
            pytest.fail("class pattern did not bind the fields")
