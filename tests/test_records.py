"""The value records: construction, equality, hashing, immutability, repr.

Each record is built positionally from its fields in declaration order.
Records are equal when they have the same type and equal fields.  The
frozen ones (collections, tables, Hamming weights) are
hashable and refuse assignment, because the memos key on them; the report
records are mutable and unhashable.
"""

import copy
import pickle

import pytest

from foldbetti import (
    BettiTable,
    FormCollection,
    HammingWeights,
    HFReport,
    RelationSpace,
    normalize,
)
from foldbetti.cli import InstanceFile, RunReport
from foldbetti.forms import FrozenRecord

# (record type, field names, positional values, frozen)
RECORDS = [
    (BettiTable, ("a", "k", "b"), (4, 3, (14, 22, 9)), True),
    (FormCollection, ("k", "groups", "p"), (2, (((1, 0), 2), ((0, 1), 1)), None), True),
    (FormCollection, ("k", "groups", "p"), (2, (((1, 0), 2), ((1, 5), 1)), 7), True),
    (HammingWeights, ("d",), ((2, 3),), True),
    (HFReport, ("a", "values"), (2, {2: 3, 3: 4}), False),
    (RelationSpace, ("a", "ambient_dim", "generators", "rank"), (1, 3, [{0: 1, 2: -1}], 1), False),
    (InstanceFile, ("field", "p", "k", "forms"), ("rational", None, 1, [((1,), 2)]), False),
    (RunReport, ("data", "ok"), ({"command": "betti"}, True), False),
]
# each id keeps the number of its row when written, so a removed row renames no other case
IDS = ["BettiTable-0", "FormCollection-1", "FormCollection-2", "HammingWeights-4", "HFReport-5",
       "RelationSpace-6", "InstanceFile-7", "RunReport-8"]


@pytest.mark.parametrize("cls, names, values, frozen", RECORDS, ids=IDS)
def test_positional_construction_sets_each_field(cls, names, values, frozen):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, frozen", RECORDS, ids=IDS)
def test_equality_is_by_type_and_fields(cls, names, values, frozen):
    record = cls(*values)
    assert record == cls(*copy.deepcopy(values))
    twin = type("Twin", (cls,), {})(*values)
    assert record != twin and twin != record
    assert record != values


@pytest.mark.parametrize("cls, names, values, frozen", RECORDS, ids=IDS)
def test_hashable_exactly_when_frozen(cls, names, values, frozen):
    record = cls(*values)
    if frozen:
        assert hash(record) == hash(cls(*copy.deepcopy(values)))
        assert {record: 1}[cls(*values)] == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls, names, values, frozen", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, names, values, frozen):
    record = cls(*values)
    if frozen:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(*values)
    else:
        setattr(record, names[-1], None)
        assert getattr(record, names[-1]) is None
        assert record != cls(*values)


@pytest.mark.parametrize("cls, names, values, frozen", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values, frozen):
    fields = ", ".join("%s=%r" % pair for pair in zip(names, values))
    assert repr(cls(*values)) == "%s(%s)" % (cls.__name__, fields)


@pytest.mark.parametrize("cls, names, values, frozen", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(cls, names, values, frozen):
    record = cls(*values)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "values, message",
    [
        ((1, 3, (1, 0, 2)), "zero followed by nonzero"),
        ((1, 2, (3, -1)), "negative Betti number"),
        ((1, 2, (3,)), "expected 2 Betti numbers, got 1"),
    ],
)
def test_betti_table_validation(values, message):
    with pytest.raises(ValueError, match=message):
        BettiTable(*values)


@pytest.mark.parametrize(
    "values, message",
    [
        ((2, ()), "empty collection"),
        ((3, (((1, 0), 1),)), "form \\(1, 0\\) has 2 coefficients, ambient is 3"),
        ((2, (((1, 0), 0),)), "multiplicity must be positive"),
    ],
)
def test_form_collection_validation(values, message):
    with pytest.raises(ValueError, match=message):
        FormCollection(*values)


@pytest.mark.parametrize(
    "k, raw, p, groups",
    [
        (2, (((0, 0), 1),), None, None),
        (2, (((2, 0), 1),), None, (((1, 0), 1),)),
        (2, (((1, 9), 1),), 7, (((1, 2), 1),)),
        (2, (((0, 1), 1), ((1, 0), 2)), None, (((1, 0), 2), ((0, 1), 1))),
        (2, (((1, 0), 1), ((1, 0), 1)), None, (((1, 0), 2),)),
    ],
    ids=["zero form", "rational scale", "GF(7) scale", "order", "proportional groups"],
)
def test_form_collection_canonicalizes(k, raw, p, groups):
    # the constructor builds what normalize builds; nothing survives a lone zero form
    if groups is None:
        for build in (FormCollection, lambda k, raw, p: normalize(raw, k, p)):
            with pytest.raises(ValueError, match="empty collection"):
                build(k, raw, p)
        return
    sigma = FormCollection(k, raw, p)
    assert sigma == normalize(raw, k, p)
    assert sigma.groups == groups


def test_a_frozen_record_hashes_its_fields_once():
    # the hash is kept in the slot _hash, which is no field: a memo lookup
    # reads it, and equality, repr and pickling never see it
    hashed = []

    class Field:
        def __hash__(self):
            hashed.append(self)
            return 7

    class Single(FrozenRecord):
        __slots__ = ("x",)

    record = Single(Field())
    assert hash(record) == hash(record) == 7  # one field: its own hash
    assert len(hashed) == 1
    sigma = FormCollection(2, (((1, 0), 2), ((1, 5), 1)), 7)
    assert hash(sigma) == hash(sigma._values(sigma))
    assert sigma.__reduce__() == (FormCollection, (2, sigma.groups, 7))
    assert repr(sigma) == "FormCollection(k=2, groups=%r, p=7)" % (sigma.groups,)
    twin = pickle.loads(pickle.dumps(sigma))
    assert twin == sigma and hash(twin) == hash(sigma)
