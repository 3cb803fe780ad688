"""Value semantics of the immutable record types in crypto, oprf, wire and
ledger: equal fields make equal objects with equal hashes, any differing
field makes them unequal, and no field can be set or deleted once built.
Construction of the two group types must cost no more than a frozen slotted
dataclass with the same checks."""

import timeit
from dataclasses import dataclass

import pytest

from pdid import crypto, oprf, wire
from pdid.errors import InvalidElement, InvalidScalar
from pdid.ledger import InclusionProof, Transaction

G1 = crypto.base_exp(crypto.Scalar(1))
G2 = crypto.base_exp(crypto.Scalar(2))
G3 = crypto.base_exp(crypto.Scalar(3))
G4 = crypto.base_exp(crypto.Scalar(4))
ENV_A = bytes(wire.ENVELOPE_CT_LEN)
ENV_B = bytes([1]) * wire.ENVELOPE_CT_LEN
META_A = wire.PasswordMetadata(crypto.Scalar(1), crypto.Scalar(2), G1, G2, ENV_A)
META_B = wire.PasswordMetadata(crypto.Scalar(3), crypto.Scalar(4), G3, G4, ENV_B)


def case(cls, args, alt):
    """(class, arguments, variants): each variant is `args` with one field
    taken from `alt`."""
    return cls, args, [args[:i] + (alt[i],) + args[i + 1 :] for i in range(len(args))]


CASES = [
    case(crypto.Scalar, (5,), (6,)),
    # A point cannot move one coordinate alone: its negation, another point,
    # and the identity.
    (
        crypto.GroupElement,
        (G1.x, G1.y),
        [(G1.x, crypto._P - G1.y), (G2.x, G2.y), (None, None)],
    ),
    case(crypto.KeyPair, (b"s" * 32, b"p" * 32), (b"t" * 32, b"q" * 32)),
    case(oprf.Blinding, (crypto.Scalar(1), G1), (crypto.Scalar(2), G2)),
    case(Transaction, (wire.TxKind.AUTH, b"payload"), (wire.TxKind.REGISTER, b"other")),
    case(InclusionProof, (b"i" * 32, 0, ((0, b"sig"),)), (b"j" * 32, 1, ((1, b"sig"),))),
    case(
        wire.PasswordMetadata,
        (crypto.Scalar(1), crypto.Scalar(2), G1, G2, ENV_A),
        (crypto.Scalar(3), crypto.Scalar(4), G3, G4, ENV_B),
    ),
    case(wire.UserAuthInit, (b"alice", G1, G2), (b"bob", G3, G4)),
    case(
        wire.GpmAuthRequest,
        (b"alice", G1, G2, crypto.Scalar(7), b"c" * 32, b"s" * 32, b"r" * 32),
        (b"bob", G3, G4, crypto.Scalar(8), b"C" * 32, b"S" * 32, b"R" * 32),
    ),
    case(wire.GpmAuthResponse, (G1, ENV_A, b"k" * 32), (G2, ENV_B, b"K" * 32)),
    case(wire.ServerToUser, (G1, G2, ENV_A), (G3, G4, ENV_B)),
    case(wire.RegistrationPlaintext, (b"alice", META_A), (b"bob", META_B)),
    case(wire.UpdatePlaintext, (b"alice", b"old", META_A), (b"bob", b"new", META_B)),
]
IDS = [c[0].__name__ for c in CASES]


@pytest.mark.parametrize("cls, args, variants", CASES, ids=IDS)
def test_equal_fields_equal_values_and_hashes(cls, args, variants):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    for other in variants:
        c = cls(*other)
        assert a != c and not a == c
        assert c == cls(*other) and hash(c) == hash(cls(*other))
    assert a != args
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, args))
    assert repr(a) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, args, variants", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, args, variants):
    value = cls(*args)
    for name, original in zip(cls.__slots__, args):
        with pytest.raises(AttributeError):
            setattr(value, name, original)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is original
    assert not hasattr(value, "__dict__")


def test_group_types_keep_their_construction_checks():
    with pytest.raises(InvalidScalar):
        crypto.Scalar(crypto.GROUP_ORDER)
    with pytest.raises(InvalidScalar):
        crypto.Scalar(-1)
    with pytest.raises(InvalidScalar):
        crypto.Scalar(1.0)
    with pytest.raises(InvalidElement):
        crypto.GroupElement(G1.x, G1.y + 1)
    with pytest.raises(InvalidElement):
        crypto.GroupElement(G1.x, None)
    with pytest.raises(InvalidElement):
        crypto.GroupElement(None, G1.y)


# One constructor, from __slots__, for every Frozen type but the two group
# types: a plain value type and a wire message refuse the same mistakes.
CONSTRUCTED = [
    (crypto.KeyPair, {"secret": b"s" * 32, "public": b"p" * 32}),
    (wire.UserAuthInit, {"username": b"alice", "blinded_element": G1, "client_eph_pub": G2}),
]


@pytest.mark.parametrize("cls, fields", CONSTRUCTED, ids=[c[0].__name__ for c in CONSTRUCTED])
def test_constructor_takes_each_field_exactly_once(cls, fields):
    args = tuple(fields.values())
    first, *rest = fields
    assert cls(**fields) == cls(*args) == cls(args[0], **{k: fields[k] for k in rest})
    bad_calls = [
        (args[:-1], {}),                     # missing, positionally
        ((), dict(list(fields.items())[1:])),  # missing, by keyword
        (args + (b"extra",), {}),            # extra positional
        (args, {"unknown": b"x"}),           # unknown keyword
        (args, {first: fields[first]}),      # positional and keyword
    ]
    for values, named in bad_calls:
        with pytest.raises(TypeError):
            cls(*values, **named)


def test_every_message_has_one_kind_per_field_and_its_own_tag():
    messages = wire.Message.__subclasses__()
    assert len(messages) == 7
    assert sorted(cls._tag for cls in messages) == list(range(1, 8))
    for cls in messages:
        assert len(cls._kinds) == len(cls.__slots__) > 0
        assert all(len(kind) == 3 for kind in cls._kinds)
        assert wire._REGISTRY[cls._tag] is cls


# ---------------------------------------------------------------------------
# Construction cost against the frozen slotted dataclasses these replaced.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DataclassScalar:
    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or not 0 <= self.value < crypto.GROUP_ORDER:
            raise InvalidScalar("scalar out of range")


@dataclass(frozen=True, slots=True)
class DataclassElement:
    x: object
    y: object

    def __post_init__(self) -> None:
        x, y, p = self.x, self.y, crypto._P
        if x is None and y is None:
            return
        if (
            not isinstance(x, int)
            or not isinstance(y, int)
            or not 0 <= x < p
            or not 0 <= y < p
            or (y * y - (x * x * x + crypto._A * x + crypto._B)) % p != 0
        ):
            raise InvalidElement("point not on curve")


@pytest.mark.parametrize(
    "new, old, args",
    [
        (crypto.Scalar, DataclassScalar, (crypto.GROUP_ORDER - 2,)),
        (crypto.GroupElement, DataclassElement, (G3.x, G3.y)),
    ],
    ids=["Scalar", "GroupElement"],
)
def test_construction_no_slower_than_a_frozen_dataclass(new, old, args):
    # Interleaved blocks in alternating order, best of each: a slow phase of
    # a shared machine hits both alike. The margin covers timer noise at
    # equal cost.
    best = {new: float("inf"), old: float("inf")}
    for i in range(25):
        for cls in (new, old) if i % 2 else (old, new):
            best[cls] = min(best[cls], timeit.timeit(lambda: cls(*args), number=2000))
    assert best[new] <= best[old] * 1.10
