"""Canonical encoding round trips, frozen sizes, and strict-decode behavior.

`golden_messages.json` pins one seeded encoding of each of the seven
message kinds, with the fields it was built from (scalars and elements as
their encodings, nested metadata as its own fields). It was written once
and must not be regenerated: a changed byte there is a wire format change.
"""

import json
from pathlib import Path

import pytest

from pdid import crypto, wire
from pdid.errors import MalformedRecord, PdidError


GOLDEN_MESSAGES = Path(__file__).with_name("golden_messages.json")
SCALAR_FIELDS = {"oprf_key", "server_static_priv", "server_eph_priv"}
ELEMENT_FIELDS = {
    "blinded_element", "client_eph_pub", "server_static_pub", "client_static_pub",
    "evaluated_element", "server_eph_pub",
}


def rebuild(cls, fields):
    """cls built by keyword from golden fields."""
    values = {}
    for name, value in fields.items():
        if isinstance(value, dict):
            values[name] = rebuild(wire.PasswordMetadata, value)
        elif name in SCALAR_FIELDS:
            values[name] = crypto.decode_scalar(bytes.fromhex(value))
        elif name in ELEMENT_FIELDS:
            values[name] = crypto.decode_element(bytes.fromhex(value))
        else:
            values[name] = bytes.fromhex(value)
    return cls(**values)


def test_golden_encodings_of_every_message_kind():
    golden = json.loads(GOLDEN_MESSAGES.read_text())
    assert sorted(golden) == sorted(cls.__name__ for cls in wire.Message.__subclasses__())
    for name, entry in golden.items():
        msg = rebuild(getattr(wire, name), entry["fields"])
        encoded = bytes.fromhex(entry["hex"])
        assert msg.encode() == encoded
        assert wire.decode_message(encoded).encode() == encoded
        assert wire.decode_message(encoded) == msg


def random_element():
    return crypto.base_exp(crypto.random_scalar())


def random_metadata():
    return wire.PasswordMetadata(
        oprf_key=crypto.random_scalar(),
        server_static_priv=crypto.random_scalar(),
        server_static_pub=random_element(),
        client_static_pub=random_element(),
        envelope=crypto.random_bytes(wire.ENVELOPE_CT_LEN),
    )


def sample_messages(username=b"alice"):
    meta = random_metadata()
    return [
        wire.UserAuthInit(username, random_element(), random_element()),
        wire.GpmAuthRequest(
            username,
            random_element(),
            random_element(),
            crypto.random_scalar(),
            crypto.random_bytes(crypto.DIGEST_LEN),
            crypto.random_bytes(crypto.DIGEST_LEN),
            crypto.random_bytes(crypto.BOX_PUBLIC_LEN),
        ),
        wire.GpmAuthResponse(
            random_element(),
            crypto.random_bytes(wire.ENVELOPE_CT_LEN),
            crypto.random_bytes(crypto.KEY_LEN),
        ),
        wire.ServerToUser(
            random_element(), random_element(), crypto.random_bytes(wire.ENVELOPE_CT_LEN)
        ),
        wire.RegistrationPlaintext(username, meta),
        wire.UpdatePlaintext(username, b"old password", random_metadata()),
        meta,
    ]


# ---------------------------------------------------------------------------
# Round trips and frozen sizes.
# ---------------------------------------------------------------------------


def test_every_kind_round_trips():
    for _ in range(20):
        for msg in sample_messages():
            encoded = msg.encode()
            assert wire.decode_message(encoded) == msg
            assert wire.decode_message(encoded).encode() == encoded


def test_frozen_size_table_at_username_len_5():
    u = b"user5"
    sizes = {type(m).__name__: len(m.encode()) for m in sample_messages(u)}
    assert sizes["UserAuthInit"] == 73 + 5
    assert sizes["GpmAuthRequest"] == 209 + 5
    assert sizes["GpmAuthResponse"] == 198
    assert sizes["ServerToUser"] == 199
    assert sizes["RegistrationPlaintext"] == 272 + 5
    assert sizes["UpdatePlaintext"] == 274 + 5 + len(b"old password")
    assert sizes["PasswordMetadata"] == wire.METADATA_LEN == 267


def test_plaintext_messages_fit_reference_band():
    # Fixed-width kinds sit inside the design's reported 74..300 range for
    # typical usernames; the variable-length registration and update bodies
    # exceed it because this instantiation carries both static public keys
    # in the metadata (documented difference, not hidden).
    for username_len in (1, 16, 64):
        u = bytes([0x61] * username_len)
        init, request, response, to_user, _, _, _ = sample_messages(u)
        for msg in (init, request, response, to_user):
            assert 74 <= len(msg.encode()) <= 300


def test_metadata_round_trip_and_cap():
    meta = random_metadata()
    encoded = meta.encode()
    assert wire.decode_metadata(encoded) == meta
    assert len(encoded) <= 512


def test_metadata_fields_agree_with_the_full_decode(seeded):
    """Every bit flip of a record is refused by both readers or read by both
    to the same five fields, public keys as their encodings, except flips
    inside either static public key (record bytes 71-103 and 106-138),
    which only the width check sees."""
    meta = random_metadata()
    encoded = meta.encode()

    def fields(full):
        return (
            full.oprf_key, full.server_static_priv, full.server_static_pub.encode(),
            full.client_static_pub.encode(), full.envelope,
        )

    assert wire.metadata_fields(encoded) == fields(meta)
    width_only = 0
    for pos in range(len(encoded)):
        mutated = bytearray(encoded)
        mutated[pos] ^= 1 << (pos % 8)
        try:
            full = wire.decode_metadata(bytes(mutated))
        except PdidError:
            full = None
        try:
            read = wire.metadata_fields(bytes(mutated))
        except PdidError:
            read = None
        if (71 <= pos < 104 or 106 <= pos < 139) and full is None and read is not None:
            assert read[2:4] == (bytes(mutated[71:104]), bytes(mutated[106:139])), pos
            width_only += 1
            continue
        assert read == (None if full is None else fields(full)), pos
    assert width_only > 0


def test_envelope_plaintext_round_trip():
    priv = crypto.random_scalar()
    pub_c, pub_s = random_element(), random_element()
    body = wire.encode_envelope_plaintext(priv, pub_c, pub_s)
    assert len(body) == wire.ENVELOPE_PT_LEN == 98
    assert wire.decode_envelope_plaintext(body) == (priv, pub_c.encode(), pub_s.encode())
    with pytest.raises(MalformedRecord):
        wire.decode_envelope_plaintext(body[:-1])


# ---------------------------------------------------------------------------
# Strictness.
# ---------------------------------------------------------------------------


def test_unknown_tag_rejected():
    body = wire.UserAuthInit(b"u", random_element(), random_element()).encode()
    with pytest.raises(MalformedRecord):
        wire.decode_message(bytes([0xEE]) + body[1:])


def test_truncation_rejected_everywhere():
    for msg in sample_messages():
        encoded = msg.encode()
        for cut in (0, 1, len(encoded) // 2, len(encoded) - 1):
            with pytest.raises(PdidError):
                wire.decode_message(encoded[:cut])


def test_fields_frame_up_to_the_u16_limit():
    # The sealed state frames its users and attempts blobs as fields, so
    # this is where a deployment too large to seal is refused.
    largest = bytes(0xFFFF)
    framed = wire.pack_field(largest)
    assert framed[:2] == b"\xff\xff" and wire.Reader(framed).field() == largest
    with pytest.raises(MalformedRecord, match="too long"):
        wire.pack_field(largest + b"\x00")


def test_trailing_bytes_rejected():
    for msg in sample_messages():
        with pytest.raises(MalformedRecord):
            wire.decode_message(msg.encode() + b"\x00")


def test_bad_element_bytes_rejected():
    msg = wire.UserAuthInit(b"bob", random_element(), random_element())
    encoded = bytearray(msg.encode())
    # Zero out the blinded-element field (offset 3+3 for |U|=3, skip prefix).
    start = 1 + 2 + 3 + 2
    encoded[start : start + 33] = b"\x00" * 33
    with pytest.raises(PdidError):
        wire.decode_message(bytes(encoded))


def test_username_bounds_enforced():
    with pytest.raises(MalformedRecord):
        wire.UserAuthInit(b"", random_element(), random_element())
    with pytest.raises(MalformedRecord):
        wire.UserAuthInit(b"x" * 65, random_element(), random_element())
    with pytest.raises(MalformedRecord):
        wire.UserAuthInit(b"\xff\xfe", random_element(), random_element())
    # 64 bytes of UTF-8 is fine.
    wire.UserAuthInit(b"x" * 64, random_element(), random_element())


def test_field_order_swap_is_detected():
    # Swapping two same-width element fields parses (both are valid points)
    # but cannot silently impersonate the original message.
    u = b"carol"
    msg = wire.UserAuthInit(u, random_element(), random_element())
    encoded = bytearray(msg.encode())
    start = 1 + 2 + len(u)
    a = bytes(encoded[start : start + 35])
    b = bytes(encoded[start + 35 : start + 70])
    encoded[start : start + 35] = b
    encoded[start + 35 : start + 70] = a
    decoded = wire.decode_message(bytes(encoded))
    assert decoded != msg
    assert decoded.blinded_element == msg.client_eph_pub


def test_decode_expected_enforces_kind():
    init = wire.UserAuthInit(b"dave", random_element(), random_element())
    assert wire.decode_expected(init.encode(), wire.UserAuthInit) == init
    with pytest.raises(MalformedRecord):
        wire.decode_expected(init.encode(), wire.ServerToUser)
    with pytest.raises(MalformedRecord):
        wire.decode_metadata(init.encode())


def test_wrong_width_fixed_fields_rejected():
    with pytest.raises(MalformedRecord):
        wire.GpmAuthResponse(
            random_element(), crypto.random_bytes(10), crypto.random_bytes(32)
        )
    with pytest.raises(MalformedRecord):
        wire.ServerToUser(
            random_element(), random_element(), crypto.random_bytes(127)
        )
    with pytest.raises(MalformedRecord):
        wire.UpdatePlaintext(b"erin", "a str password", random_metadata())


# ---------------------------------------------------------------------------
# Focused mutation fuzz (the full 10^4 sweep runs in the acceptance suite).
# ---------------------------------------------------------------------------


def test_mutations_never_silently_misparse(seeded):
    originals = [m.encode() for m in sample_messages()]
    trials = 0
    for encoded in originals:
        for _ in range(150):
            mutated = bytearray(encoded)
            pos = int.from_bytes(crypto.random_bytes(2), "big") % len(mutated)
            bit = crypto.random_bytes(1)[0] % 8
            mutated[pos] ^= 1 << bit
            data = bytes(mutated)
            trials += 1
            try:
                decoded = wire.decode_message(data)
            except PdidError:
                continue  # loud rejection is correct
            # A successful parse must be canonical: it re-encodes to the
            # exact mutated bytes (a different but valid message).
            assert decoded.encode() == data
    assert trials == 150 * len(originals)
