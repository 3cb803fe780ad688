"""Canonical byte encodings for every message and record that crosses a
boundary (user to server, server to ledger, contract replies, stored
metadata, sealed state).

Layout rule: one tag byte, then each field as a u16 big-endian length prefix
followed by the field bytes. Decoding is strict: exact lengths, known tags,
no trailing bytes, and scalar/element fields must pass range and group
membership checks. A buffer either parses to exactly one message (and
re-encodes to the same bytes) or raises; there is no lenient path.

Field-kind rule: a message class names its fields in `__slots__` and gives
each a kind in `_kinds`, a `(check, encode, decode)` triple. `check(value,
name)` runs at construction (None: no check), `encode` gives the field
bytes and `decode` the value back; the shared `Message` base does the rest.

Field offsets and the frozen size table live in FORMATS.md at the repo root.
"""

from __future__ import annotations

from enum import IntEnum

from .crypto import (
    BOX_PUBLIC_LEN,
    DIGEST_LEN,
    ELEMENT_LEN,
    KEY_LEN,
    SCALAR_LEN,
    AEAD_OVERHEAD,
    Frozen,
    GroupElement,
    Scalar,
    decode_element,
    decode_scalar,
)
from .errors import MalformedRecord

MAX_USERNAME_LEN = 64
ENVELOPE_PT_LEN = SCALAR_LEN + 2 * ELEMENT_LEN          # 98
ENVELOPE_CT_LEN = ENVELOPE_PT_LEN + AEAD_OVERHEAD       # 126
METADATA_LEN = 267                                      # fixed, asserted below


class TxKind(IntEnum):
    REGISTER = 1
    AUTH = 2
    UPDATE = 3


# Message tags.
MSG_USER_AUTH_INIT = 1
MSG_GPM_AUTH_REQUEST = 2
MSG_GPM_AUTH_RESPONSE = 3
MSG_SERVER_TO_USER = 4
MSG_REGISTRATION = 5
MSG_UPDATE = 6
MSG_METADATA = 7
MSG_TRANSACTION = 8
MSG_SEALED_STATE = 9


def pack_field(data: bytes) -> bytes:
    """u16 length prefix + bytes; the only framing primitive used anywhere."""
    if len(data) > 0xFFFF:
        raise MalformedRecord("field too long for u16 framing")
    return len(data).to_bytes(2, "big") + data


class Reader:
    """Strict cursor over a byte buffer; any shortfall raises."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def u8(self) -> int:
        return self.take(1)[0]

    def field(self) -> bytes:
        return self.take(int.from_bytes(self.take(2), "big"))

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise MalformedRecord("truncated record")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def expect_done(self) -> None:
        if self._pos != len(self._data):
            raise MalformedRecord("trailing bytes after record")


def _check_username(username: bytes, name: str) -> None:
    if not isinstance(username, bytes) or not 1 <= len(username) <= MAX_USERNAME_LEN:
        raise MalformedRecord("username must be 1..64 bytes")
    try:
        username.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord("username must be valid UTF-8") from exc


def _check_bytes(value: bytes, name: str) -> None:
    if not isinstance(value, bytes):
        raise MalformedRecord(f"{name} must be bytes")


def _check_len(data: bytes, expected: int, what: str) -> None:
    if not isinstance(data, bytes) or len(data) != expected:
        raise MalformedRecord(f"{what} must be {expected} bytes")


# ---------------------------------------------------------------------------
# Messages, described by their fields.
# ---------------------------------------------------------------------------

_REGISTRY: dict[int, type[Message]] = {}


class Message(Frozen):
    """A tagged message of u16-framed fields, described by `_tag`,
    `__slots__` and `_kinds`; subclassing registers the tag."""

    __slots__ = ()
    _tag: int
    _kinds: tuple

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        _REGISTRY[cls._tag] = cls

    def __init__(self, *values: object, **named: object) -> None:
        super().__init__(*values, **named)
        for name, (check, _, _) in zip(self.__slots__, self._kinds):
            if check:
                check(getattr(self, name), name)

    def encode(self) -> bytes:
        return bytes([self._tag]) + b"".join(
            pack_field(encode(getattr(self, name)))
            for name, (_, encode, _) in zip(self.__slots__, self._kinds)
        )


def _fixed(n: int) -> tuple:
    """Kind of a bytes field of exactly n bytes."""
    return (lambda value, name: _check_len(value, n, name), bytes, bytes)


# Element and metadata decoders are looked up by name on each call, so a
# wrapper bound over that name (the benchmark's tracer) sees nested decodes.
USERNAME = (_check_username, bytes, bytes)
PASSWORD = (_check_bytes, bytes, bytes)
SCALAR = (None, Scalar.encode, decode_scalar)
ELEMENT = (None, GroupElement.encode, lambda field: decode_element(field))
ENVELOPE = _fixed(ENVELOPE_CT_LEN)
DIGEST = _fixed(DIGEST_LEN)


class PasswordMetadata(Message):
    """Per-user record held by the contract.

    `envelope` is an AEAD box under the user's OPRF output; it holds the
    user's static secret plus both static public keys, so only someone who
    knows the password can recover their side of the key exchange.
    """

    __slots__ = (
        "oprf_key", "server_static_priv", "server_static_pub", "client_static_pub", "envelope",
    )
    _tag = MSG_METADATA
    _kinds = (SCALAR, SCALAR, ELEMENT, ELEMENT, ENVELOPE)
    oprf_key: Scalar
    server_static_priv: Scalar
    server_static_pub: GroupElement
    client_static_pub: GroupElement
    envelope: bytes


def decode_metadata(data: bytes) -> PasswordMetadata:
    msg = decode_message(data)
    if not isinstance(msg, PasswordMetadata):
        raise MalformedRecord("expected a metadata record")
    return msg


METADATA = (None, Message.encode, lambda field: decode_metadata(field))


def metadata_fields(data: bytes) -> tuple[Scalar, Scalar, bytes, bytes, bytes]:
    """A metadata record's fields in order, for the contract's steps: OPRF
    key, server static private key, the server's and the client's static
    public keys as their 33-byte encodings, checked for width only, and
    the envelope. A caller decodes only the key it uses."""
    r = Reader(data)
    if r.u8() != MSG_METADATA:
        raise MalformedRecord("expected a metadata record")
    oprf_key, server_static_priv = decode_scalar(r.field()), decode_scalar(r.field())
    server_static_pub, client_static_pub, envelope = r.field(), r.field(), r.field()
    _check_len(server_static_pub, ELEMENT_LEN, "server static public key")
    _check_len(client_static_pub, ELEMENT_LEN, "client static public key")
    _check_len(envelope, ENVELOPE_CT_LEN, "envelope")
    r.expect_done()
    return oprf_key, server_static_priv, server_static_pub, client_static_pub, envelope


def encode_envelope_plaintext(
    client_static_priv: Scalar,
    client_static_pub: GroupElement,
    server_static_pub: GroupElement,
) -> bytes:
    """Fixed-width envelope body: static secret, both static public keys."""
    return (
        client_static_priv.encode()
        + client_static_pub.encode()
        + server_static_pub.encode()
    )


def decode_envelope_plaintext(data: bytes) -> tuple[Scalar, bytes, bytes]:
    """Static secret, then the client's and the server's static public keys
    as their 33-byte encodings: a caller decodes only the key it uses."""
    if len(data) != ENVELOPE_PT_LEN:
        raise MalformedRecord("envelope plaintext must be 98 bytes")
    return (
        decode_scalar(data[:SCALAR_LEN]),
        data[SCALAR_LEN : SCALAR_LEN + ELEMENT_LEN],
        data[SCALAR_LEN + ELEMENT_LEN :],
    )


# ---------------------------------------------------------------------------
# Protocol messages.
# ---------------------------------------------------------------------------


class UserAuthInit(Message):
    """User's first flow: username, blinded password point, ephemeral share."""

    __slots__ = ("username", "blinded_element", "client_eph_pub")
    _tag = MSG_USER_AUTH_INIT
    _kinds = (USERNAME, ELEMENT, ELEMENT)
    username: bytes
    blinded_element: GroupElement
    client_eph_pub: GroupElement


class GpmAuthRequest(Message):
    """Server-assembled auth transaction body, encrypted to the contract.

    Carries everything the contract needs to run its half of the key
    exchange on the server's behalf: the user's flow, the server's ephemeral
    secret, both exponent-combining hashes, and a fresh reply key.
    """

    __slots__ = (
        "username", "blinded_element", "client_eph_pub", "server_eph_priv",
        "e_client", "e_server", "reply_pk",
    )
    _tag = MSG_GPM_AUTH_REQUEST
    _kinds = (USERNAME, ELEMENT, ELEMENT, SCALAR, DIGEST, DIGEST, _fixed(BOX_PUBLIC_LEN))
    username: bytes
    blinded_element: GroupElement
    client_eph_pub: GroupElement
    server_eph_priv: Scalar
    e_client: bytes
    e_server: bytes
    reply_pk: bytes


class GpmAuthResponse(Message):
    """Contract reply to the server: evaluated element, envelope, session key."""

    __slots__ = ("evaluated_element", "envelope", "session_key")
    _tag = MSG_GPM_AUTH_RESPONSE
    _kinds = (ELEMENT, ENVELOPE, _fixed(KEY_LEN))
    evaluated_element: GroupElement
    envelope: bytes
    session_key: bytes


class ServerToUser(Message):
    """Server's second flow to the user: evaluated element, its ephemeral
    share, and the metadata envelope forwarded verbatim."""

    __slots__ = ("evaluated_element", "server_eph_pub", "envelope")
    _tag = MSG_SERVER_TO_USER
    _kinds = (ELEMENT, ELEMENT, ENVELOPE)
    evaluated_element: GroupElement
    server_eph_pub: GroupElement
    envelope: bytes


class RegistrationPlaintext(Message):
    """Body of a registration transaction (before contract-key encryption)."""

    __slots__ = ("username", "metadata")
    _tag = MSG_REGISTRATION
    _kinds = (USERNAME, METADATA)
    username: bytes
    metadata: PasswordMetadata


class UpdatePlaintext(Message):
    """Body of a password-update transaction: proves the old password and
    ships replacement metadata built under the new one."""

    __slots__ = ("username", "password", "new_metadata")
    _tag = MSG_UPDATE
    _kinds = (USERNAME, PASSWORD, METADATA)
    username: bytes
    password: bytes
    new_metadata: PasswordMetadata


def decode_message(data: bytes) -> Message:
    """Parse one message of any known kind; strict, no trailing bytes."""
    r = Reader(data)
    tag = r.u8()
    cls = _REGISTRY.get(tag)
    if cls is None:
        raise MalformedRecord(f"unknown message tag {tag}")
    msg = cls(*[decode(r.field()) for _, _, decode in cls._kinds])
    r.expect_done()
    return msg


def decode_expected(data: bytes, cls: type) -> Message:
    """Parse and require a specific message kind."""
    msg = decode_message(data)
    if not isinstance(msg, cls):
        raise MalformedRecord(f"expected {cls.__name__}")
    return msg


def leading_username(data: bytes, cls: type[Message]) -> bytes:
    """The first field of an encoded `cls` message whose first field is a
    USERNAME, checked as that kind checks it. Reads the tag and that field
    only; `decode_expected` still checks the whole message."""
    r = Reader(data)
    if r.u8() != cls._tag:
        raise MalformedRecord(f"expected {cls.__name__}")
    username = r.field()
    _check_username(username, "username")
    return username


# Sanity: the metadata record width is a frozen constant other layers quote.
def _metadata_width() -> int:
    return 1 + (2 + SCALAR_LEN) * 2 + (2 + ELEMENT_LEN) * 2 + (2 + ENVELOPE_CT_LEN)


assert _metadata_width() == METADATA_LEN
