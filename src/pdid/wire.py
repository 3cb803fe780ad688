"""Canonical byte encodings for every message and record that crosses a
boundary (user to server, server to ledger, contract replies, stored
metadata, sealed state).

Layout rule: one tag byte, then each field as a u16 big-endian length prefix
followed by the field bytes. Decoding is strict: exact lengths, known tags,
no trailing bytes, and scalar/element fields must pass range and group
membership checks. A buffer either parses to exactly one message (and
re-encodes to the same bytes) or raises; there is no lenient path.

Field offsets and the frozen size table live in FORMATS.md at the repo root.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Union

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
        if self._pos + 1 > len(self._data):
            raise MalformedRecord("truncated record")
        b = self._data[self._pos]
        self._pos += 1
        return b

    def field(self) -> bytes:
        if self._pos + 2 > len(self._data):
            raise MalformedRecord("truncated length prefix")
        n = int.from_bytes(self._data[self._pos : self._pos + 2], "big")
        self._pos += 2
        if self._pos + n > len(self._data):
            raise MalformedRecord("field overruns buffer")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise MalformedRecord("truncated record")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def expect_done(self) -> None:
        if self._pos != len(self._data):
            raise MalformedRecord("trailing bytes after record")


def _check_username(username: bytes) -> None:
    if not isinstance(username, bytes) or not 1 <= len(username) <= MAX_USERNAME_LEN:
        raise MalformedRecord("username must be 1..64 bytes")
    try:
        username.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord("username must be valid UTF-8") from exc


def _check_len(data: bytes, expected: int, what: str) -> None:
    if not isinstance(data, bytes) or len(data) != expected:
        raise MalformedRecord(f"{what} must be {expected} bytes")


def _scalar_field(r: Reader) -> Scalar:
    return decode_scalar(r.field())


def _element_field(r: Reader) -> GroupElement:
    return decode_element(r.field())


# ---------------------------------------------------------------------------
# Stored metadata and the envelope it carries.
# ---------------------------------------------------------------------------


class PasswordMetadata(Frozen):
    """Per-user record held by the contract.

    `envelope` is an AEAD box under the user's OPRF output; it holds the
    user's static secret plus both static public keys, so only someone who
    knows the password can recover their side of the key exchange.
    """

    __slots__ = (
        "oprf_key", "server_static_priv", "server_static_pub", "client_static_pub", "envelope",
    )
    oprf_key: Scalar
    server_static_priv: Scalar
    server_static_pub: GroupElement
    client_static_pub: GroupElement
    envelope: bytes

    def __init__(
        self,
        oprf_key: Scalar,
        server_static_priv: Scalar,
        server_static_pub: GroupElement,
        client_static_pub: GroupElement,
        envelope: bytes,
    ) -> None:
        _check_len(envelope, ENVELOPE_CT_LEN, "envelope")
        object.__setattr__(self, "oprf_key", oprf_key)
        object.__setattr__(self, "server_static_priv", server_static_priv)
        object.__setattr__(self, "server_static_pub", server_static_pub)
        object.__setattr__(self, "client_static_pub", client_static_pub)
        object.__setattr__(self, "envelope", envelope)

    def encode(self) -> bytes:
        return bytes([MSG_METADATA]) + b"".join(
            (
                pack_field(self.oprf_key.encode()),
                pack_field(self.server_static_priv.encode()),
                pack_field(self.server_static_pub.encode()),
                pack_field(self.client_static_pub.encode()),
                pack_field(self.envelope),
            )
        )

    @staticmethod
    def _decode_body(r: Reader) -> "PasswordMetadata":
        return PasswordMetadata(
            oprf_key=_scalar_field(r),
            server_static_priv=_scalar_field(r),
            server_static_pub=_element_field(r),
            client_static_pub=_element_field(r),
            envelope=r.field(),
        )


def encode_metadata(meta: PasswordMetadata) -> bytes:
    return meta.encode()


def decode_metadata(data: bytes) -> PasswordMetadata:
    msg = decode_message(data)
    if not isinstance(msg, PasswordMetadata):
        raise MalformedRecord("expected a metadata record")
    return msg


def decode_auth_metadata(data: bytes) -> tuple[Scalar, Scalar, GroupElement, bytes]:
    """The fields of a metadata record that authentication uses: OPRF key,
    server static private key, client static public key, envelope. The
    server static public key is checked for width only, not decoded."""
    r = Reader(data)
    if r.u8() != MSG_METADATA:
        raise MalformedRecord("expected a metadata record")
    oprf_key, server_static_priv = _scalar_field(r), _scalar_field(r)
    _check_len(r.field(), ELEMENT_LEN, "server static public key")
    client_static_pub, envelope = _element_field(r), r.field()
    _check_len(envelope, ENVELOPE_CT_LEN, "envelope")
    r.expect_done()
    return oprf_key, server_static_priv, client_static_pub, envelope


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


def decode_envelope_plaintext(data: bytes):
    if len(data) != ENVELOPE_PT_LEN:
        raise MalformedRecord("envelope plaintext must be 98 bytes")
    return (
        decode_scalar(data[:SCALAR_LEN]),
        decode_element(data[SCALAR_LEN : SCALAR_LEN + ELEMENT_LEN]),
        decode_element(data[SCALAR_LEN + ELEMENT_LEN :]),
    )


# ---------------------------------------------------------------------------
# Protocol messages.
# ---------------------------------------------------------------------------


class UserAuthInit(Frozen):
    """User's first flow: username, blinded password point, ephemeral share."""

    __slots__ = ("username", "blinded_element", "client_eph_pub")
    username: bytes
    blinded_element: GroupElement
    client_eph_pub: GroupElement

    def __init__(
        self, username: bytes, blinded_element: GroupElement, client_eph_pub: GroupElement
    ) -> None:
        _check_username(username)
        object.__setattr__(self, "username", username)
        object.__setattr__(self, "blinded_element", blinded_element)
        object.__setattr__(self, "client_eph_pub", client_eph_pub)

    def encode(self) -> bytes:
        return bytes([MSG_USER_AUTH_INIT]) + b"".join(
            (
                pack_field(self.username),
                pack_field(self.blinded_element.encode()),
                pack_field(self.client_eph_pub.encode()),
            )
        )

    @staticmethod
    def _decode_body(r: Reader) -> "UserAuthInit":
        return UserAuthInit(r.field(), _element_field(r), _element_field(r))


class GpmAuthRequest(Frozen):
    """Server-assembled auth transaction body, encrypted to the contract.

    Carries everything the contract needs to run its half of the key
    exchange on the server's behalf: the user's flow, the server's ephemeral
    secret, both exponent-combining hashes, and a fresh reply key.
    """

    __slots__ = (
        "username", "blinded_element", "client_eph_pub", "server_eph_priv",
        "e_client", "e_server", "reply_pk",
    )
    username: bytes
    blinded_element: GroupElement
    client_eph_pub: GroupElement
    server_eph_priv: Scalar
    e_client: bytes
    e_server: bytes
    reply_pk: bytes

    def __init__(
        self,
        username: bytes,
        blinded_element: GroupElement,
        client_eph_pub: GroupElement,
        server_eph_priv: Scalar,
        e_client: bytes,
        e_server: bytes,
        reply_pk: bytes,
    ) -> None:
        _check_username(username)
        _check_len(e_client, DIGEST_LEN, "e_client")
        _check_len(e_server, DIGEST_LEN, "e_server")
        _check_len(reply_pk, BOX_PUBLIC_LEN, "reply_pk")
        object.__setattr__(self, "username", username)
        object.__setattr__(self, "blinded_element", blinded_element)
        object.__setattr__(self, "client_eph_pub", client_eph_pub)
        object.__setattr__(self, "server_eph_priv", server_eph_priv)
        object.__setattr__(self, "e_client", e_client)
        object.__setattr__(self, "e_server", e_server)
        object.__setattr__(self, "reply_pk", reply_pk)

    def encode(self) -> bytes:
        return bytes([MSG_GPM_AUTH_REQUEST]) + b"".join(
            (
                pack_field(self.username),
                pack_field(self.blinded_element.encode()),
                pack_field(self.client_eph_pub.encode()),
                pack_field(self.server_eph_priv.encode()),
                pack_field(self.e_client),
                pack_field(self.e_server),
                pack_field(self.reply_pk),
            )
        )

    @staticmethod
    def _decode_body(r: Reader) -> "GpmAuthRequest":
        return GpmAuthRequest(
            r.field(),
            _element_field(r),
            _element_field(r),
            _scalar_field(r),
            r.field(),
            r.field(),
            r.field(),
        )


class GpmAuthResponse(Frozen):
    """Contract reply to the server: evaluated element, envelope, session key."""

    __slots__ = ("evaluated_element", "envelope", "session_key")
    evaluated_element: GroupElement
    envelope: bytes
    session_key: bytes

    def __init__(
        self, evaluated_element: GroupElement, envelope: bytes, session_key: bytes
    ) -> None:
        _check_len(envelope, ENVELOPE_CT_LEN, "envelope")
        _check_len(session_key, KEY_LEN, "session_key")
        object.__setattr__(self, "evaluated_element", evaluated_element)
        object.__setattr__(self, "envelope", envelope)
        object.__setattr__(self, "session_key", session_key)

    def encode(self) -> bytes:
        return bytes([MSG_GPM_AUTH_RESPONSE]) + b"".join(
            (
                pack_field(self.evaluated_element.encode()),
                pack_field(self.envelope),
                pack_field(self.session_key),
            )
        )

    @staticmethod
    def _decode_body(r: Reader) -> "GpmAuthResponse":
        return GpmAuthResponse(_element_field(r), r.field(), r.field())


class ServerToUser(Frozen):
    """Server's second flow to the user: evaluated element, its ephemeral
    share, and the metadata envelope forwarded verbatim."""

    __slots__ = ("evaluated_element", "server_eph_pub", "envelope")
    evaluated_element: GroupElement
    server_eph_pub: GroupElement
    envelope: bytes

    def __init__(
        self, evaluated_element: GroupElement, server_eph_pub: GroupElement, envelope: bytes
    ) -> None:
        _check_len(envelope, ENVELOPE_CT_LEN, "envelope")
        object.__setattr__(self, "evaluated_element", evaluated_element)
        object.__setattr__(self, "server_eph_pub", server_eph_pub)
        object.__setattr__(self, "envelope", envelope)

    def encode(self) -> bytes:
        return bytes([MSG_SERVER_TO_USER]) + b"".join(
            (
                pack_field(self.evaluated_element.encode()),
                pack_field(self.server_eph_pub.encode()),
                pack_field(self.envelope),
            )
        )

    @staticmethod
    def _decode_body(r: Reader) -> "ServerToUser":
        return ServerToUser(_element_field(r), _element_field(r), r.field())


class RegistrationPlaintext(Frozen):
    """Body of a registration transaction (before contract-key encryption)."""

    __slots__ = ("username", "metadata")
    username: bytes
    metadata: PasswordMetadata

    def __init__(self, username: bytes, metadata: PasswordMetadata) -> None:
        _check_username(username)
        object.__setattr__(self, "username", username)
        object.__setattr__(self, "metadata", metadata)

    def encode(self) -> bytes:
        return bytes([MSG_REGISTRATION]) + b"".join(
            (pack_field(self.username), pack_field(self.metadata.encode()))
        )

    @staticmethod
    def _decode_body(r: Reader) -> "RegistrationPlaintext":
        return RegistrationPlaintext(r.field(), decode_metadata(r.field()))


class UpdatePlaintext(Frozen):
    """Body of a password-update transaction: proves the old password and
    ships replacement metadata built under the new one."""

    __slots__ = ("username", "password", "new_metadata")
    username: bytes
    password: bytes
    new_metadata: PasswordMetadata

    def __init__(self, username: bytes, password: bytes, new_metadata: PasswordMetadata) -> None:
        _check_username(username)
        if not isinstance(password, bytes):
            raise MalformedRecord("password must be bytes")
        object.__setattr__(self, "username", username)
        object.__setattr__(self, "password", password)
        object.__setattr__(self, "new_metadata", new_metadata)

    def encode(self) -> bytes:
        return bytes([MSG_UPDATE]) + b"".join(
            (
                pack_field(self.username),
                pack_field(self.password),
                pack_field(self.new_metadata.encode()),
            )
        )

    @staticmethod
    def _decode_body(r: Reader) -> "UpdatePlaintext":
        return UpdatePlaintext(r.field(), r.field(), decode_metadata(r.field()))


Message = Union[
    UserAuthInit,
    GpmAuthRequest,
    GpmAuthResponse,
    ServerToUser,
    RegistrationPlaintext,
    UpdatePlaintext,
    PasswordMetadata,
]

_REGISTRY = {
    MSG_USER_AUTH_INIT: UserAuthInit,
    MSG_GPM_AUTH_REQUEST: GpmAuthRequest,
    MSG_GPM_AUTH_RESPONSE: GpmAuthResponse,
    MSG_SERVER_TO_USER: ServerToUser,
    MSG_REGISTRATION: RegistrationPlaintext,
    MSG_UPDATE: UpdatePlaintext,
    MSG_METADATA: PasswordMetadata,
}


def decode_message(data: bytes) -> Message:
    """Parse one message of any known kind; strict, no trailing bytes."""
    r = Reader(data)
    tag = r.u8()
    cls = _REGISTRY.get(tag)
    if cls is None:
        raise MalformedRecord(f"unknown message tag {tag}")
    msg = cls._decode_body(r)
    r.expect_done()
    return msg


def decode_expected(data: bytes, cls: type) -> Message:
    """Parse and require a specific message kind."""
    msg = decode_message(data)
    if not isinstance(msg, cls):
        raise MalformedRecord(f"expected {cls.__name__}")
    return msg


# Sanity: the metadata record width is a frozen constant other layers quote.
def _metadata_width() -> int:
    return 1 + (2 + SCALAR_LEN) * 2 + (2 + ELEMENT_LEN) * 2 + (2 + ENVELOPE_CT_LEN)


assert _metadata_width() == METADATA_LEN
