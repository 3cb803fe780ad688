"""Primitive layer: group arithmetic, hashing, PRF, AEAD, PKE, signatures.

The protocol needs a prime-order group with fixed-width compressed element
encodings, a labeled hash usable both as a digest and as a map into the
group, a PRF, symmetric authenticated encryption, public-key encryption, and
detached signatures for ledger attestations.

The group is NIST P-256 behind this module's own types, so that element
encodings stay at 33 bytes and the protocol layer can treat the group as an
opaque module boundary; swapping curves means editing only this file.
Scalar multiplication and point decompression (with its on-curve check)
run in OpenSSL through `cryptography`, so secret scalars go through its
constant-time ladders. Decoding and the hash-to-group map take their square
roots from that decompression (`_lift_x`), so point addition is the only
Python field arithmetic left, besides the map's one inversion and few
products per input. Symmetric and box primitives are delegated to the
`cryptography` package: ChaCha20-Poly1305 for AEAD, X25519 +
ChaCha20-Poly1305 for public-key boxes, Ed25519 for detached signatures.
Public keys leave OpenSSL as raw bytes or coordinates (`public_bytes_raw`,
`public_numbers`), so this module does not import `cryptography`'s
`serialization` package, which loads the SSH and RSA code with it.

`Frozen` is the base of the immutable value types here and in the layers
above. Its one `__init__` sets the fields a subclass names in `__slots__`,
so importing them generates no code; the hot `Scalar` and `GroupElement`
keep their own, which also check their values.

All randomness flows through :func:`random_bytes`, which can be swapped for a
deterministic stream in tests via :func:`set_insecure_seed`.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import secrets
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Union

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ec import (
    ECDH,
    SECP256R1,
    EllipticCurvePublicKey,
    derive_private_key,
)
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .errors import (
    AuthFailure,
    CryptoError,
    DecryptFailure,
    InvalidElement,
    InvalidScalar,
)

# ---------------------------------------------------------------------------
# Size constants (bytes). Every fixed width used on the wire lives here.
# ---------------------------------------------------------------------------

SCALAR_LEN = 32          # little-endian scalar in [0, GROUP_ORDER)
ELEMENT_LEN = 33         # compressed group element (parity byte + x)
DIGEST_LEN = 32          # SHA-256 output
KEY_LEN = 32             # symmetric key
BOX_PUBLIC_LEN = 32      # X25519 public key
BOX_SECRET_LEN = 32      # X25519 secret key
SIG_PUBLIC_LEN = 32      # Ed25519 public key
SIG_SECRET_LEN = 32      # Ed25519 secret seed
SIG_LEN = 64             # Ed25519 detached signature
AEAD_NONCE_LEN = 12
AEAD_TAG_LEN = 16
AEAD_OVERHEAD = AEAD_NONCE_LEN + AEAD_TAG_LEN
PKE_OVERHEAD = BOX_PUBLIC_LEN + AEAD_OVERHEAD

# ---------------------------------------------------------------------------
# Randomness. Seedable only for tests; the seeded stream is NOT secure.
# ---------------------------------------------------------------------------


class _InsecureStream:
    """Deterministic byte stream (SHA-256 in counter mode). Test use only."""

    def __init__(self, seed: int) -> None:
        self._state = hashlib.sha256(b"insecure-seed" + seed.to_bytes(8, "big")).digest()
        self._counter = 0
        self._buf = b""

    def read(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = hashlib.sha256(
                self._state + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out


_rng = secrets.token_bytes


def random_bytes(n: int) -> bytes:
    """Return n random bytes from the active source."""
    return _rng(n)


def set_insecure_seed(seed: int) -> None:
    """Replace the randomness source with a deterministic stream.

    Insecure by construction; exists so tests and the harness --seed flag can
    reproduce runs byte for byte. Never use outside tests.
    """
    global _rng
    _rng = _InsecureStream(seed).read


def use_system_randomness() -> None:
    """Restore the OS randomness source."""
    global _rng
    _rng = secrets.token_bytes


# ---------------------------------------------------------------------------
# P-256 field / curve internals.
# ---------------------------------------------------------------------------

_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
GROUP_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_A = _P - 3
_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
_GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5


def _add(x1: int, y1: int, x2: int, y2: int) -> tuple[Optional[int], Optional[int]]:
    """Affine sum of two non-identity points; (None, None) is the identity.
    Equal x means the points are equal (doubling) or inverse (identity),
    since P-256 has no point with y = 0."""
    p = _P
    if x1 == x2:
        if y1 != y2:
            return (None, None)
        slope = (3 * x1 * x1 + _A) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return (x3, (slope * (x1 - x3) - y1) % p)


# ---------------------------------------------------------------------------
# Public scalar / element types.
# ---------------------------------------------------------------------------


class Frozen:
    """Immutable value over the fields named in `__slots__`, in that order.
    `__init__` takes each field once, by position or keyword (TypeError
    otherwise); equality, hashing and repr read the same fields; any later
    assignment raises AttributeError. Subclasses annotate their fields for
    type checkers. A subclass with empty `__slots__` is an abstract base."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__slots__:
            # Reads every field in one C call, for __eq__ and __hash__.
            cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *values: object, **named: object) -> None:
        slots = self.__slots__
        if named:
            try:
                values += tuple(named.pop(name) for name in slots[len(values) :])
            except KeyError:
                pass  # a field is missing: too few values, refused below
        if named or len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes each of {', '.join(slots)} once")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Scalar(Frozen):
    """Residue mod the group order; encodes to 32 little-endian bytes."""

    __slots__ = ("value",)
    value: int

    def __init__(self, value: int) -> None:
        if not isinstance(value, int) or not 0 <= value < GROUP_ORDER:
            raise InvalidScalar("scalar out of range")
        object.__setattr__(self, "value", value)

    def encode(self) -> bytes:
        return self.value.to_bytes(SCALAR_LEN, "little")


class GroupElement(Frozen):
    """Point on the curve; (None, None) is the group identity.

    Construction validates the curve equation, so any held instance passed a
    membership check. The identity has a reserved all-zero encoding that the
    wire decoder refuses; it can only arise from in-process arithmetic.
    """

    __slots__ = ("x", "y")
    x: Optional[int]
    y: Optional[int]

    def __init__(self, x: Optional[int], y: Optional[int]) -> None:
        if (x is not None or y is not None) and (
            not isinstance(x, int)
            or not isinstance(y, int)
            or not 0 <= x < _P
            or not 0 <= y < _P
            or (y * y - (x * x * x + _A * x + _B)) % _P != 0
        ):
            raise InvalidElement("point not on curve")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        if self.x is None:
            return b"\x00" * ELEMENT_LEN
        return bytes([2 | (self.y & 1)]) + self.x.to_bytes(32, "big")


IDENTITY = GroupElement(None, None)
GENERATOR = GroupElement(_GX, _GY)
_CURVE = SECP256R1()


def _lift_x(x: int, parity: int) -> Optional[int]:
    """The y of parity `parity` with (x, y) on the curve, or None if x has
    no point (x^3 + ax + b a non-residue). OpenSSL's point decompression;
    x must be below the field prime."""
    try:
        point = EllipticCurvePublicKey.from_encoded_point(
            _CURVE, bytes([2 | parity]) + x.to_bytes(32, "big")
        )
    except ValueError:
        return None
    return point.public_numbers().y


def decode_element(data: bytes) -> GroupElement:
    """Decode a compressed element, enforcing membership; identity refused."""
    if len(data) != ELEMENT_LEN:
        raise InvalidElement("element encoding must be 33 bytes")
    if data[0] not in (2, 3):
        raise InvalidElement("bad compression prefix")
    x = int.from_bytes(data[1:], "big")
    if x >= _P:
        raise InvalidElement("x out of field range")
    y = _lift_x(x, data[0] & 1)
    if y is None:
        raise InvalidElement("x has no point on the curve")
    return GroupElement(x, y)


def decode_scalar(data: bytes) -> Scalar:
    if len(data) != SCALAR_LEN:
        raise InvalidScalar("scalar encoding must be 32 bytes")
    v = int.from_bytes(data, "little")
    if v >= GROUP_ORDER:
        raise InvalidScalar("scalar not reduced")
    return Scalar(v)


def random_scalar() -> Scalar:
    """Uniform nonzero scalar in [1, order), by rejection sampling."""
    while True:
        v = int.from_bytes(random_bytes(SCALAR_LEN), "little")
        if 1 <= v < GROUP_ORDER:
            return Scalar(v)


def base_exp(e: Scalar) -> GroupElement:
    """Generator raised to e (OpenSSL's constant-time fixed-base ladder)."""
    if e.value == 0:
        return IDENTITY
    point = derive_private_key(e.value, _CURVE).public_key().public_numbers()
    return GroupElement(point.x, point.y)


def _ecdh_x(k: int, public: EllipticCurvePublicKey) -> int:
    return int.from_bytes(derive_private_key(k, _CURVE).exchange(ECDH(), public), "big")


def exp(b: GroupElement, e: Scalar) -> GroupElement:
    """b raised to e; identity base or zero exponent give the identity.

    OpenSSL's ECDH ladder yields only x-coordinates, so this takes
    x1 = x(eB) and x2 = x((e+1)B) and recovers y1 from the curve's
    addition law (Brier and Joye, PKC 2002):
    y1 = (2b + (a + x*x1)(x + x1) - x2*(x - x1)^2) / (2y).
    e = n - 1 is the one case with (e+1)B at infinity; eB is then -B.
    """
    k = e.value
    if b.x is None or k == 0:
        return IDENTITY
    if k == GROUP_ORDER - 1:
        return GroupElement(b.x, _P - b.y)
    x, y, p = b.x, b.y, _P
    public = EllipticCurvePublicKey.from_encoded_point(
        _CURVE, b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")
    )
    x1 = _ecdh_x(k, public)
    x2 = _ecdh_x(k + 1, public)
    num = 2 * _B + (_A + x * x1) * (x + x1) - x2 * (x - x1) ** 2
    return GroupElement(x1, num * pow(2 * y, -1, p) % p)


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group operation (point addition)."""
    if a.x is None:
        return b
    if b.x is None:
        return a
    x, y = _add(a.x, a.y, b.x, b.y)
    return GroupElement(x, y)


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    return Scalar((a.value + b.value) % GROUP_ORDER)


def scalar_mul(a: Scalar, b: Scalar) -> Scalar:
    return Scalar(a.value * b.value % GROUP_ORDER)


def scalar_invert(s: Scalar) -> Scalar:
    """Multiplicative inverse mod the group order; zero is refused."""
    if s.value == 0:
        raise InvalidScalar("zero has no inverse")
    return Scalar(pow(s.value, -1, GROUP_ORDER))


def scalar_from_digest(d: bytes) -> Scalar:
    """Reduce a digest to a scalar (used for exponent-combining hashes)."""
    if len(d) != DIGEST_LEN:
        raise InvalidScalar("digest must be 32 bytes")
    return Scalar(int.from_bytes(d, "little") % GROUP_ORDER)


# ---------------------------------------------------------------------------
# Labeled hashing, hash-to-group, PRF.
# ---------------------------------------------------------------------------

Label = Union[str, bytes]


def _frame(label: Label, parts: Iterable[bytes]) -> bytes:
    # Collision-resistant framing: every component is u64 length-prefixed,
    # so part boundaries can never be shifted.
    if isinstance(label, str):
        label = label.encode()
    out = [len(label).to_bytes(8, "big"), label]
    for part in parts:
        out.append(len(part).to_bytes(8, "big"))
        out.append(part)
    return b"".join(out)


def hash_parts(label: Label, parts: Sequence[bytes]) -> bytes:
    """Domain-separated hash of a sequence of byte strings (32-byte digest)."""
    return hashlib.sha256(_frame(label, parts)).digest()


# Simplified SWU map for P-256 (RFC 9380 section 6.6.2, Z = -10). Its
# constants: -B/A, and x1 = B/(Z*A) for the inputs with tv = 0.
_Z = _P - 10
_MINUS_B_OVER_A = -_B * pow(_A, -1, _P) % _P
_X1_EXCEPTIONAL = _B * pow(_Z * _A, -1, _P) % _P


def _sswu(u: int) -> tuple[int, int]:
    """x1 = -B/A * (1 + 1/tv) if it has a point, else x2 = Z*u^2*x1, which
    then always has one; y takes the parity of u."""
    p = _P
    zu2 = _Z * u * u % p
    tv = (zu2 * zu2 + zu2) % p
    x1 = _MINUS_B_OVER_A * (1 + pow(tv, -1, p)) % p if tv else _X1_EXCEPTIONAL
    parity = u & 1
    y = _lift_x(x1, parity)
    if y is not None:
        return (x1, y)
    x2 = zu2 * x1 % p
    return (x2, _lift_x(x2, parity))


def hash_to_group(label: Label, parts: Sequence[bytes]) -> GroupElement:
    """Map labeled input to a group element (uniform two-point SWU map)."""
    framed = _frame(label, parts)
    us = []
    for i in (1, 2):
        raw = hashlib.sha512(b"hash-to-group" + bytes([i]) + framed).digest()
        us.append(int.from_bytes(raw[:48], "big") % _P)
    x, y = _add(*_sswu(us[0]), *_sswu(us[1]))
    return GroupElement(x, y)


def prf(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 under a 32-byte key."""
    if len(key) != KEY_LEN:
        raise CryptoError("prf key must be 32 bytes")
    return _hmac.new(key, msg, hashlib.sha256).digest()


# ---------------------------------------------------------------------------
# AEAD (ChaCha20-Poly1305). Ciphertext layout: nonce || body+tag.
# ---------------------------------------------------------------------------


def aead_encrypt(key: bytes, plaintext: bytes) -> bytes:
    if len(key) != KEY_LEN:
        raise CryptoError("aead key must be 32 bytes")
    nonce = random_bytes(AEAD_NONCE_LEN)
    return nonce + ChaCha20Poly1305(key).encrypt(nonce, plaintext, None)


def aead_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    if len(key) != KEY_LEN:
        raise CryptoError("aead key must be 32 bytes")
    if len(ciphertext) < AEAD_OVERHEAD:
        raise AuthFailure("ciphertext too short")
    nonce, body = ciphertext[:AEAD_NONCE_LEN], ciphertext[AEAD_NONCE_LEN:]
    try:
        return ChaCha20Poly1305(key).decrypt(nonce, body, None)
    except InvalidTag as exc:
        raise AuthFailure("authenticated decryption failed") from exc


# ---------------------------------------------------------------------------
# Public-key boxes (X25519 + ChaCha20-Poly1305).
# Ciphertext layout: ephemeral public || nonce || body+tag.
# ---------------------------------------------------------------------------


class KeyPair(Frozen):
    """Raw byte keypair; the public half is always derivable from the secret."""

    __slots__ = ("secret", "public")
    secret: bytes
    public: bytes


def pk_gen() -> KeyPair:
    """Fresh box keypair."""
    secret = random_bytes(BOX_SECRET_LEN)
    public = X25519PrivateKey.from_private_bytes(secret).public_key().public_bytes_raw()
    return KeyPair(secret, public)


def _box_key(eph_public: bytes, recipient_public: bytes, shared: bytes) -> bytes:
    return hash_parts("pke-kdf", [eph_public, recipient_public, shared])


def pk_encrypt(public: bytes, plaintext: bytes, entropy: Optional[bytes] = None) -> bytes:
    """Encrypt to a box public key.

    `entropy`, when given, derandomizes the ephemeral key and nonce; callers
    must guarantee it is unique per (recipient, plaintext) use. This exists so
    a deterministic contract can reply with ciphertexts without consuming
    randomness.
    """
    if len(public) != BOX_PUBLIC_LEN:
        raise CryptoError("box public key must be 32 bytes")
    if entropy is None:
        eph_secret = random_bytes(BOX_SECRET_LEN)
        nonce = random_bytes(AEAD_NONCE_LEN)
    else:
        eph_secret = hash_parts("pke-eph", [entropy])
        nonce = hash_parts("pke-nonce", [entropy])[:AEAD_NONCE_LEN]
    eph = X25519PrivateKey.from_private_bytes(eph_secret)
    eph_public = eph.public_key().public_bytes_raw()
    shared = eph.exchange(X25519PublicKey.from_public_bytes(public))
    key = _box_key(eph_public, public, shared)
    body = ChaCha20Poly1305(key).encrypt(nonce, plaintext, None)
    return eph_public + nonce + body


def box_private_key(secret: bytes) -> X25519PrivateKey:
    """Key object for a box secret; build it once for repeated decryption."""
    if len(secret) != BOX_SECRET_LEN:
        raise CryptoError("box secret key must be 32 bytes")
    return X25519PrivateKey.from_private_bytes(secret)


def pk_decrypt(secret: Union[bytes, X25519PrivateKey], ciphertext: bytes) -> bytes:
    """Open a box with a 32-byte secret or, skipping the key setup (which
    derives the public key), a box_private_key."""
    sk = box_private_key(secret) if isinstance(secret, bytes) else secret
    if len(ciphertext) < PKE_OVERHEAD:
        raise DecryptFailure("ciphertext too short")
    eph_public = ciphertext[:BOX_PUBLIC_LEN]
    nonce = ciphertext[BOX_PUBLIC_LEN : BOX_PUBLIC_LEN + AEAD_NONCE_LEN]
    body = ciphertext[BOX_PUBLIC_LEN + AEAD_NONCE_LEN :]
    public = sk.public_key().public_bytes_raw()
    try:
        shared = sk.exchange(X25519PublicKey.from_public_bytes(eph_public))
        key = _box_key(eph_public, public, shared)
        return ChaCha20Poly1305(key).decrypt(nonce, body, None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptFailure("box decryption failed") from exc


# ---------------------------------------------------------------------------
# Detached signatures (Ed25519) for ledger node attestations.
# ---------------------------------------------------------------------------


def sig_gen() -> KeyPair:
    """Fresh signing keypair (secret is the 32-byte seed)."""
    secret = random_bytes(SIG_SECRET_LEN)
    public = Ed25519PrivateKey.from_private_bytes(secret).public_key().public_bytes_raw()
    return KeyPair(secret, public)


def sig_public(secret: Union[bytes, Ed25519PrivateKey]) -> bytes:
    """Public half for a signing seed or, skipping the key setup, a signing_key."""
    if isinstance(secret, bytes):
        secret = signing_key(secret)
    return secret.public_key().public_bytes_raw()


def signing_key(secret: bytes) -> Ed25519PrivateKey:
    """Key object for a signing seed; build it once for repeated signing."""
    return Ed25519PrivateKey.from_private_bytes(secret)


def sign(secret: Union[bytes, Ed25519PrivateKey], message: bytes) -> bytes:
    """Sign with a 32-byte seed or, skipping the key setup, a signing_key."""
    if isinstance(secret, bytes):
        secret = signing_key(secret)
    return secret.sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False
