"""Primitive layer: group arithmetic, hashing, PRF, AEAD, PKE, signatures.

The group is NIST P-256 behind this module's own types, with 33-byte
compressed element encodings; swapping curves means editing only this
file. SHA-2, HMAC, AEAD (ChaCha20-Poly1305), public-key boxes (X25519 +
ChaCha20-Poly1305) and Ed25519 signatures come from the `cryptography`
package, the last three from its Rust binding. All randomness flows
through `random_bytes`, which tests can make deterministic with
`set_insecure_seed`.

The constant-time contract. Every operation of the group on a secret or
password-derived value runs natively, in OpenSSL 3's `libcrypto.so.3`
bound through `ctypes` (`cryptography` multiplies by a scalar only in
ECDH, which returns only x):
- `_point_mul`, one `EC_POINTs_mul` with each scalar flagged
  BN_FLG_CONSTTIME, is every scalar multiplication: `exp`, `base_exp` and
  `hmqv_key`, which makes the HMQV secret x'*Y + (x'*e)*B over two points;
- `_point_add`, one `EC_POINT_add`, sums the hash-to-group map's two
  points;
- `_field_pow`, one `BN_mod_exp_mont_consttime` with the base flagged
  constant-time, is every square root (decoding a point, the one square
  root of each map) and every inversion (`scalar_invert` on the OPRF
  blind).
OpenSSL sums two points in constant time only in P-256's own methods
(nistz256, nistp256); its generic `EC_GFp_mont_method` does it by
variable-time wNAF. So the import refuses a library whose P-256 group
reports that method (`_refuse_generic_method`). The map is the
straight-line simplified SWU of RFC 9380 (appendix F.2): it computes both
candidate x and selects without a branch, so its time does not tell which
one the password took.

What is left of Python arithmetic on secret or password-derived values,
for want of a native path, is multiplication and addition mod p or n:
- the map's field arithmetic (`_sswu`) and the Jacobian coordinates of
  its two points (`_point_add`);
- the two HMQV exponents, computed on plain integers inside `hmqv_key`:
  the own exponent x' = own_eph + e_own * own_static, and the product
  x' * e_peer that multiplies the peer's static key.
`EC_POINT_add` branches on equal, inverse or identity inputs, which two
password-derived map points are with negligible probability.
"""

from __future__ import annotations

import ctypes
import os
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.bindings._rust import openssl as _rust
from cryptography.hazmat.primitives.hashes import SHA256, SHA512, Hash
from cryptography.hazmat.primitives.hmac import HMAC

from .errors import (
    AuthFailure,
    CryptoError,
    DecryptFailure,
    InvalidElement,
    InvalidScalar,
)

try:
    # What `cryptography`'s public wrappers return, without the modules
    # those wrappers import.
    ChaCha20Poly1305 = _rust.aead.ChaCha20Poly1305
    X25519PrivateKey = _rust.x25519.X25519PrivateKey
    _x25519_private = _rust.x25519.from_private_bytes
    _x25519_public = _rust.x25519.from_public_bytes
    Ed25519PrivateKey = _rust.ed25519.Ed25519PrivateKey
    _ed25519_private = _rust.ed25519.from_private_bytes
    _ed25519_public = _rust.ed25519.from_public_bytes
except AttributeError as exc:
    raise ImportError(
        f"pdid needs cryptography.hazmat.bindings._rust.openssl as in cryptography>=48: {exc}"
    ) from exc

# ---------------------------------------------------------------------------
# Size constants (bytes). Every fixed width used on the wire lives here.
# ---------------------------------------------------------------------------

SCALAR_LEN = 32          # little-endian scalar in [0, GROUP_ORDER)
ELEMENT_LEN = 33         # compressed group element (parity byte + x)
DIGEST_LEN = 32          # SHA-256 output
KEY_LEN = 32             # symmetric key
BOX_PUBLIC_LEN = 32      # X25519 public key
BOX_SECRET_LEN = 32      # X25519 secret key
SIG_LEN = 64             # Ed25519 detached signature
AEAD_NONCE_LEN = 12
AEAD_TAG_LEN = 16
AEAD_OVERHEAD = AEAD_NONCE_LEN + AEAD_TAG_LEN
PKE_OVERHEAD = BOX_PUBLIC_LEN + AEAD_OVERHEAD

_SHA256 = SHA256()
_SHA512 = SHA512()


def _digest(algorithm: Union[SHA256, SHA512], data: bytes) -> bytes:
    h = Hash(algorithm)
    h.update(data)
    return h.finalize()


# ---------------------------------------------------------------------------
# Randomness. Seedable only for tests; the seeded stream is NOT secure.
# ---------------------------------------------------------------------------


class _InsecureStream:
    """Deterministic byte stream (SHA-256 in counter mode). Test use only."""

    def __init__(self, seed: int) -> None:
        self._state = _digest(_SHA256, b"insecure-seed" + seed.to_bytes(8, "big"))
        self._counter = 0
        self._buf = b""

    def read(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = _digest(_SHA256, self._state + self._counter.to_bytes(8, "big"))
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out


_rng = os.urandom


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
    _rng = os.urandom


# ---------------------------------------------------------------------------
# P-256 field / curve internals.
# ---------------------------------------------------------------------------

_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
GROUP_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_A = _P - 3
_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
_SQRT_EXPONENT = (_P + 1) // 4  # r^((p+1)/4) is a square root of r if r has one


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
    membership check: this module's `_point` skips it only for a point that
    `decode_element` or `EC_POINTs_mul` has just put on the curve. The
    identity has a reserved all-zero encoding that the wire decoder refuses;
    it can only arise from in-process arithmetic.
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
_set_x = GroupElement.x.__set__
_set_y = GroupElement.y.__set__


def _point(x: int, y: int) -> GroupElement:
    """GroupElement(x, y) without its curve check (about 0.3 µs against
    2.3 µs on a 2-CPU machine), for a point known to be on the curve."""
    element = object.__new__(GroupElement)
    _set_x(element, x)
    _set_y(element, y)
    return element


def decode_element(data: bytes) -> GroupElement:
    """Decode a compressed element, enforcing membership; identity refused.
    y is rhs^((p+1)/4) for rhs = x^3 + ax + b, and x has no point when its
    square is not rhs."""
    if len(data) != ELEMENT_LEN:
        raise InvalidElement("element encoding must be 33 bytes")
    if data[0] not in (2, 3):
        raise InvalidElement("bad compression prefix")
    x = int.from_bytes(data[1:], "big")
    if x >= _P:
        raise InvalidElement("x out of field range")
    rhs = (x * x * x + _A * x + _B) % _P
    y = _field_pow(rhs, _SQRT_EXPONENT)
    if y * y % _P != rhs:
        raise InvalidElement("x has no point on the curve")
    if y & 1 != data[0] & 1:
        y = _P - y
    return _point(x, y)


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


# ---------------------------------------------------------------------------
# Native arithmetic: OpenSSL 3's EC_POINTs_mul, EC_POINT_add and
# BN_mod_exp_mont_consttime through ctypes.
# ---------------------------------------------------------------------------

_LIBCRYPTO = "libcrypto.so.3"
try:
    # By soname: ctypes.util.find_library would spawn ldconfig on every command.
    _libcrypto = ctypes.CDLL(_LIBCRYPTO)
except OSError as exc:
    raise ImportError(f"pdid needs OpenSSL 3's {_LIBCRYPTO}: {exc}") from exc

_ptr = ctypes.c_void_p


def _bind(name: str, restype: Optional[type], *argtypes: type):
    try:
        function = getattr(_libcrypto, name)
    except AttributeError as exc:
        # EC_POINTs_mul, EC_POINT_set_Jprojective_coordinates_GFp,
        # EC_GROUP_method_of and EC_GFp_mont_method are deprecated in OpenSSL
        # 3, and a build configured no-deprecated lacks them.
        raise ImportError(f"pdid needs {name} from OpenSSL 3's {_LIBCRYPTO}: {exc}") from exc
    function.restype = restype
    function.argtypes = argtypes
    return function


_EC_GROUP_new_by_curve_name = _bind("EC_GROUP_new_by_curve_name", _ptr, ctypes.c_int)
_EC_GROUP_method_of = _bind("EC_GROUP_method_of", _ptr, _ptr)
_EC_GFp_mont_method = _bind("EC_GFp_mont_method", _ptr)
_EC_POINT_new = _bind("EC_POINT_new", _ptr, _ptr)
_EC_POINT_clear_free = _bind("EC_POINT_clear_free", None, _ptr)
_EC_POINT_oct2point = _bind(
    "EC_POINT_oct2point", ctypes.c_int, _ptr, _ptr, ctypes.c_char_p, ctypes.c_size_t, _ptr
)
_EC_POINT_point2oct = _bind(
    "EC_POINT_point2oct",
    ctypes.c_size_t,
    _ptr,
    _ptr,
    ctypes.c_int,
    ctypes.c_char_p,
    ctypes.c_size_t,
    _ptr,
)
# The points and scalars go as arrays of pointers, passed as c_void_p:
# ctypes converts an array to that faster than to POINTER(c_void_p).
_EC_POINTs_mul = _bind(
    "EC_POINTs_mul", ctypes.c_int, _ptr, _ptr, _ptr, ctypes.c_size_t, _ptr, _ptr, _ptr
)
_EC_POINT_add = _bind("EC_POINT_add", ctypes.c_int, _ptr, _ptr, _ptr, _ptr, _ptr)
_EC_POINT_set_Jprojective_coordinates_GFp = _bind(
    "EC_POINT_set_Jprojective_coordinates_GFp", ctypes.c_int, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr
)
_BN_bin2bn = _bind("BN_bin2bn", _ptr, ctypes.c_char_p, ctypes.c_int, _ptr)
_BN_set_flags = _bind("BN_set_flags", None, _ptr, ctypes.c_int)
_BN_clear_free = _bind("BN_clear_free", None, _ptr)
_BN_new = _bind("BN_new", _ptr)
_BN_bn2binpad = _bind("BN_bn2binpad", ctypes.c_int, _ptr, ctypes.c_char_p, ctypes.c_int)
_BN_CTX_new = _bind("BN_CTX_new", _ptr)
_BN_CTX_free = _bind("BN_CTX_free", None, _ptr)
_BN_MONT_CTX_new = _bind("BN_MONT_CTX_new", _ptr)
_BN_MONT_CTX_set = _bind("BN_MONT_CTX_set", ctypes.c_int, _ptr, _ptr, _ptr)
_BN_mod_exp_mont_consttime = _bind(
    "BN_mod_exp_mont_consttime", ctypes.c_int, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr
)

_NID_X9_62_PRIME256V1 = 415
_POINT_CONVERSION_UNCOMPRESSED = 4
_BN_FLG_CONSTTIME = 0x04
_OCTETS_LEN = 65  # 0x04 || x || y

_GROUP = _EC_GROUP_new_by_curve_name(_NID_X9_62_PRIME256V1)
if not _GROUP:
    raise ImportError(f"{_LIBCRYPTO} has no P-256 group")


def _refuse_generic_method(group: int) -> None:
    """Refuse a group on OpenSSL's generic EC_GFp_mont_method: it takes
    the constant-time Montgomery ladder for one point only, and sums two
    points (`hmqv_key`) by variable-time wNAF. P-256 gets its own method
    from OpenSSL's assembly (nistz256, on x86-64 and aarch64) or from a
    build configured enable-ec_nistp_64_gcc_128 (nistp256)."""
    if _EC_GROUP_method_of(group) == _EC_GFp_mont_method():
        raise ImportError(
            f"pdid needs a constant-time two-point EC_POINTs_mul: {_LIBCRYPTO}'s P-256"
            " uses the generic EC_GFp_mont_method, which sums two points by variable-time wNAF"
        )


_refuse_generic_method(_GROUP)


def _montgomery(modulus: int) -> tuple[int, int]:
    """An odd prime modulus as a BIGNUM and its BN_MONT_CTX. Built once
    at import and never freed; `_field_pow` only reads them."""
    m = _BN_bin2bn(modulus.to_bytes(32, "big"), 32, None)
    mont = _BN_MONT_CTX_new()
    ctx = _BN_CTX_new()
    try:
        if not (m and mont and ctx and _BN_MONT_CTX_set(mont, m, ctx)):
            raise ImportError(f"{_LIBCRYPTO} could not set up Montgomery arithmetic")
    finally:
        _BN_CTX_free(ctx)
    return (m, mont)


_FIELD = _montgomery(_P)
_ORDER = _montgomery(GROUP_ORDER)


def _field_pow(x: int, e: int, field: tuple[int, int] = _FIELD) -> int:
    """x^e mod p (or mod the group order, given `_ORDER`) for 0 <= x, e
    below 2^256: one BN_mod_exp_mont_consttime, with x flagged
    BN_FLG_CONSTTIME and cleared when freed. Each call has its own BN_CTX
    and only reads the shared Montgomery context, so threads may
    exponentiate at once while ctypes releases the GIL."""
    m, mont = field
    ctx = _BN_CTX_new()
    base = _BN_bin2bn(x.to_bytes(32, "big"), 32, None)
    exponent = _BN_bin2bn(e.to_bytes(32, "big"), 32, None)
    result = _BN_new()
    try:
        if not (ctx and base and exponent and result):
            raise CryptoError("BIGNUM allocation failed")
        _BN_set_flags(base, _BN_FLG_CONSTTIME)
        if not _BN_mod_exp_mont_consttime(result, base, exponent, m, ctx, mont):
            raise CryptoError("BN_mod_exp_mont_consttime failed")
        out = ctypes.create_string_buffer(32)
        if _BN_bn2binpad(result, out, 32) != 32:
            raise CryptoError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")
    finally:
        _BN_clear_free(base)
        _BN_clear_free(exponent)
        _BN_clear_free(result)
        _BN_CTX_free(ctx)


def _octets(point: int) -> bytes:
    """An EC_POINT as uncompressed octets: 65 bytes, or one zero byte for
    the identity."""
    out = ctypes.create_string_buffer(_OCTETS_LEN)
    written = _EC_POINT_point2oct(
        _GROUP, point, _POINT_CONVERSION_UNCOMPRESSED, out, _OCTETS_LEN, None
    )
    if not written:
        raise CryptoError("EC_POINT_point2oct failed")
    return out.raw[:written]


def _point_mul(*terms: tuple[int, Optional[GroupElement]]) -> bytes:
    """The sum of k*b over the terms (k, b), b None for the generator, as
    uncompressed octets: 65 bytes, or one zero byte for the identity. An
    identity b adds nothing. At most one term is the generator's.

    One EC_POINTs_mul, which runs the group method's multiplication as
    EC_POINT_mul does; `_refuse_generic_method` keeps its two-point case
    constant-time. Each scalar is a BIGNUM flagged BN_FLG_CONSTTIME, as
    EC_KEY flags the one ECDH multiplies by, and is cleared when freed. No
    BN_CTX is passed, so OpenSSL makes its scratch space per call: ctypes
    releases the GIL around each call, and threads may multiply at once.
    """
    generator = result = None
    scalars: list[int] = []
    points: list[int] = []
    try:
        for k, b in terms:
            if b is not None and b.x is None:
                continue
            scalar = _BN_bin2bn(k.to_bytes(SCALAR_LEN, "big"), SCALAR_LEN, None)
            if not scalar:
                raise CryptoError("BN_bin2bn failed")
            _BN_set_flags(scalar, _BN_FLG_CONSTTIME)
            if b is None:
                generator = scalar
                continue
            scalars.append(scalar)
            points.append(_EC_POINT_new(_GROUP))
            octets = b"\x04" + b.x.to_bytes(32, "big") + b.y.to_bytes(32, "big")
            if not (
                points[-1] and _EC_POINT_oct2point(_GROUP, points[-1], octets, _OCTETS_LEN, None)
            ):
                raise CryptoError("EC_POINT_oct2point refused the base")
        result = _EC_POINT_new(_GROUP)
        if not result:
            raise CryptoError("EC_POINT_new failed")
        num = len(points)
        arrays = ((_ptr * num)(*points), (_ptr * num)(*scalars)) if num else (None, None)
        if not _EC_POINTs_mul(_GROUP, result, generator, num, *arrays, None):
            raise CryptoError("EC_POINTs_mul failed")
        return _octets(result)
    finally:
        _BN_clear_free(generator)
        for scalar in scalars:
            _BN_clear_free(scalar)
        for point in points:
            _EC_POINT_clear_free(point)
        _EC_POINT_clear_free(result)


def _point_add(a: tuple[int, int, int], b: tuple[int, int, int]) -> GroupElement:
    """a + b for projective points (X, Y, Z) with x = X/Z and y = Y/Z, each
    coordinate in [0, p), and Z = 0 the identity: one EC_POINT_add, on
    the Jacobian (XZ, YZ^2, Z) of each, into a's EC_POINT. The Jacobian
    setter checks nothing, so the sum is built through the checked
    GroupElement(x, y)."""
    coordinates = [_BN_new() for _ in range(3)]  # reused for b
    points = [_EC_POINT_new(_GROUP) for _ in range(2)]
    try:
        for (x, y, z), point in zip((a, b), points):
            values = [v.to_bytes(32, "big") for v in (x * z % _P, y * z * z % _P, z)]
            if not (
                all(coordinates)
                and point
                and all(_BN_bin2bn(v, 32, bn) for v, bn in zip(values, coordinates))
                and _EC_POINT_set_Jprojective_coordinates_GFp(_GROUP, point, *coordinates, None)
            ):
                raise CryptoError("setting Jacobian coordinates failed")
        if not _EC_POINT_add(_GROUP, points[0], points[0], points[1], None):
            raise CryptoError("EC_POINT_add failed")
        return _element(_octets(points[0]), GroupElement)
    finally:
        for bignum in coordinates:
            _BN_clear_free(bignum)
        for point in points:
            _EC_POINT_clear_free(point)


def _element(octets: bytes, make: Callable[[int, int], GroupElement] = _point) -> GroupElement:
    """An element from uncompressed octets (one zero byte is the identity),
    by default through `_point`, for a point that OpenSSL's `EC_POINTs_mul`
    has put on the curve."""
    if len(octets) == 1:
        return IDENTITY
    return make(int.from_bytes(octets[1:33], "big"), int.from_bytes(octets[33:], "big"))


def base_exp(e: Scalar) -> GroupElement:
    """Generator raised to e (OpenSSL's constant-time fixed-base multiplication)."""
    return _element(_point_mul((e.value, None)))


def exp(b: GroupElement, e: Scalar) -> GroupElement:
    """b raised to e; identity base or zero exponent give the identity."""
    return _element(_point_mul((e.value, b)))


def scalar_invert(s: Scalar) -> Scalar:
    """Multiplicative inverse mod the group order, s^(n-2) in constant
    time (`_field_pow`); zero is refused."""
    if s.value == 0:
        raise InvalidScalar("zero has no inverse")
    return Scalar(_field_pow(s.value, GROUP_ORDER - 2, _ORDER))


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
    return _digest(_SHA256, _frame(label, parts))


# Simplified SWU map for P-256 (RFC 9380 section 6.6.2, Z = -10), in the
# straight-line form of its appendix F.2 with sqrt_ratio for p = 3 mod 4:
# C1 = (p-3)/4 and C2 = sqrt(-Z).
_Z = _P - 10
_C1 = (_P - 3) // 4
_C2 = pow(10, _SQRT_EXPONENT, _P)


def _sswu(u: int) -> tuple[int, int, int]:
    """The map of u as projective (X, Y, Z): x = X/Z, y = Y/Z. Both
    candidates x1 and x2 = Z*u^2*x1 and both square roots are computed,
    with one exponentiation; each CMOV(a, b, c) of the RFC is `(a, b)[c]`,
    an index rather than a branch. y takes the parity of u."""
    p = _P
    tv1 = _Z * u * u % p
    tv2 = (tv1 * tv1 + tv1) % p
    tv3 = _B * (tv2 + 1) % p
    tv4 = _A * (_Z, p - tv2)[tv2 != 0] % p  # x1 = tv3/tv4
    tv6 = tv4 * tv4 % p
    v = tv6 * tv4 % p  # gx1 = num/v
    num = ((tv3 * tv3 + _A * tv6) * tv3 + _B * v) % p
    # sqrt_ratio(num, v): y1 = sqrt(num/v) if that is a square, else
    # sqrt(Z*num/v).
    uv = num * v % p
    y1 = _field_pow(v * v % p * uv % p, _C1) * uv % p
    is_square = y1 * y1 % p * v % p == num
    y1 = (y1 * _C2 % p, y1)[is_square]
    x = (tv1 * tv3 % p, tv3)[is_square]
    y = (tv1 * u % p * y1 % p, y1)[is_square]
    y = (p - y, y)[(u & 1) == (y & 1)]
    return (x, y * tv4 % p, tv4)


def hash_to_group(label: Label, parts: Sequence[bytes]) -> GroupElement:
    """Map labeled input to a group element (uniform two-point SWU map):
    the two maps are summed by one native `_point_add`."""
    framed = _frame(label, parts)
    us = []
    for i in (1, 2):
        raw = _digest(_SHA512, b"hash-to-group" + bytes([i]) + framed)
        us.append(int.from_bytes(raw[:48], "big") % _P)
    return _point_add(_sswu(us[0]), _sswu(us[1]))


def _hmac(key: bytes, msg: bytes) -> HMAC:
    if len(key) != KEY_LEN:
        raise CryptoError("prf key must be 32 bytes")
    h = HMAC(key, _SHA256)
    h.update(msg)
    return h


def prf(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 under a 32-byte key."""
    return _hmac(key, msg).finalize()


def prf_verify(key: bytes, msg: bytes, tag: bytes) -> bool:
    """Whether tag is prf(key, msg), compared in constant time by `cryptography`."""
    try:
        _hmac(key, msg).verify(tag)
    except InvalidSignature:
        return False
    return True


def hmqv_key(
    peer_eph: GroupElement, peer_static: GroupElement, e_peer: bytes,
    own_eph: Scalar, own_static: Scalar, e_own: bytes,
) -> bytes:
    """One endpoint's HMQV session key (FORMATS.md, "Key schedule"):
    PRF(H("hmqv-key", [x(sigma)]), 0x00) with sigma = (peer_eph *
    peer_static^e_peer)^x' and x' = own_eph + e_own * own_static mod n,
    each 32-byte digest read as a little-endian integer. sigma is one
    two-point multiplication, x'*peer_eph + (x' * e_peer mod n)*peer_static.
    A digest of another length or a zero x' raises InvalidScalar, and an
    identity sigma, which has no x, InvalidElement."""
    if len(e_own) != DIGEST_LEN or len(e_peer) != DIGEST_LEN:
        raise InvalidScalar("digest must be 32 bytes")
    exponent = (own_eph.value + int.from_bytes(e_own, "little") * own_static.value) % GROUP_ORDER
    if exponent == 0:
        raise InvalidScalar("a zero exponent has no Diffie-Hellman value")
    peer_exponent = exponent * int.from_bytes(e_peer, "little") % GROUP_ORDER
    sigma = _point_mul((exponent, peer_eph), (peer_exponent, peer_static))
    if len(sigma) == 1:
        raise InvalidElement("the HMQV secret is the identity")
    return prf(hash_parts("hmqv-key", [sigma[1:33]]), b"\x00")


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
    public = _x25519_private(secret).public_key().public_bytes_raw()
    return KeyPair(secret, public)


def _box_key(eph_public: bytes, recipient_public: bytes, shared: bytes) -> bytes:
    return hash_parts("pke-kdf", [eph_public, recipient_public, shared])


class Box(Frozen):
    """The sender's half of one box: ephemeral public key, nonce and AEAD
    key, with the key exchange already done."""

    __slots__ = ("eph_public", "nonce", "key")
    eph_public: bytes
    nonce: bytes
    key: bytes


def pk_box(public: bytes, entropy: Optional[bytes] = None) -> Box:
    """Run the key exchange of a box to `public`. A key with no box to it
    (a low-order X25519 point, whose shared secret is all zero) is refused
    with CryptoError, so a caller can refuse it before changing any state.

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
    eph = _x25519_private(eph_secret)
    eph_public = eph.public_key().public_bytes_raw()
    try:
        shared = eph.exchange(_x25519_public(public))
    except ValueError as exc:
        raise CryptoError("box public key is a low-order point") from exc
    return Box(eph_public, nonce, _box_key(eph_public, public, shared))


def pk_encrypt(public: Union[bytes, Box], plaintext: bytes) -> bytes:
    """Encrypt to a box public key or, skipping the key exchange (and
    derandomized if it was made with entropy), into a `pk_box`."""
    box = pk_box(public) if isinstance(public, bytes) else public
    return box.eph_public + box.nonce + ChaCha20Poly1305(box.key).encrypt(
        box.nonce, plaintext, None
    )


def box_private_key(secret: bytes) -> X25519PrivateKey:
    """Key object for a box secret; build it once for repeated decryption."""
    if len(secret) != BOX_SECRET_LEN:
        raise CryptoError("box secret key must be 32 bytes")
    return _x25519_private(secret)


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
        shared = sk.exchange(_x25519_public(eph_public))
        key = _box_key(eph_public, public, shared)
        return ChaCha20Poly1305(key).decrypt(nonce, body, None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptFailure("box decryption failed") from exc


# ---------------------------------------------------------------------------
# Detached signatures (Ed25519) for ledger node attestations.
# ---------------------------------------------------------------------------


def sig_public(seed: bytes) -> bytes:
    """Public half for a 32-byte signing seed."""
    return signing_key(seed).public_key().public_bytes_raw()


def signing_key(seed: bytes) -> Ed25519PrivateKey:
    """Key object for a signing seed."""
    return _ed25519_private(seed)


def sign(seed: bytes, message: bytes) -> bytes:
    """Sign with a 32-byte seed."""
    return signing_key(seed).sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        _ed25519_public(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False
