"""Group arithmetic, hashing, PRF, AEAD, public-key box, and signatures.

The group tests check exponentiation against a pure-Python affine
reference, and against the same curve in the `cryptography` package on
random inputs. The latter compares two OpenSSL builds: the system
libcrypto that `crypto` multiplies with, and the one `cryptography` ships.
"""

import gc
import hashlib
import hmac
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings
from hypothesis import strategies as st
from test_formats import off_curve_x

from pdid import crypto
from pdid.errors import (
    AuthFailure,
    CryptoError,
    DecryptFailure,
    InvalidElement,
    InvalidScalar,
)

# Self-generated golden vectors, recorded at first build and frozen.
GOLDEN_PRF = "ed39a59fc7e8fec984bcf69b0aeb3ada233c34cb999508932665d5cced8edbcc"
GOLDEN_HASH = "f71c95a12e485802aa404376d9826d342c60b46375e4073d057926d165ebc855"
GOLDEN_BASE_12345 = "0226efcebd0ee9e34a669187e18b3a9122b2f733945b649cc9f9f921e9f9dad812"
GOLDEN_HASH_TO_GROUP = (
    "02adf09189e5faf13cee7b76b1706e31f433206a7e7c14d62d89f59f7fb4622c5b"
)


# ---------------------------------------------------------------------------
# Scalars.
# ---------------------------------------------------------------------------


def test_random_scalar_range_and_distinctness():
    seen = set()
    for _ in range(200):
        s = crypto.random_scalar()
        assert 1 <= s.value < crypto.GROUP_ORDER
        seen.add(s.value)
    assert len(seen) == 200


def test_random_scalar_byte_uniformity_chi_square(seeded):
    # Pool all 32 encoded byte positions over 10^4 draws; generous threshold.
    counts = [0] * 256
    for _ in range(10_000):
        for b in crypto.random_scalar().encode():
            counts[b] += 1
    total = sum(counts)
    expected = total / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 450, f"chi-square {chi2:.1f} suggests non-uniform scalar bytes"


def test_scalar_encode_decode_round_trip():
    for _ in range(50):
        s = crypto.random_scalar()
        encoded = s.encode()
        assert len(encoded) == crypto.SCALAR_LEN
        assert crypto.decode_scalar(encoded) == s


def test_scalar_decode_rejects_out_of_range():
    too_big = (crypto.GROUP_ORDER).to_bytes(32, "little")
    with pytest.raises(InvalidScalar):
        crypto.decode_scalar(too_big)
    with pytest.raises(InvalidScalar):
        crypto.decode_scalar(b"\x01" * 31)


def test_scalar_invert_identities():
    one = crypto.Scalar(1)
    assert crypto.scalar_invert(one) == one
    two = crypto.Scalar(2)
    assert crypto.scalar_invert(two).value == (crypto.GROUP_ORDER + 1) // 2
    with pytest.raises(InvalidScalar):
        crypto.scalar_invert(crypto.Scalar(0))


def test_field_pow_matches_python_pow(seeded):
    for modulus, field in ((P256_P, crypto._FIELD), (P256_N, crypto._ORDER)):
        xs = [0, 1, 2, modulus - 1] + [
            int.from_bytes(crypto.random_bytes(32), "big") % modulus for _ in range(100)
        ]
        es = [0, 1, 2, (modulus + 1) // 4, modulus - 2, modulus - 1]
        for i, x in enumerate(xs):
            for e in es + [int.from_bytes(crypto.random_bytes(32), "big") % modulus]:
                assert crypto._field_pow(x, e, field) == pow(x, e, modulus), (i, e)
        for x in xs[1:]:
            assert crypto._field_pow(x, modulus - 2, field) == pow(x, -1, modulus)
    assert crypto._field_pow(7, 5) == pow(7, 5, P256_P)  # mod p by default


def test_scalar_invert_round_trip_on_points():
    for _ in range(20):
        s = crypto.random_scalar()
        p = crypto.base_exp(crypto.random_scalar())
        assert crypto.exp(crypto.exp(p, s), crypto.scalar_invert(s)) == p


# ---------------------------------------------------------------------------
# Group exponentiation.
# ---------------------------------------------------------------------------


def test_exp_identity_exponent():
    p = crypto.base_exp(crypto.random_scalar())
    assert crypto.exp(p, crypto.Scalar(1)) == p


def test_exp_small_exponent_arithmetic():
    assert crypto.exp(crypto.base_exp(crypto.Scalar(2)), crypto.Scalar(3)) == (
        crypto.base_exp(crypto.Scalar(6))
    )


def test_exp_commutativity_100_pairs():
    for _ in range(100):
        a, b = crypto.random_scalar(), crypto.random_scalar()
        assert crypto.exp(crypto.base_exp(a), b) == crypto.exp(crypto.base_exp(b), a)


def test_exp_matches_exponent_product():
    for _ in range(100):
        a, b = crypto.random_scalar(), crypto.random_scalar()
        assert crypto.exp(crypto.base_exp(a), b) == crypto.base_exp(
            crypto.scalar_mul(a, b)
        )


def test_base_exp_matches_independent_library():
    # Same curve in the cryptography package: public key for private value k.
    for _ in range(25):
        k = crypto.random_scalar()
        ours = crypto.base_exp(k)
        pub = ec.derive_private_key(k.value, ec.SECP256R1()).public_key()
        nums = pub.public_numbers()
        assert (ours.x, ours.y) == (nums.x, nums.y)


def test_exp_matches_independent_library_dh():
    # exp on arbitrary bases cross-checked through the library's key exchange:
    # the shared secret is the x-coordinate of (a*b)G, big-endian.
    for _ in range(10):
        a, b = crypto.random_scalar(), crypto.random_scalar()
        ours = crypto.exp(crypto.base_exp(a), b)
        priv_b = ec.derive_private_key(b.value, ec.SECP256R1())
        pub_a = ec.derive_private_key(a.value, ec.SECP256R1()).public_key()
        shared = priv_b.exchange(ec.ECDH(), pub_a)
        assert shared == ours.x.to_bytes(32, "big")


def test_dh_x_is_the_x_coordinate_of_exp(seeded):
    n = crypto.GROUP_ORDER
    exponents = [1, n - 1] + [crypto.random_scalar().value for _ in range(30)]
    for k in exponents:
        b = crypto.base_exp(crypto.random_scalar())
        e = crypto.Scalar(k)
        assert crypto.dh_x(b, e) == crypto.exp(b, e).x.to_bytes(32, "big")


def test_dh_x_keeps_leading_zero_bytes():
    k = next(k for k in range(1, 10_000) if crypto.base_exp(crypto.Scalar(k)).x < 1 << 248)
    out = crypto.dh_x(crypto.GENERATOR, crypto.Scalar(k))
    assert len(out) == 32 and out[0] == 0
    assert out == crypto.base_exp(crypto.Scalar(k)).x.to_bytes(32, "big")


def test_dh_x_refuses_the_identity_base_and_the_zero_exponent():
    with pytest.raises(InvalidElement):
        crypto.dh_x(crypto.IDENTITY, crypto.random_scalar())
    with pytest.raises(InvalidScalar):
        crypto.dh_x(crypto.base_exp(crypto.random_scalar()), crypto.Scalar(0))


def test_hmqv_key_mirror_images_agree_with_the_integer_schedule(seeded):
    n = crypto.GROUP_ORDER
    for _ in range(10):
        x, a, y, b = (crypto.random_scalar() for _ in range(4))
        X, A, Y, B = (crypto.base_exp(s) for s in (x, a, y, b))
        e_u, e_s = crypto.random_bytes(32), crypto.random_bytes(32)
        client = crypto.hmqv_key(Y, B, e_s, x, a, e_u)
        assert client == crypto.hmqv_key(X, A, e_u, y, b, e_s)
        u, s = int.from_bytes(e_u, "little") % n, int.from_bytes(e_s, "little") % n
        sigma = crypto.Scalar((x.value + u * a.value) * (y.value + s * b.value) % n)
        raw_key = crypto.hash_parts("hmqv-key", [crypto.dh_x(crypto.GENERATOR, sigma)])
        assert client == crypto.prf(raw_key, b"\x00")
    # A peer ephemeral share of A^-e_u makes the combined base the identity.
    with pytest.raises(CryptoError):
        crypto.hmqv_key(crypto.exp(A, crypto.Scalar(-u % n)), A, e_u, y, b, e_s)


def test_mul_is_group_addition():
    for _ in range(20):
        a, b = crypto.random_scalar(), crypto.random_scalar()
        assert crypto.mul(crypto.base_exp(a), crypto.base_exp(b)) == crypto.base_exp(
            crypto.scalar_add(a, b)
        )


def test_identity_element_behavior():
    identity = crypto.GroupElement(None, None)
    p = crypto.base_exp(crypto.random_scalar())
    assert crypto.mul(identity, p) == p
    assert crypto.mul(p, identity) == p
    assert crypto.exp(identity, crypto.random_scalar()) == identity
    assert crypto.exp(p, crypto.Scalar(0)) == identity
    assert identity.encode() == b"\x00" * crypto.ELEMENT_LEN


def test_element_encode_decode_round_trip():
    for _ in range(50):
        p = crypto.base_exp(crypto.random_scalar())
        encoded = p.encode()
        assert len(encoded) == crypto.ELEMENT_LEN
        assert encoded[0] in (2, 3)
        assert crypto.decode_element(encoded) == p


def test_element_decode_rejects_bad_encodings():
    good = crypto.base_exp(crypto.random_scalar()).encode()
    with pytest.raises(InvalidElement):
        crypto.decode_element(b"\x00" * 33)  # identity never decodes
    with pytest.raises(InvalidElement):
        crypto.decode_element(good[:32])
    with pytest.raises(InvalidElement):
        crypto.decode_element(b"\x04" + good[1:])
    # x >= field prime
    with pytest.raises(InvalidElement):
        crypto.decode_element(b"\x02" + b"\xff" * 32)


def test_element_decode_rejects_non_residue_x():
    # Find an x with no curve point by scanning from a valid x upward.
    base = crypto.base_exp(crypto.Scalar(5))
    x = base.x
    rejected = 0
    for dx in range(1, 40):
        candidate = b"\x02" + (x + dx).to_bytes(32, "big")
        try:
            crypto.decode_element(candidate)
        except InvalidElement:
            rejected += 1
    assert rejected > 0  # about half of all x lack a point


# Independent reference for decode_element: SEC1 decompression in pure
# Python, y = rhs^((p+1)/4) because the P-256 prime is 3 mod 4.
P256_P = 2**256 - 2**224 + 2**192 + 2**96 - 1
P256_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B


def reference_decode_element(data):
    if len(data) != 33 or data[0] not in (2, 3):
        raise InvalidElement("bad encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= P256_P:
        raise InvalidElement("x out of field range")
    rhs = (x * x * x - 3 * x + P256_B) % P256_P
    y = pow(rhs, (P256_P + 1) // 4, P256_P)
    if y * y % P256_P != rhs:
        raise InvalidElement("x has no point on the curve")
    if y & 1 != data[0] & 1:
        y = P256_P - y
    return crypto.GroupElement(x, y)


def decode_outcome(decode, data):
    try:
        return decode(data)
    except InvalidElement:
        return InvalidElement


def test_element_decode_matches_reference(seeded):
    points = [crypto.base_exp(crypto.random_scalar()).encode() for _ in range(40)]
    encodings = [b"\x00" * 33, b"\x02" + b"\xff" * 32, b"\x03" + P256_P.to_bytes(32, "big")]
    for point in points:
        encodings.append(point)
        encodings.append(bytes([point[0] ^ 1]) + point[1:])  # the negated point
        encodings.extend(bytes([prefix]) + point[1:] for prefix in (0, 1, 4))
        encodings.extend((point[:32], point + b"\x00"))
    for _ in range(100):
        x = crypto.random_bytes(32)
        encodings.append(bytes([2 + x[0] % 2]) + x)  # about half have no point
    for _ in range(20):
        x = P256_P + int.from_bytes(crypto.random_bytes(28), "big")
        encodings.append(b"\x02" + x.to_bytes(32, "big"))
    assert len(encodings) >= 300
    outcomes = [decode_outcome(crypto.decode_element, e) for e in encodings]
    assert outcomes == [decode_outcome(reference_decode_element, e) for e in encodings]
    valid = sum(o is not InvalidElement for o in outcomes)
    assert 80 < valid < len(encodings) - 100


# Independent reference for the group law: affine double-and-add in pure
# Python (None is the identity), so exp, base_exp, dh_x and mul are not
# checked against OpenSSL alone.
P256_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
P256_G = (
    0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)
EDGE_SCALARS = (1, 2, P256_N - 2, P256_N - 1)


def reference_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and (y1 + y2) % P256_P == 0:
        return None
    if p1 == p2:
        slope = (3 * x1 * x1 - 3) * pow(2 * y1, -1, P256_P)
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, P256_P)
    x3 = (slope * slope - x1 - x2) % P256_P
    return (x3, (slope * (x1 - x3) - y1) % P256_P)


def reference_mult(k, point):
    acc = None
    while k:
        if k & 1:
            acc = reference_add(acc, point)
        point = reference_add(point, point)
        k >>= 1
    return acc


def as_pair(element):
    return None if element.is_identity else (element.x, element.y)


def test_group_operations_match_affine_reference(seeded):
    scalars = [crypto.random_scalar().value for _ in range(30)] + list(EDGE_SCALARS)
    bases = [reference_mult(crypto.random_scalar().value, P256_G) for _ in range(6)]
    bases.append(P256_G)
    for k in scalars:
        assert as_pair(crypto.base_exp(crypto.Scalar(k))) == reference_mult(k, P256_G)
    cases = [(bases[i % len(bases)], k) for i, k in enumerate(scalars)]
    cases += [(base, k) for base in bases for k in EDGE_SCALARS]
    for base, k in cases:
        element, e = crypto.GroupElement(*base), crypto.Scalar(k)
        expected = reference_mult(k, base)
        assert as_pair(crypto.exp(element, e)) == expected
        assert crypto.dh_x(element, e) == expected[0].to_bytes(32, "big")
    assert crypto.base_exp(crypto.Scalar(0)) == crypto.IDENTITY
    for base in bases:
        assert crypto.exp(crypto.GroupElement(*base), crypto.Scalar(0)) == crypto.IDENTITY
        with pytest.raises(InvalidScalar):
            crypto.dh_x(crypto.GroupElement(*base), crypto.Scalar(0))
    for k in (0, *EDGE_SCALARS):
        assert crypto.exp(crypto.IDENTITY, crypto.Scalar(k)) == crypto.IDENTITY
        with pytest.raises(InvalidElement):
            crypto.dh_x(crypto.IDENTITY, crypto.Scalar(k))
    for a, b in zip(bases, bases[1:] + bases[:1]):
        ours = crypto.mul(crypto.GroupElement(*a), crypto.GroupElement(*b))
        assert as_pair(ours) == reference_add(a, b)


def test_multiplications_agree_across_threads(seeded):
    # ctypes releases the GIL around EC_POINT_mul and
    # BN_mod_exp_mont_consttime, so threads multiply and exponentiate at
    # once; any scratch state they shared, or a write to the shared
    # Montgomery contexts, would show as a wrong result.
    cases = [(crypto.base_exp(crypto.random_scalar()), crypto.random_scalar()) for _ in range(8)]

    def results():
        return [
            (
                crypto.exp(b, e),
                crypto.dh_x(b, e),
                crypto.base_exp(e),
                crypto.decode_element(b.encode()),
                crypto.hash_to_group("threads", [e.encode()]),
                crypto.scalar_invert(e),
            )
            for b, e in cases
        ]

    serial = results()
    deadline = time.monotonic() + 1.5
    rounds, errors = [], []

    def worker():
        try:
            while time.monotonic() < deadline:
                assert results() == serial
                rounds.append(1)
        except Exception as exc:  # collected, asserted below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(2 * (os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(rounds) >= len(threads)


# Calls each native path once a round, 300 warm-up rounds (the allocator's
# pools fill), then prints the RSS growth over 5,000 more, in bytes.
NATIVE_LOOP = """
import gc, os
from pdid import crypto

def rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

b, e = crypto.base_exp(crypto.random_scalar()), crypto.random_scalar()
encoded = b.encode()

def calls(count):
    for _ in range(count):
        crypto.exp(b, e)
        crypto.dh_x(b, e)
        crypto.base_exp(e)
        crypto.decode_element(encoded)
        crypto.hash_to_group("leak", [encoded])
        crypto.scalar_invert(e)

calls(300)
gc.collect()
before = rss_bytes()
calls(5000)
gc.collect()
print(rss_bytes() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_native_calls_free_what_they_allocate():
    # A multiplication that leaves one BIGNUM unfreed grows RSS by about
    # 650 KiB over the loop. It runs in a fresh interpreter: the free chunks a
    # test process's heap holds would take a leak in without RSS growing.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crypto.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", NATIVE_LOOP], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 256 * 1024


def test_mul_doubling_and_inverse():
    p = crypto.base_exp(crypto.random_scalar())
    negated = crypto.GroupElement(p.x, P256_P - p.y)
    assert crypto.mul(p, p) == crypto.exp(p, crypto.Scalar(2))
    assert crypto.mul(p, negated) == crypto.IDENTITY
    assert crypto.exp(p, crypto.Scalar(P256_N - 1)) == negated


def test_golden_base_point_multiple():
    assert crypto.base_exp(crypto.Scalar(12345)).encode().hex() == GOLDEN_BASE_12345


# ---------------------------------------------------------------------------
# Hashing and hash-to-group.
# ---------------------------------------------------------------------------


def test_hash_deterministic_and_framed():
    assert crypto.hash_parts("test-label", [b"a", b"bc"]).hex() == GOLDEN_HASH
    assert crypto.hash_parts("x", [b"ab", b"c"]) != crypto.hash_parts("x", [b"a", b"bc"])
    assert crypto.hash_parts("x", [b"ab"]) != crypto.hash_parts("y", [b"ab"])
    assert len(crypto.hash_parts("x", [b""])) == crypto.DIGEST_LEN


def test_hash_no_collisions_in_structured_corpus():
    corpus = []
    for label in ("l1", "l2"):
        for parts in ([b""], [b"a"], [b"a", b""], [b"", b"a"], [b"a", b"b"], [b"ab"]):
            corpus.append(crypto.hash_parts(label, parts))
    assert len(set(corpus)) == len(corpus)


def test_hash_to_group_membership_and_determinism():
    p = crypto.hash_to_group("pwd", [b"hunter2"])
    assert p == crypto.hash_to_group("pwd", [b"hunter2"])
    assert p.encode().hex() == GOLDEN_HASH_TO_GROUP
    # Membership: encoding round-trips through the strict decoder.
    assert crypto.decode_element(p.encode()) == p
    # Distinct inputs land on distinct points.
    points = {crypto.hash_to_group("pwd", [bytes([i])]).encode() for i in range(64)}
    assert len(points) == 64


def test_hash_to_group_not_identity():
    for i in range(32):
        assert crypto.hash_to_group("t", [i.to_bytes(2, "big")]).x is not None


# Independent reference for the hash-to-group map: the simplified SWU map
# with Fermat inversions and (p+1)/4 square roots in pure Python. Returns
# the point and whether the x2 branch was taken.
P256_A = P256_P - 3
P256_Z = P256_P - 10


def reference_sswu(u):
    p, a, b, z = P256_P, P256_A, P256_B, P256_Z
    zu2 = z * u * u % p
    tv = (zu2 * zu2 + zu2) % p
    if tv == 0:
        x1 = b * pow(z * a % p, p - 2, p) % p
    else:
        x1 = b * pow(a, p - 2, p) % p * (p - 1 - pow(tv, p - 2, p)) % p
    gx1 = (x1 * x1 % p * x1 + a * x1 + b) % p
    y1 = pow(gx1, (p + 1) // 4, p)
    if y1 * y1 % p == gx1:
        x, y, used_x2 = x1, y1, False
    else:
        x = zu2 * x1 % p
        y, used_x2 = pow((x * x % p * x + a * x + b) % p, (p + 1) // 4, p), True
    if (u & 1) != (y & 1):
        y = p - y
    return (x, y), used_x2


def curve_rhs(x):
    return (x * x * x + P256_A * x + P256_B) % P256_P


def affine(x, y, z):
    """The affine point of projective (x : y : z); None for z = 0."""
    if z % P256_P == 0:
        return None
    z_inv = pow(z, -1, P256_P)
    return (x * z_inv % P256_P, y * z_inv % P256_P)


def test_sswu_matches_reference(seeded):
    root = pow(pow(10, -1, P256_P), (P256_P + 1) // 4, P256_P)
    assert root * root % P256_P == pow(10, -1, P256_P)  # 1/10 is a square
    # The inputs with tv = 0: u = 0, and u = +-1/sqrt(10), where Z*u^2 = -1.
    tv_zero = [0, root, P256_P - root]
    for u in tv_zero:
        zu2 = P256_Z * u * u % P256_P
        assert (zu2 * zu2 + zu2) % P256_P == 0
    edges = tv_zero + [1, P256_P - 1]
    us = edges + [
        int.from_bytes(crypto.random_bytes(48), "big") % P256_P for _ in range(2000)
    ]
    branches = set()
    for u in us:
        (x, y), used_x2 = reference_sswu(u)
        assert affine(*crypto._sswu(u)) == (x, y), u
        assert y & 1 == u & 1
        assert y * y % P256_P == curve_rhs(x)
        branches.add(used_x2)
    assert branches == {False, True}


def test_lift_x_matches_euler_criterion(seeded):
    # decode_element's square root lifts x to the y of the prefix's parity.
    xs = [int.from_bytes(off_curve_x(), "big"), P256_G[0], 0, P256_P - 1]
    xs += [int.from_bytes(crypto.random_bytes(32), "big") % P256_P for _ in range(300)]
    lifted = 0
    for x in xs:
        residue = pow(curve_rhs(x), (P256_P - 1) // 2, P256_P) == 1
        for parity in (0, 1):
            encoding = bytes([2 | parity]) + x.to_bytes(32, "big")
            if not residue:
                with pytest.raises(InvalidElement):
                    crypto.decode_element(encoding)
                continue
            y = crypto.decode_element(encoding).y
            assert y & 1 == parity
            assert y * y % P256_P == curve_rhs(x)
            lifted += 1
    assert 100 < lifted < 2 * len(xs) - 100


@settings(deadline=None)
@given(st.one_of(st.text(), st.binary()), st.lists(st.binary(), max_size=4))
def test_hash_to_group_is_sum_of_reference_maps(label, parts):
    point = crypto.hash_to_group(label, parts)
    framed = crypto._frame(label, parts)
    maps = []
    for i in (1, 2):
        raw = hashlib.sha512(b"hash-to-group" + bytes([i]) + framed).digest()
        maps.append(reference_sswu(int.from_bytes(raw[:48], "big") % P256_P)[0])
    assert not point.is_identity
    assert point.y * point.y % P256_P == curve_rhs(point.x)
    assert (point.x, point.y) == crypto._add(*maps[0], *maps[1])


def test_complete_addition_matches_affine_reference(seeded):
    # Doubling, a point plus its inverse, and the identity (z = 0) on either
    # side need no special case, in any projective scaling.
    points = [reference_mult(crypto.random_scalar().value, P256_G) for _ in range(5)]
    points.append(P256_G)

    def projective(point):
        if point is None:
            return (0, 1, 0)
        scale = 1 + int.from_bytes(crypto.random_bytes(32), "big") % (P256_P - 1)
        return (point[0] * scale % P256_P, point[1] * scale % P256_P, scale)

    pairs = [(a, b) for a in points for b in points]
    pairs += [(a, (a[0], P256_P - a[1])) for a in points]
    pairs += [(a, None) for a in points] + [(None, a) for a in points] + [(None, None)]
    for a, b in pairs:
        assert affine(*crypto._add_complete(*projective(a), *projective(b))) == reference_add(a, b)


def welch_t(a, b):
    return (statistics.fmean(a) - statistics.fmean(b)) / math.sqrt(
        statistics.variance(a) / len(a) + statistics.variance(b) / len(b)
    )


def test_sswu_time_does_not_depend_on_its_branch():
    """Dudect-style leakage test (Reparaz, Balasch and Verbauwhede, DATE
    2017) of the simplified SWU map, which runs on a password-derived u.

    The two classes are the u whose x1 has a point and the u whose x1 has
    none, told apart by `reference_sswu`. A map that computed x2's square
    root only in the second class would leak the class, as Dragonblood did
    (Vanhoef and Ronen, IEEE S&P 2020). Samples of the two classes are
    interleaved in a seeded random order, the times above the 95th
    percentile are cropped, and Welch's t must stay below 4.5 in absolute
    value. This times the whole call from Python. It cannot show whether
    BN_mod_exp_mont_consttime, or Python's big-integer multiply, is itself
    constant-time.
    """
    rng = random.Random(9380)
    pools = ([], [])
    while min(map(len, pools)) < 500:
        u = rng.randrange(P256_P)
        pools[reference_sswu(u)[1]].append(u)
    inputs = []
    for _ in range(20_000):
        branch = rng.getrandbits(1)
        inputs.append((branch, rng.choice(pools[branch])))
    sswu, clock = crypto._sswu, time.perf_counter_ns
    samples = ([], [])
    gc.disable()
    try:
        for branch, u in inputs:
            start = clock()
            sswu(u)
            samples[branch].append(clock() - start)
    finally:
        gc.enable()
    cutoff = sorted(samples[0] + samples[1])[int(0.95 * len(inputs))]
    cropped = [[t for t in times if t <= cutoff] for times in samples]
    t = welch_t(*cropped)
    assert abs(t) < 4.5, f"Welch t = {t:.1f} between the x1 and x2 classes"


# ---------------------------------------------------------------------------
# PRF.
# ---------------------------------------------------------------------------


def test_prf_golden_vector_frozen():
    assert crypto.prf(b"\x0b" * 32, b"golden-input").hex() == GOLDEN_PRF


def test_prf_determinism_and_key_separation():
    k1, k2 = b"\x01" * 32, b"\x02" * 32
    assert crypto.prf(k1, b"0") == crypto.prf(k1, b"0")
    assert crypto.prf(k1, b"0") != crypto.prf(k2, b"0")
    assert crypto.prf(k1, b"0") != crypto.prf(k1, b"1")


def test_prf_rejects_wrong_key_length():
    with pytest.raises(CryptoError):
        crypto.prf(b"short", b"msg")
    with pytest.raises(CryptoError):
        crypto.prf_verify(b"short", b"msg", b"\x00" * 32)


def test_hashing_and_prf_match_the_stdlib_oracle():
    # crypto hashes through `cryptography`; the stdlib is the oracle here.
    rng = random.Random(81)
    for _ in range(300):
        label = rng.randbytes(rng.randrange(40))
        parts = [rng.randbytes(rng.randrange(300)) for _ in range(rng.randrange(5))]
        framed = crypto._frame(label, parts)
        assert crypto.hash_parts(label, parts) == hashlib.sha256(framed).digest()
        us = [
            int.from_bytes(
                hashlib.sha512(b"hash-to-group" + bytes([i]) + framed).digest()[:48], "big"
            ) % P256_P
            for i in (1, 2)
        ]
        point = crypto.hash_to_group(label, parts)
        maps = [affine(*crypto._sswu(u)) for u in us]
        assert (point.x, point.y) == crypto._add(*maps[0], *maps[1])

        key, msg = rng.randbytes(32), rng.randbytes(rng.randrange(400))
        tag = crypto.prf(key, msg)
        assert tag == hmac.new(key, msg, hashlib.sha256).digest()
        assert crypto.prf_verify(key, msg, tag)
        bit = rng.randrange(8 * len(tag))
        flipped = bytearray(tag)
        flipped[bit // 8] ^= 1 << bit % 8
        assert not crypto.prf_verify(key, msg, bytes(flipped))
        assert not crypto.prf_verify(key, msg, tag[: rng.randrange(len(tag))])
        assert not crypto.prf_verify(key, msg, tag + rng.randbytes(rng.randrange(1, 33)))


# ---------------------------------------------------------------------------
# AEAD.
# ---------------------------------------------------------------------------


def test_aead_round_trip_lengths():
    key = crypto.random_bytes(crypto.KEY_LEN)
    for msg in (b"", b"x", crypto.random_bytes(1024)):
        ct = crypto.aead_encrypt(key, msg)
        assert len(ct) == len(msg) + crypto.AEAD_OVERHEAD
        assert crypto.aead_decrypt(key, ct) == msg


def test_aead_wrong_key_rejected():
    key = crypto.random_bytes(crypto.KEY_LEN)
    other = crypto.random_bytes(crypto.KEY_LEN)
    ct = crypto.aead_encrypt(key, b"secret")
    with pytest.raises(AuthFailure):
        crypto.aead_decrypt(other, ct)


def test_aead_every_bit_flip_rejected_short_message():
    key = crypto.random_bytes(crypto.KEY_LEN)
    ct = crypto.aead_encrypt(key, b"bits")
    for i in range(len(ct) * 8):
        corrupted = bytearray(ct)
        corrupted[i // 8] ^= 1 << (i % 8)
        with pytest.raises(AuthFailure):
            crypto.aead_decrypt(key, bytes(corrupted))


def test_aead_random_bit_flips_rejected_long_message(seeded):
    key = crypto.random_bytes(crypto.KEY_LEN)
    ct = crypto.aead_encrypt(key, crypto.random_bytes(1024))
    for _ in range(128):
        pos = int.from_bytes(crypto.random_bytes(2), "big") % (len(ct) * 8)
        corrupted = bytearray(ct)
        corrupted[pos // 8] ^= 1 << (pos % 8)
        with pytest.raises(AuthFailure):
            crypto.aead_decrypt(key, bytes(corrupted))


# ---------------------------------------------------------------------------
# Public-key box.
# ---------------------------------------------------------------------------


def test_pk_round_trip_lengths():
    pair = crypto.pk_gen()
    for msg in (b"", b"x", crypto.random_bytes(1024)):
        ct = crypto.pk_encrypt(pair.public, msg)
        assert len(ct) == len(msg) + crypto.PKE_OVERHEAD
        assert crypto.pk_decrypt(pair.secret, ct) == msg


def test_pk_wrong_key_and_tamper_rejected():
    pair = crypto.pk_gen()
    other = crypto.pk_gen()
    ct = crypto.pk_encrypt(pair.public, b"boxed")
    with pytest.raises(DecryptFailure):
        crypto.pk_decrypt(other.secret, ct)
    for i in range(0, len(ct) * 8, 7):
        corrupted = bytearray(ct)
        corrupted[i // 8] ^= 1 << (i % 8)
        with pytest.raises(DecryptFailure):
            crypto.pk_decrypt(pair.secret, bytes(corrupted))


def test_pk_decrypt_with_a_kept_key_object():
    pair = crypto.pk_gen()
    key = crypto.box_private_key(pair.secret)
    other = crypto.box_private_key(crypto.pk_gen().secret)
    for msg in (b"", b"x", crypto.random_bytes(300)):
        ct = crypto.pk_encrypt(pair.public, msg)
        assert crypto.pk_decrypt(key, ct) == crypto.pk_decrypt(pair.secret, ct) == msg
        with pytest.raises(DecryptFailure):
            crypto.pk_decrypt(other, ct)
    with pytest.raises(CryptoError):
        crypto.box_private_key(pair.secret[:-1])


def test_pk_encrypt_fresh_randomness():
    pair = crypto.pk_gen()
    assert crypto.pk_encrypt(pair.public, b"m") != crypto.pk_encrypt(pair.public, b"m")


def test_pk_encrypt_entropy_derandomizes():
    pair = crypto.pk_gen()
    entropy = crypto.random_bytes(32)
    a = crypto.pk_encrypt(crypto.pk_box(pair.public, entropy), b"m")
    b = crypto.pk_encrypt(crypto.pk_box(pair.public, entropy), b"m")
    assert a == b
    assert crypto.pk_decrypt(pair.secret, a) == b"m"
    c = crypto.pk_encrypt(crypto.pk_box(pair.public, crypto.random_bytes(32)), b"m")
    assert c != a


def test_pk_encrypt_refuses_a_low_order_key():
    # X25519 with the all-zero point (order 1) or the order-8 point below
    # gives an all-zero shared secret, which OpenSSL refuses.
    order_8 = bytes.fromhex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800")
    for public in (bytes(32), order_8):
        with pytest.raises(CryptoError):
            crypto.pk_encrypt(public, b"m")
        for entropy in (None, crypto.random_bytes(32)):
            with pytest.raises(CryptoError):
                crypto.pk_box(public, entropy)


def test_pk_encrypt_with_a_prepared_box():
    pair = crypto.pk_gen()
    entropy = crypto.random_bytes(32)
    box = crypto.pk_box(pair.public, entropy)
    ct = crypto.pk_encrypt(box, b"m")
    assert crypto.pk_decrypt(pair.secret, ct) == b"m"


# ---------------------------------------------------------------------------
# Signatures.
# ---------------------------------------------------------------------------


def test_signature_round_trip_and_rejection():
    seed = crypto.random_bytes(32)
    public = crypto.sig_public(seed)
    assert crypto.sig_public(crypto.signing_key(seed)) == public
    sig = crypto.sign(seed, b"attest this")
    assert len(sig) == crypto.SIG_LEN
    assert crypto.verify(public, b"attest this", sig)
    assert not crypto.verify(public, b"attest that", sig)
    corrupted = bytearray(sig)
    corrupted[0] ^= 1
    assert not crypto.verify(public, b"attest this", bytes(corrupted))
    assert not crypto.verify(crypto.sig_public(crypto.random_bytes(32)), b"attest this", sig)


# ---------------------------------------------------------------------------
# Randomness plumbing.
# ---------------------------------------------------------------------------


def test_seeded_randomness_reproducible():
    crypto.set_insecure_seed(42)
    a = [crypto.random_bytes(16) for _ in range(4)]
    s1 = crypto.random_scalar()
    crypto.set_insecure_seed(42)
    b = [crypto.random_bytes(16) for _ in range(4)]
    s2 = crypto.random_scalar()
    assert a == b and s1 == s2
    crypto.use_system_randomness()
    crypto.set_insecure_seed(43)
    assert [crypto.random_bytes(16) for _ in range(4)] != a


def test_seeded_stream_matches_the_stdlib_oracle():
    crypto.set_insecure_seed(7)
    state = hashlib.sha256(b"insecure-seed" + (7).to_bytes(8, "big")).digest()
    blocks = [hashlib.sha256(state + i.to_bytes(8, "big")).digest() for i in range(3)]
    assert crypto.random_bytes(40) + crypto.random_bytes(56) == b"".join(blocks)


def test_digest_width_is_sha256():
    assert crypto.DIGEST_LEN == hashlib.sha256().digest_size
