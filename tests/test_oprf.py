"""Blinded pseudorandom password evaluation.

The load-bearing property is the oracle check: the three-step blinded path
(blind, evaluate, unblind) must reproduce the direct single-party
evaluation byte for byte.
"""

import pytest

from pdid import crypto, oprf
from pdid.errors import InvalidElement, InvalidScalar

GOLDEN_EVAL_7_HUNTER2 = (
    "dd34e1fc5acf72fb49706de8af564696532fe116eacae48078e262c9dbf6c74f"
)


def test_direct_eval_deterministic_and_frozen():
    k = crypto.Scalar(7)
    assert oprf.oprf_eval(k, b"hunter2") == oprf.oprf_eval(k, b"hunter2")
    assert oprf.oprf_eval(k, b"hunter2").hex() == GOLDEN_EVAL_7_HUNTER2


def test_direct_eval_exponent_one():
    point = crypto.hash_to_group("oprf-input", [b"some password"])
    expected = crypto.hash_parts("oprf-output", [b"some password", point.encode()])
    assert oprf.oprf_eval(crypto.Scalar(1), b"some password") == expected


def test_blinded_path_equals_direct_100_trials():
    for _ in range(100):
        k = crypto.random_scalar()
        m = crypto.random_bytes(12)
        blinding = oprf.blind(m)
        beta = oprf.evaluate(blinding.alpha, k)
        assert oprf.unblind(beta, blinding.r, m) == oprf.oprf_eval(k, m)


def test_blind_fresh_randomness_and_membership():
    b1 = oprf.blind(b"same password")
    b2 = oprf.blind(b"same password")
    assert b1.alpha != b2.alpha
    assert crypto.decode_element(b1.alpha.encode()) == b1.alpha


def test_blind_unblinding_identity():
    m = b"a password"
    blinding = oprf.blind(m)
    recovered = crypto.exp(blinding.alpha, crypto.scalar_invert(blinding.r))
    assert recovered == crypto.hash_to_group("oprf-input", [m])


def test_evaluate_exponent_identities():
    alpha = oprf.blind(b"pw").alpha
    assert oprf.evaluate(alpha, crypto.Scalar(1)) == alpha
    k1, k2 = crypto.random_scalar(), crypto.random_scalar()
    assert oprf.evaluate(oprf.evaluate(alpha, k1), k2) == oprf.evaluate(
        alpha, crypto.Scalar(k1.value * k2.value % crypto.GROUP_ORDER)
    )


def test_evaluate_rejects_identity_element():
    with pytest.raises(InvalidElement):
        oprf.evaluate(crypto.GroupElement(None, None), crypto.random_scalar())


def test_unblind_wrong_blinding_scalar_gives_different_key():
    k = crypto.random_scalar()
    m = b"pw"
    blinding = oprf.blind(m)
    beta = oprf.evaluate(blinding.alpha, k)
    wrong_r = crypto.random_scalar()
    assert oprf.unblind(beta, wrong_r, m) != oprf.oprf_eval(k, m)


def test_unblind_rejects_zero_blinding():
    beta = crypto.base_exp(crypto.random_scalar())
    with pytest.raises(InvalidScalar):
        oprf.unblind(beta, crypto.Scalar(0), b"pw")


def test_unblind_identity_beta_is_defined():
    # A degenerate evaluated point still produces a well-defined key; the
    # membership policy upstream (evaluate) is what keeps it out of honest
    # runs.
    out = oprf.unblind(crypto.GroupElement(None, None), crypto.random_scalar(), b"pw")
    assert isinstance(out, bytes) and len(out) == crypto.KEY_LEN


def test_keys_differ_across_inputs_and_keys():
    k1, k2 = crypto.random_scalar(), crypto.random_scalar()
    assert oprf.oprf_eval(k1, b"pw") != oprf.oprf_eval(k2, b"pw")
    assert oprf.oprf_eval(k1, b"pw") != oprf.oprf_eval(k1, b"pw2")
