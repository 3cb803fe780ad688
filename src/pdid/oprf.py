"""Oblivious PRF over the group: F_k(m) = H(m, H'(m)^k).

The direct evaluation is used by whoever holds the key k (the user at
registration time, the contract when verifying an updated password). The
blinded three-step path (blind / evaluate / unblind) lets the contract apply
k to a password it never sees: the client sends H'(m)^r, the contract raises
it to k, and the client strips r. Both paths land on the same output; tests
pin that equality as the core correctness oracle.
"""

from __future__ import annotations

from .crypto import (
    Frozen,
    GroupElement,
    Scalar,
    exp,
    hash_parts,
    hash_to_group,
    random_scalar,
    scalar_invert,
)
from .errors import InvalidElement

_INPUT_LABEL = "oprf-input"
_OUTPUT_LABEL = "oprf-output"


def _input_element(m: bytes) -> GroupElement:
    return hash_to_group(_INPUT_LABEL, [m])


def _output_key(m: bytes, e: GroupElement) -> bytes:
    return hash_parts(_OUTPUT_LABEL, [m, e.encode()])


class Blinding(Frozen):
    """Client-side blinding state: the scalar r and the element H'(m)^r."""

    __slots__ = ("r", "alpha")
    r: Scalar
    alpha: GroupElement

    def __init__(self, r: Scalar, alpha: GroupElement) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "alpha", alpha)


def oprf_eval(k: Scalar, m: bytes) -> bytes:
    """Direct evaluation for the key holder; returns a 32-byte key."""
    return _output_key(m, exp(_input_element(m), k))


def blind(m: bytes) -> Blinding:
    """Blind m under a fresh scalar so the evaluator learns nothing about m."""
    r = random_scalar()
    return Blinding(r, exp(_input_element(m), r))


def evaluate(alpha: GroupElement, k: Scalar) -> GroupElement:
    """Key-holder step: raise the blinded element to k.

    The identity element is refused: it would make the output independent of
    the key and is never produced by an honest blind().
    """
    if alpha.is_identity:
        raise InvalidElement("blinded element must not be the identity")
    return exp(alpha, k)


def unblind(beta: GroupElement, r: Scalar, m: bytes) -> bytes:
    """Strip the blinding scalar and hash down to the final key."""
    return _output_key(m, exp(beta, scalar_invert(r)))
