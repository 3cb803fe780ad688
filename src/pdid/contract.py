"""Global password-manager contract: the confidential state machine that
owns every user's password metadata.

The contract holds a long-lived box keypair; all three methods take a
transaction whose payload is encrypted to that key, plus a ledger inclusion
proof. Nothing is processed unless the proof verifies, so every password
guess an attacker wants evaluated must first be placed on the public ledger.

Methods are deterministic: given identical (state, transaction, proof) they
produce identical outputs and state. The auth reply ciphertext is
derandomized by deriving its encryption entropy from the contract secret and
the transaction id (unique per admitted transaction). The only values that
ever leave the contract are box ciphertexts addressed to a reply key and
error codes; plaintext metadata never crosses the boundary.

State can be sealed to disk under a symmetric key (the stand-in for an
enclave sealing key) and restored later, preserving users and the
rate-limit window. Each user's metadata is held as its encoded record
(FORMATS.md, tag 7) and decoded only by the method that uses it, and only
in the fields that method uses, so a restore touches no record beyond its
tag and length.
"""

from __future__ import annotations

import struct
import time
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from . import crypto, oprf
from .errors import (
    AuthFailure,
    CryptoError,
    MalformedRecord,
    NotOnLedger,
    RateLimited,
    UnknownUser,
    UsernameTaken,
    WrongPassword,
)
from .ledger import InclusionProof, Transaction
from .wire import (
    METADATA_LEN,
    MSG_METADATA,
    MSG_SEALED_STATE,
    GpmAuthRequest,
    GpmAuthResponse,
    Reader,
    RegistrationPlaintext,
    TxKind,
    UpdatePlaintext,
    decode_auth_metadata,
    decode_envelope_plaintext,
    decode_expected,
    decode_metadata,
    pack_field,
)

TxVerifier = Callable[[Transaction, InclusionProof], bool]
_Decoded = TypeVar("_Decoded")

DEFAULT_RATE_LIMIT: Tuple[int, float] = (10, 60.0)


class GpmContract:
    """One deployed contract instance.

    `tx_verifier` is the ledger inclusion check; `clock` supplies the
    simulated time used by the rate limiter (injected so replays and tests
    are deterministic). `users` maps usernames to encoded metadata records;
    `attempts` maps usernames to the times of their charged attempts, oldest
    first.
    """

    def __init__(
        self,
        keypair: crypto.KeyPair,
        users: Optional[Dict[bytes, bytes]] = None,
        attempts: Optional[Dict[bytes, List[float]]] = None,
        *,
        tx_verifier: TxVerifier,
        clock: Callable[[], float] = time.time,
        rate_limit: Tuple[int, float] = DEFAULT_RATE_LIMIT,
    ) -> None:
        self._keypair = keypair
        self._box_key = crypto.box_private_key(keypair.secret)
        self._users: Dict[bytes, bytes] = users if users is not None else {}
        self._attempts: Dict[bytes, List[float]] = attempts if attempts is not None else {}
        self._tx_verifier = tx_verifier
        self._clock = clock
        self.rate_limit = rate_limit

    @classmethod
    def create(
        cls,
        tx_verifier: TxVerifier,
        *,
        clock: Callable[[], float] = time.time,
        rate_limit: Tuple[int, float] = DEFAULT_RATE_LIMIT,
    ) -> "GpmContract":
        """Deploy: generate the contract keypair (the only randomness the
        contract ever consumes, spent before any transaction arrives)."""
        return cls(
            crypto.pk_gen(),
            tx_verifier=tx_verifier,
            clock=clock,
            rate_limit=rate_limit,
        )

    @property
    def public_key(self) -> bytes:
        """The box public key users and servers encrypt transactions to."""
        return self._keypair.public

    def user_count(self) -> int:
        return len(self._users)

    # -- shared gates --------------------------------------------------------

    def _gate(self, tx: Transaction, proof: InclusionProof, kind: TxKind) -> bytes:
        if not self._tx_verifier(tx, proof):
            raise NotOnLedger("transaction is not proven on the ledger")
        if tx.kind != kind:
            raise MalformedRecord("transaction kind does not match method")
        return crypto.pk_decrypt(self._box_key, tx.payload)

    def _metadata(self, username: bytes, decode: Callable[[bytes], _Decoded]) -> _Decoded:
        """Decode, with `decode`, the one stored record a method uses.
        Unseal checked only its tag and length, so a bad field is refused
        here, before the method changes any state."""
        record = self._users.get(username)
        if record is None:
            raise UnknownUser("no metadata for this username")
        try:
            return decode(record)
        except CryptoError as exc:
            raise MalformedRecord("stored metadata record is corrupt") from exc

    def _recent_attempts(self, username: bytes, now: float) -> int:
        """Prune the username's window to `now` and count what is left. A
        window left empty is dropped, so only usernames with live charged
        attempts hold one."""
        times = self._attempts.get(username)
        if times is None:
            return 0
        window = self.rate_limit[1]
        expired = 0
        while expired < len(times) and now - times[expired] > window:
            expired += 1
        del times[:expired]
        if not times:
            del self._attempts[username]
        return len(times)

    def _check_rate(self, username: bytes, now: float) -> None:
        if self._recent_attempts(username, now) >= self.rate_limit[0]:
            raise RateLimited("too many recent attempts for this username")

    def _charge(self, username: bytes, now: float) -> None:
        self._attempts.setdefault(username, []).append(now)

    # -- contract methods ------------------------------------------------------

    def new_pdid(self, tx: Transaction, proof: InclusionProof) -> None:
        """Register: store metadata for a previously unseen username."""
        plaintext = self._gate(tx, proof, TxKind.REGISTER)
        msg = decode_expected(plaintext, RegistrationPlaintext)
        if msg.username in self._users:
            raise UsernameTaken("metadata already stored for this username")
        self._users[msg.username] = msg.metadata.encode()

    def auth_pdid(self, tx: Transaction, proof: InclusionProof) -> bytes:
        """Authenticate: run the contract half of the key exchange.

        Returns the reply ciphertext for the server's reply key. The contract
        cannot tell whether the password behind the blinded element is right,
        so every admitted attempt counts against the username's rate window.
        """
        plaintext = self._gate(tx, proof, TxKind.AUTH)
        msg = decode_expected(plaintext, GpmAuthRequest)
        oprf_key, server_static_priv, client_static_pub, envelope = self._metadata(
            msg.username, decode_auth_metadata
        )
        now = self._clock()
        self._check_rate(msg.username, now)
        self._charge(msg.username, now)

        evaluated = oprf.evaluate(msg.blinded_element, oprf_key)
        e_client = crypto.scalar_from_digest(msg.e_client)
        e_server = crypto.scalar_from_digest(msg.e_server)
        # (client ephemeral * client static^e_client) ^ (eph + e_server * static)
        combined_base = crypto.mul(
            msg.client_eph_pub, crypto.exp(client_static_pub, e_client)
        )
        exponent = crypto.scalar_add(
            msg.server_eph_priv, crypto.scalar_mul(e_server, server_static_priv)
        )
        shared = crypto.exp(combined_base, exponent)
        raw_key = crypto.hash_parts("hmqv-key", [shared.encode()])
        session_key = crypto.prf(raw_key, b"\x00")

        reply = GpmAuthResponse(evaluated, envelope, session_key).encode()
        entropy = crypto.hash_parts("gpm-reply", [self._keypair.secret, tx.id])
        return crypto.pk_encrypt(msg.reply_pk, reply, entropy=entropy)

    def update_pdid(self, tx: Transaction, proof: InclusionProof) -> None:
        """Replace metadata after verifying the old password.

        Verification: the OPRF output for the presented password must open
        the stored envelope, the envelope's static public keys must match the
        stored ones, and the recovered static secret must match its public
        key. Any failure is WrongPassword and counts as a guess; stored
        metadata is untouched.
        """
        plaintext = self._gate(tx, proof, TxKind.UPDATE)
        msg = decode_expected(plaintext, UpdatePlaintext)
        meta = self._metadata(msg.username, decode_metadata)
        now = self._clock()
        self._check_rate(msg.username, now)

        envelope_key = oprf.oprf_eval(meta.oprf_key, msg.password)
        try:
            envelope_pt = crypto.aead_decrypt(envelope_key, meta.envelope)
            static_priv, static_pub, server_pub = decode_envelope_plaintext(envelope_pt)
            verified = (
                static_pub == meta.client_static_pub
                and server_pub == meta.server_static_pub
                and crypto.base_exp(static_priv) == static_pub
            )
        except AuthFailure:
            verified = False
        if not verified:
            self._charge(msg.username, now)
            raise WrongPassword("old password verification failed")
        self._users[msg.username] = msg.new_metadata.encode()

    # -- sealing ---------------------------------------------------------------

    def seal(self, sealing_key: bytes) -> bytes:
        """Authenticated snapshot of the full state under the sealing key.

        Rate windows are pruned to the current time first, so expired
        attempts are not carried into the sealed state.
        """
        now = self._clock()
        for username in list(self._attempts):
            self._recent_attempts(username, now)
        users_parts = [struct.pack(">I", len(self._users))]
        for username in sorted(self._users):
            users_parts.append(pack_field(username))
            users_parts.append(pack_field(self._users[username]))
        attempt_parts = [struct.pack(">I", len(self._attempts))]
        for username in sorted(self._attempts):
            times = self._attempts[username]
            blob = struct.pack(f">I{len(times)}d", len(times), *times)
            attempt_parts.append(pack_field(username))
            attempt_parts.append(pack_field(blob))
        state = bytes([MSG_SEALED_STATE]) + b"".join(
            (
                pack_field(self._keypair.secret),
                pack_field(self._keypair.public),
                pack_field(b"".join(users_parts)),
                pack_field(b"".join(attempt_parts)),
            )
        )
        return crypto.aead_encrypt(sealing_key, state)

    @classmethod
    def unseal(
        cls,
        blob: bytes,
        sealing_key: bytes,
        *,
        tx_verifier: TxVerifier,
        clock: Callable[[], float] = time.time,
        rate_limit: Tuple[int, float] = DEFAULT_RATE_LIMIT,
    ) -> "GpmContract":
        """Restore sealed state; wrong key or a flipped bit fails the AEAD."""
        state = crypto.aead_decrypt(sealing_key, blob)
        r = Reader(state)
        if r.u8() != MSG_SEALED_STATE:
            raise MalformedRecord("not a sealed state record")
        secret = r.field()
        public = r.field()
        users_blob = r.field()
        attempts_blob = r.field()
        r.expect_done()
        if len(secret) != crypto.BOX_SECRET_LEN or len(public) != crypto.BOX_PUBLIC_LEN:
            raise MalformedRecord("bad contract keypair lengths")

        users: Dict[bytes, bytes] = {}
        ur = Reader(users_blob)
        (count,) = struct.unpack(">I", ur.take(4))
        for _ in range(count):
            username = ur.field()
            record = ur.field()
            if len(record) != METADATA_LEN or record[0] != MSG_METADATA:
                raise MalformedRecord("bad metadata record")
            users[username] = record
        ur.expect_done()

        attempts: Dict[bytes, List[float]] = {}
        ar = Reader(attempts_blob)
        (count,) = struct.unpack(">I", ar.take(4))
        for _ in range(count):
            username = ar.field()
            tr = Reader(ar.field())
            (n_times,) = struct.unpack(">I", tr.take(4))
            attempts[username] = list(struct.unpack(f">{n_times}d", tr.take(8 * n_times)))
            tr.expect_done()
        ar.expect_done()

        return cls(
            crypto.KeyPair(secret, public),
            users,
            attempts,
            tx_verifier=tx_verifier,
            clock=clock,
            rate_limit=rate_limit,
        )
