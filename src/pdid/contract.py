"""Global password-manager contract: the confidential state machine that
owns every user's password metadata.

The contract holds a long-lived box keypair; all three methods take a
transaction whose payload is encrypted to that key, plus a ledger inclusion
proof. Nothing is processed unless the proof verifies, so every password
guess an attacker wants evaluated must first be placed on the public ledger.

One function decides a record: `apply(tx, now)` makes every refusal, the
charge and the state change for an included record of any kind. For an
admitted AUTH it returns the request, the stored record's fields and the
reply box, from which `reply` computes the OPRF evaluation and the HMQV
session key and seals them, changing no state. Each method checks the
inclusion proof, then that the record's kind is its own, then calls
`apply` at the clock's time. `apply` takes no proof, so a replay of the
ledger can decide its records without verifying their attestations again.

Refusals come in this order: ledger inclusion, transaction kind, box
decryption; then for a registration the request's decode and a taken
username, and for AUTH and UPDATE the request's tag and username, unknown
user and a full rate window, none of which decodes a group element, so a
guess over the cap costs no point decompression. Only then are the whole
request and the stored record decoded, and (for AUTH) the reply box's key
exchange run; a malformed request, a corrupt record or a reply key with no
box to it is refused there, before any charge. Every fault in a
transaction body is MalformedRecord: a box that does not open, a field
that does not parse, a point or scalar that fails its check, and a
low-order reply key alike. So a request malformed past its username, or
one against a corrupt record, is refused with RateLimited when the
username's window is full, and with UnknownUser when no record is stored
for the username. One fault only group work can find, an HMQV secret that
is the identity (`crypto.hmqv_key`, which the client shares), is refused
as MalformedRecord by `reply`, after the charge.

`apply` and `reply` are deterministic: given identical (state, transaction,
time) they produce identical outputs and state. The auth reply ciphertext
is derandomized by deriving its encryption entropy from the contract secret
and the transaction id. The only values that ever leave the contract are
box ciphertexts addressed to a reply key and error codes; plaintext
metadata never crosses the boundary.

State can be sealed to disk under a symmetric key (the stand-in for an
enclave sealing key) and restored later, preserving users and the rate
windows, two maps with one codec (`_pack_map`). Each user's metadata is
held as its encoded record (FORMATS.md, tag 7) and decoded only by the
step that uses it, and only in the fields that step uses, so a restore
touches no record beyond its tag and length.
"""

from __future__ import annotations

import struct
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

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
    leading_username,
    pack_field,
)

TxVerifier = Callable[[Transaction, InclusionProof], bool]
_Decoded = TypeVar("_Decoded")
_Admitted = Tuple[GpmAuthRequest, tuple, crypto.Box]

DEFAULT_RATE_LIMIT: Tuple[int, float] = (10, 60.0)


def _request(plaintext: bytes, cls: type) -> Any:
    """Decode a transaction body as `cls`. A field that fails its range or
    group check is refused like one that does not parse, so every fault in
    a request reaches the caller as MalformedRecord."""
    try:
        return decode_expected(plaintext, cls)
    except CryptoError as exc:
        raise MalformedRecord(f"bad field in {cls.__name__}") from exc


def _pack_map(entries: Dict[bytes, _Decoded], encode: Callable[[_Decoded], bytes]) -> bytes:
    """A map of the sealed state (FORMATS.md, tag 9): a u32 count, then
    each key and its encoded value as fields, keys sorted."""
    parts = [struct.pack(">I", len(entries))]
    for key in sorted(entries):
        parts += (pack_field(key), pack_field(encode(entries[key])))
    return b"".join(parts)


def _unpack_map(blob: bytes, decode: Callable[[bytes], _Decoded]) -> Dict[bytes, _Decoded]:
    """Parse a `_pack_map` blob, each value with `decode`."""
    r = Reader(blob)
    (count,) = struct.unpack(">I", r.take(4))
    entries = {r.field(): decode(r.field()) for _ in range(count)}  # key, then value
    r.expect_done()
    return entries


def _checked_record(record: bytes) -> bytes:
    """A stored metadata record, checked in its tag and length only."""
    if len(record) != METADATA_LEN or record[0] != MSG_METADATA:
        raise MalformedRecord("bad metadata record")
    return record


def _opens(password: bytes, meta: Any) -> bool:
    """Whether `password` opens a stored record: its OPRF output must open
    the envelope, the envelope's static public keys must equal the stored
    ones byte for byte, and the recovered static secret must match the
    stored client key."""
    envelope_key = oprf.oprf_eval(meta.oprf_key, password)
    try:
        envelope_pt = crypto.aead_decrypt(envelope_key, meta.envelope)
        static_priv, static_pub, server_pub = decode_envelope_plaintext(envelope_pt)
        return (
            static_pub == meta.client_static_pub.encode()
            and server_pub == meta.server_static_pub.encode()
            and crypto.base_exp(static_priv) == meta.client_static_pub
        )
    except AuthFailure:
        return False


def _pack_times(times: List[float]) -> bytes:
    """A rate window: u32 n, then n big-endian doubles."""
    return struct.pack(f">I{len(times)}d", len(times), *times)


def _unpack_times(blob: bytes) -> List[float]:
    r = Reader(blob)
    (n_times,) = struct.unpack(">I", r.take(4))
    times = list(struct.unpack(f">{n_times}d", r.take(8 * n_times)))
    r.expect_done()
    return times


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

    def apply(self, tx: Transaction, now: float) -> Optional[_Admitted]:
        """Decide one included record of any kind at time `now`: every
        refusal (in the module docstring's order), the rate charge and the
        state change. Returns, for an admitted AUTH, the request, the stored
        record's fields and the reply box; for any other record, None."""
        try:
            plaintext = crypto.pk_decrypt(self._box_key, tx.payload)
        except CryptoError as exc:
            raise MalformedRecord("transaction does not open under the contract key") from exc
        if tx.kind == TxKind.REGISTER:
            msg = _request(plaintext, RegistrationPlaintext)
            if msg.username in self._users:
                raise UsernameTaken("metadata already stored for this username")
            self._users[msg.username] = msg.metadata.encode()
            return None
        auth = tx.kind == TxKind.AUTH
        cls = GpmAuthRequest if auth else UpdatePlaintext
        username = leading_username(plaintext, cls)
        if username not in self._users:
            raise UnknownUser("no metadata for this username")
        if self._recent_attempts(username, now) >= self.rate_limit[0]:
            raise RateLimited("too many recent attempts for this username")
        msg = _request(plaintext, cls)
        try:
            # Looked up by name at each call, so a rebound decoder is used.
            record = (decode_auth_metadata if auth else decode_metadata)(self._users[username])
        except CryptoError as exc:
            raise MalformedRecord("stored metadata record is corrupt") from exc
        if auth:
            entropy = crypto.hash_parts("gpm-reply", [self._keypair.secret, tx.id])
            try:
                reply_box = crypto.pk_box(msg.reply_pk, entropy)
            except CryptoError as exc:
                raise MalformedRecord("no box can be made to the reply key") from exc
            self._attempts.setdefault(username, []).append(now)
            return msg, record, reply_box
        if not _opens(msg.password, record):
            self._attempts.setdefault(username, []).append(now)
            raise WrongPassword("old password verification failed")
        self._users[username] = msg.new_metadata.encode()
        return None

    def reply(self, msg: GpmAuthRequest, record: tuple, reply_box: crypto.Box) -> bytes:
        """The contract half of an admitted AUTH's key exchange, sealed in
        its reply box: the OPRF evaluation, the HMQV session key and the
        stored envelope. It changes no state."""
        oprf_key, server_static_priv, client_static_pub, envelope = record
        evaluated = oprf.evaluate(msg.blinded_element, oprf_key)
        try:
            session_key = crypto.hmqv_key(
                msg.client_eph_pub, client_static_pub, msg.e_client,
                msg.server_eph_priv, server_static_priv, msg.e_server,
            )
        except CryptoError as exc:
            raise MalformedRecord("the request's HMQV secret is the identity") from exc
        return crypto.pk_encrypt(reply_box, GpmAuthResponse(evaluated, envelope, session_key).encode())

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

    # -- contract methods ------------------------------------------------------

    def _apply_proven(self, tx: Transaction, proof: InclusionProof, kind: TxKind) -> Any:
        """A method's call: the proof, the record's kind, then `apply`."""
        if not self._tx_verifier(tx, proof):
            raise NotOnLedger("transaction is not proven on the ledger")
        if tx.kind != kind:
            raise MalformedRecord("transaction kind does not match method")
        return self.apply(tx, self._clock())

    def new_pdid(self, tx: Transaction, proof: InclusionProof) -> None:
        """Register: store metadata for a previously unseen username."""
        self._apply_proven(tx, proof, TxKind.REGISTER)

    def auth_pdid(self, tx: Transaction, proof: InclusionProof) -> bytes:
        """Authenticate: the reply ciphertext for the server's reply key. The
        contract cannot tell whether the password behind the blinded element
        is right, so every admitted attempt counts against its rate window."""
        return self.reply(*self._apply_proven(tx, proof, TxKind.AUTH))

    def update_pdid(self, tx: Transaction, proof: InclusionProof) -> None:
        """Replace metadata after verifying the old password (`_opens`). A
        failed verification is WrongPassword and counts as a guess; stored
        metadata is untouched."""
        self._apply_proven(tx, proof, TxKind.UPDATE)

    # -- sealing ---------------------------------------------------------------

    def seal(self, sealing_key: bytes) -> bytes:
        """Authenticated snapshot of the full state under the sealing key.

        Rate windows are pruned to the current time first, so expired
        attempts are not carried into the sealed state.
        """
        now = self._clock()
        for username in list(self._attempts):
            self._recent_attempts(username, now)
        state = bytes([MSG_SEALED_STATE]) + b"".join(
            (
                pack_field(self._keypair.secret),
                pack_field(self._keypair.public),
                pack_field(_pack_map(self._users, bytes)),
                pack_field(_pack_map(self._attempts, _pack_times)),
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

        users = _unpack_map(users_blob, _checked_record)
        attempts = _unpack_map(attempts_blob, _unpack_times)
        return cls(
            crypto.KeyPair(secret, public),
            users,
            attempts,
            tx_verifier=tx_verifier,
            clock=clock,
            rate_limit=rate_limit,
        )
