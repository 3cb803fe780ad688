"""Protocol roles: the user-side and server-side halves of registration,
authentication, and password update.

The server is deliberately blind: its session never touches the password,
the OPRF key, or any static secret. Everything password-derived stays on the
user side or inside the contract, and the server's one-shot reply secret is
dropped as soon as the contract's reply is opened.

Key schedule (both endpoints; FORMATS.md, "Key schedule"): the HMQV secret
is sigma = (peer_eph * peer_static^e)^(own_eph + e'*own_static), and
session_key = PRF(H("hmqv-key", x(sigma)), 0x00), where x(sigma) is the
32-byte x-coordinate that one OpenSSL multiplication returns (`crypto.dh_x`), so
sigma itself never reaches Python arithmetic. The client here and the
contract each derive it with `crypto.hmqv_key`, from the digests e, e'
that `_hmqv_digests` gives the server's phase 1 and the client's finish.
Key confirmation is a PRF tag over a role label plus the flow transcript,
so the two directions can never be confused and any tampering with a flow
shows up as a tag mismatch rather than a silently wrong key.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

from . import crypto, oprf
from .contract import GpmContract
from .errors import AuthFailure, ConfirmFailed, StaleSession, WrongPassword
from .ledger import Ledger, Transaction
from .wire import (
    GpmAuthRequest,
    GpmAuthResponse,
    PasswordMetadata,
    RegistrationPlaintext,
    ServerToUser,
    TxKind,
    UpdatePlaintext,
    UserAuthInit,
    decode_envelope_plaintext,
    decode_expected,
    encode_envelope_plaintext,
)

_CONFIRM_LABELS = {"client": b"confirm-client", "server": b"confirm-server"}


def _as_bytes(value: Union[str, bytes]) -> bytes:
    return value.encode("utf-8") if isinstance(value, str) else value


# ---------------------------------------------------------------------------
# Registration and update (user side only; the server is not involved).
# ---------------------------------------------------------------------------


def build_metadata(password: Union[str, bytes]) -> PasswordMetadata:
    """Create fresh password metadata: OPRF key, both static keypairs, and
    the envelope sealing the user's static secret under the OPRF output."""
    password = _as_bytes(password)
    oprf_key = crypto.random_scalar()
    envelope_key = oprf.oprf_eval(oprf_key, password)
    server_static_priv = crypto.random_scalar()
    server_static_pub = crypto.base_exp(server_static_priv)
    client_static_priv = crypto.random_scalar()
    client_static_pub = crypto.base_exp(client_static_priv)
    envelope = crypto.aead_encrypt(
        envelope_key,
        encode_envelope_plaintext(client_static_priv, client_static_pub, server_static_pub),
    )
    return PasswordMetadata(
        oprf_key=oprf_key,
        server_static_priv=server_static_priv,
        server_static_pub=server_static_pub,
        client_static_pub=client_static_pub,
        envelope=envelope,
    )


def client_register(
    username: Union[str, bytes],
    password: Union[str, bytes],
    gpm_public: bytes,
) -> Transaction:
    """Build the registration transaction (metadata encrypted to the contract)."""
    plaintext = RegistrationPlaintext(_as_bytes(username), build_metadata(password))
    return Transaction(TxKind.REGISTER, crypto.pk_encrypt(gpm_public, plaintext.encode()))


def client_update(
    username: Union[str, bytes],
    old_password: Union[str, bytes],
    new_password: Union[str, bytes],
    gpm_public: bytes,
) -> Transaction:
    """Build the password-update transaction: old password as proof, new
    metadata as replacement."""
    plaintext = UpdatePlaintext(
        _as_bytes(username), _as_bytes(old_password), build_metadata(new_password)
    )
    return Transaction(TxKind.UPDATE, crypto.pk_encrypt(gpm_public, plaintext.encode()))


# ---------------------------------------------------------------------------
# Authentication: user side.
# ---------------------------------------------------------------------------


class ClientSession:
    """Ephemeral client state between the two authentication flows: the
    first flow it sent, whose username and ephemeral share the finish
    reads, and the two secrets behind it."""

    __slots__ = ("init", "blind", "eph_priv", "finished")

    def __init__(self, init: UserAuthInit, blind: crypto.Scalar, eph_priv: crypto.Scalar) -> None:
        self.init = init
        self.blind = blind
        self.eph_priv = eph_priv
        self.finished = False

    def ephemeral_state_bytes(self) -> bytes:
        """Serialized ephemeral state: blind || eph_priv || eph_pub (97 B)."""
        if self.finished:
            raise StaleSession("session already finished")
        return self.blind.encode() + self.eph_priv.encode() + self.init.client_eph_pub.encode()


def _hmqv_digests(
    username: bytes, server_id: bytes,
    client_eph_pub: crypto.GroupElement, server_eph_pub: crypto.GroupElement,
) -> Tuple[bytes, bytes]:
    """The exponent-combining digests (e_u, e_s) of a login (FORMATS.md, "Key
    schedule"): the server sends them to the contract, the client recomputes them."""
    return (
        crypto.hash_parts("hmqv-eu", [server_eph_pub.encode(), username]),
        crypto.hash_parts("hmqv-es", [client_eph_pub.encode(), server_id]),
    )


def client_auth_init(
    username: Union[str, bytes], password: Union[str, bytes]
) -> Tuple[ClientSession, UserAuthInit]:
    """Start a login: blind the password, pick an ephemeral share."""
    username = _as_bytes(username)
    blinding = oprf.blind(_as_bytes(password))
    eph_priv = crypto.random_scalar()
    init = UserAuthInit(username, blinding.alpha, crypto.base_exp(eph_priv))
    return ClientSession(init, blinding.r, eph_priv), init


def client_auth_finish(
    session: ClientSession,
    password: Union[str, bytes],
    server_id: Union[str, bytes],
    msg: ServerToUser,
) -> bytes:
    """Finish a login: unblind the OPRF output, open the envelope, derive the
    session key.

    A wrong password shows up here as the envelope failing to open. On
    success the password-derived envelope key, the recovered static secret,
    and the session's ephemeral scalars are dropped from reachable state.
    """
    if session.finished:
        raise StaleSession("session already finished")
    password = _as_bytes(password)
    server_id = _as_bytes(server_id)
    envelope_key = oprf.unblind(msg.evaluated_element, session.blind, password)
    try:
        envelope_pt = crypto.aead_decrypt(envelope_key, msg.envelope)
    except AuthFailure:
        raise WrongPassword("envelope did not open under this password") from None
    static_priv, _, server_static_pub = decode_envelope_plaintext(envelope_pt)
    del envelope_key, envelope_pt

    init = session.init
    e_client, e_server = _hmqv_digests(
        init.username, server_id, init.client_eph_pub, msg.server_eph_pub
    )
    session_key = crypto.hmqv_key(
        msg.server_eph_pub, crypto.decode_element(server_static_pub), e_server,
        session.eph_priv, static_priv, e_client,
    )

    del static_priv
    session.finished = True
    session.blind = session.eph_priv = None  # type: ignore[assignment]
    return session_key


# ---------------------------------------------------------------------------
# Authentication: server side.
# ---------------------------------------------------------------------------


class ServerSession:
    """Server state between its two phases: the auth request it sent to the
    contract, its ephemeral share and the one-shot reply key.

    The request holds only the user's blinded flow and the server's own
    values; nothing here depends on the user's password.
    """

    __slots__ = ("request", "eph_pub", "reply_key")

    def __init__(
        self,
        request: GpmAuthRequest,
        eph_pub: crypto.GroupElement,
        reply_key: Optional[crypto.X25519PrivateKey],
    ) -> None:
        self.request = request
        self.eph_pub = eph_pub
        self.reply_key = reply_key


def server_auth_phase1(
    server_id: Union[str, bytes], msg: UserAuthInit, gpm_public: bytes
) -> Tuple[ServerSession, Transaction]:
    """Wrap the user's flow into an auth transaction for the contract.

    The server contributes its ephemeral share, both exponent-combining
    hashes, and a fresh reply key the contract will answer to.
    """
    server_id = _as_bytes(server_id)
    eph_priv = crypto.random_scalar()
    eph_pub = crypto.base_exp(eph_priv)
    e_client, e_server = _hmqv_digests(msg.username, server_id, msg.client_eph_pub, eph_pub)
    reply_key = crypto.box_private_key(crypto.random_bytes(crypto.BOX_SECRET_LEN))
    request = GpmAuthRequest(
        username=msg.username,
        blinded_element=msg.blinded_element,
        client_eph_pub=msg.client_eph_pub,
        server_eph_priv=eph_priv,
        e_client=e_client,
        e_server=e_server,
        reply_pk=reply_key.public_key().public_bytes_raw(),
    )
    tx = Transaction(TxKind.AUTH, crypto.pk_encrypt(gpm_public, request.encode()))
    return ServerSession(request, eph_pub, reply_key), tx


def server_auth_phase2(
    session: ServerSession, reply_ciphertext: bytes
) -> Tuple[bytes, ServerToUser]:
    """Open the contract's reply; return the session key and what to forward.

    One-shot: the reply secret key is dropped on first use, so a session can
    never process a second reply.
    """
    if session.reply_key is None:
        raise StaleSession("reply key already consumed")
    plaintext = crypto.pk_decrypt(session.reply_key, reply_ciphertext)
    session.reply_key = None
    reply = decode_expected(plaintext, GpmAuthResponse)
    out = ServerToUser(
        evaluated_element=reply.evaluated_element,
        server_eph_pub=session.eph_pub,
        envelope=reply.envelope,
    )
    return reply.session_key, out


# ---------------------------------------------------------------------------
# Key confirmation.
# ---------------------------------------------------------------------------


def transcript_digest(
    server_id: Union[str, bytes], init: UserAuthInit, reply: ServerToUser
) -> bytes:
    """Digest over everything both endpoints saw during one login."""
    return crypto.hash_parts(
        "transcript",
        [
            init.username,
            _as_bytes(server_id),
            init.blinded_element.encode(),
            init.client_eph_pub.encode(),
            reply.evaluated_element.encode(),
            reply.server_eph_pub.encode(),
            reply.envelope,
        ],
    )


def _confirm_label(role: str) -> bytes:
    label = _CONFIRM_LABELS.get(role)
    if label is None:
        raise ValueError("role must be 'client' or 'server'")
    return label


def key_confirm(role: str, session_key: bytes, transcript: bytes) -> bytes:
    """Confirmation tag bound to the sender's role and the transcript."""
    return crypto.prf(session_key, _confirm_label(role) + transcript)


def verify_confirm(
    session_key: bytes, transcript: bytes, tag: bytes, expected_role: str
) -> bool:
    """Check the peer's confirmation tag (constant-time comparison)."""
    return crypto.prf_verify(session_key, _confirm_label(expected_role) + transcript, tag)


# ---------------------------------------------------------------------------
# Full-protocol drivers.
# ---------------------------------------------------------------------------


def run_register(gpm: GpmContract, ledger: Ledger, username, password) -> None:
    tx = client_register(username, password, gpm.public_key)
    proof = ledger.append(tx)
    gpm.new_pdid(tx, proof)


def run_login(
    gpm: GpmContract,
    ledger: Ledger,
    username,
    password,
    server_id,
    observe: Optional[Callable[[str, Optional[bytes]], None]] = None,
    tamper: Optional[Callable[[ServerToUser], ServerToUser]] = None,
) -> Tuple[bytes, bytes]:
    """One complete login with mutual key confirmation.

    `observe(stage, data)` is called after each stage, in this order:
    "user->server" (init bytes), "server->ledger" (auth tx payload),
    "ledger" (None, after the append), "gpm->server" (reply ciphertext),
    "server->user" (delivered bytes) and "client" (None, after
    `client_auth_finish`). Returns (client session key, server session
    key); raises ConfirmFailed if either confirmation tag fails (as it does
    under tampering).
    """
    observe = observe or (lambda stage, data: None)
    client, init = client_auth_init(username, password)
    observe("user->server", init.encode())
    server, tx = server_auth_phase1(server_id, init, gpm.public_key)
    observe("server->ledger", tx.payload)
    proof = ledger.append(tx)
    observe("ledger", None)
    reply_ct = gpm.auth_pdid(tx, proof)
    observe("gpm->server", reply_ct)
    server_key, sent = server_auth_phase2(server, reply_ct)
    delivered = tamper(sent) if tamper is not None else sent
    observe("server->user", delivered.encode())
    client_key = client_auth_finish(client, password, server_id, delivered)
    observe("client", None)

    client_transcript = transcript_digest(server_id, init, delivered)
    server_transcript = transcript_digest(server_id, init, sent)
    client_tag = key_confirm("client", client_key, client_transcript)
    if not verify_confirm(server_key, server_transcript, client_tag, "client"):
        raise ConfirmFailed("client confirmation tag rejected")
    server_tag = key_confirm("server", server_key, server_transcript)
    if not verify_confirm(client_key, client_transcript, server_tag, "server"):
        raise ConfirmFailed("server confirmation tag rejected")
    return client_key, server_key


def run_update(gpm: GpmContract, ledger: Ledger, username, old_password, new_password) -> None:
    tx = client_update(username, old_password, new_password, gpm.public_key)
    proof = ledger.append(tx)
    gpm.update_pdid(tx, proof)
