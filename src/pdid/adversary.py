"""Adversarial harnesses: the attacks the design claims to stop, written as
runnable probes so tests can assert the defenses hold.

Three attacker positions are modeled:

* a ledger node that leaked its signing key and wants the contract to
  evaluate password guesses without putting transactions on the ledger;
* a malicious (or subpoenaed) server that records every value it ever
  handles during logins and then tries to confirm password guesses offline;
* a passive wire observer who sees ciphertext sizes and the raw ledger file.

Each probe returns plain data; the accompanying tests assert the expected
outcome (rejections, zero confirmations, no plaintext identifiers).
`run_attack` stages the `pdid attack` drills on top of these probes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import actors, crypto, oprf
from .contract import GpmContract
from .errors import (
    ConfirmFailed,
    DuplicateTransaction,
    NotOnLedger,
    PdidError,
    RateLimited,
    UsernameTaken,
    WrongPassword,
)
from .ledger import InclusionProof, Ledger, Transaction, attestation_message
from .wire import decode_message

# ---------------------------------------------------------------------------
# Malicious-node probe: off-ledger guessing with f leaked signing keys.
# ---------------------------------------------------------------------------


def forge_inclusion_proof(
    tx: Transaction, leaked_seeds: Sequence[bytes], seq: int
) -> InclusionProof:
    """Best forgery available with the leaked keys: real signatures from the
    compromised nodes, at a sequence number of the attacker's choosing."""
    message = attestation_message(tx.id, seq)
    attestations = tuple(
        (index, crypto.sign(seed, message)) for index, seed in enumerate(leaked_seeds)
    )
    return InclusionProof(tx.id, seq, attestations)


def malicious_node_offline_probe(
    gpm: GpmContract,
    leaked_seeds: Sequence[bytes],
    username: bytes,
    candidate_passwords: Iterable[bytes],
    seq: int = 0,
) -> List[str]:
    """Try to get password guesses evaluated without ledger inclusion.

    For each candidate the attacker plays both user and server locally,
    producing a well-formed auth transaction, then presents it with a forged
    proof. Outcome per candidate: "rejected" (the gate held), "evaluated"
    (the contract leaked an evaluation), or the raising error name.
    """
    outcomes = []
    for password in candidate_passwords:
        _, init = actors.client_auth_init(username, password)
        _, tx = actors.server_auth_phase1(b"attacker-host", init, gpm.public_key)
        proof = forge_inclusion_proof(tx, leaked_seeds, seq)
        try:
            gpm.auth_pdid(tx, proof)
        except NotOnLedger:
            outcomes.append("rejected")
        except PdidError as exc:
            outcomes.append(type(exc).__name__)
        else:
            outcomes.append("evaluated")
    return outcomes


# ---------------------------------------------------------------------------
# Malicious-server view: record everything a server ever sees.
# ---------------------------------------------------------------------------


def capture_server_view(
    gpm: GpmContract,
    ledger: Ledger,
    username: bytes,
    password: bytes,
    server_id: bytes,
) -> Dict[str, bytes]:
    """Run one honest login and return every byte the server handled,
    including its own secrets. This is the complete haul available to a
    compromised server for later offline analysis.

    The flow is written out here rather than taken from `actors.run_login`
    because it reads the server session's secrets (ephemeral scalar, reply
    key) between the phases, which no other caller needs."""
    client, init = actors.client_auth_init(username, password)
    server, tx = actors.server_auth_phase1(server_id, init, gpm.public_key)
    reply_secret = server.reply_key.private_bytes_raw()
    proof = ledger.append(tx)
    reply_ct = gpm.auth_pdid(tx, proof)
    session_key, to_user = actors.server_auth_phase2(server, reply_ct)
    # Client completes so the trace is a realistic successful login.
    actors.client_auth_finish(client, password, server_id, to_user)
    return {
        "username": username,
        "server_id": server_id,
        "blinded_element": init.blinded_element.encode(),
        "client_eph_pub": init.client_eph_pub.encode(),
        "server_eph_priv": server.request.server_eph_priv.encode(),
        "server_eph_pub": server.eph_pub.encode(),
        "e_client": server.request.e_client,
        "e_server": server.request.e_server,
        "reply_public": server.request.reply_pk,
        "reply_secret": reply_secret,
        "auth_tx_payload": tx.payload,
        "reply_ciphertext": reply_ct,
        "evaluated_element": to_user.evaluated_element.encode(),
        "envelope": to_user.envelope,
        "session_key": session_key,
    }


def offline_guesses_confirmed(
    view: Dict[str, bytes], candidate_passwords: Iterable[bytes]
) -> int:
    """Brute-force oracle over the server view alone.

    A guess counts as confirmed if any key derivable from the view opens the
    metadata envelope. The derivations tried are every way the view's group
    elements and scalars can be fed into the OPRF output hash or used as the
    OPRF key; without the user's blinding scalar or the contract's OPRF key,
    none should work, even for the true password.
    """
    elements = [
        view["blinded_element"],
        view["evaluated_element"],
        view["client_eph_pub"],
        view["server_eph_pub"],
    ]
    confirmed = 0
    eph_scalar = crypto.decode_scalar(view["server_eph_priv"])
    for password in candidate_passwords:
        candidate_keys = [
            crypto.hash_parts("oprf-output", [password, element]) for element in elements
        ]
        candidate_keys.append(oprf.oprf_eval(eph_scalar, password))
        candidate_keys.append(
            oprf.unblind(crypto.decode_element(view["evaluated_element"]), eph_scalar, password)
        )
        for key in candidate_keys:
            try:
                crypto.aead_decrypt(key, view["envelope"])
            except PdidError:
                continue
            confirmed += 1
            break
    return confirmed


# ---------------------------------------------------------------------------
# Passive wire observer.
# ---------------------------------------------------------------------------

# Channels whose payloads must be opaque ciphertext (contract-bound or
# contract-originated).
OPAQUE_CHANNELS = ("server->ledger", "gpm->server")


class ObserverReport:
    """What a passive observer legitimately obtains, plus any violations."""

    __slots__ = ("sizes", "violations")

    def __init__(self) -> None:
        self.sizes: List[Tuple[str, int]] = []
        self.violations: List[str] = []

    @property
    def clean(self) -> bool:
        return not self.violations


def observe_trace(
    trace: Sequence[Tuple[str, Optional[bytes]]],
    sensitive: Sequence[bytes],
    ledger_bytes: Optional[bytes] = None,
) -> ObserverReport:
    """Scan a captured trace of (channel, bytes or None) entries.

    Contract-facing payloads must not parse as any plaintext message and must
    not contain any of the `sensitive` byte strings (usernames, server
    identities). The raw ledger file, when given, is held to the same
    substring rule.
    """
    report = ObserverReport()
    for channel, data in trace:
        if data is None:  # a stage with no message, e.g. the ledger append
            continue
        report.sizes.append((channel, len(data)))
        if channel not in OPAQUE_CHANNELS:
            continue
        if len(data) < crypto.PKE_OVERHEAD:
            report.violations.append(f"{channel}: payload shorter than a box")
        try:
            decode_message(data)
        except PdidError:
            pass
        else:
            report.violations.append(f"{channel}: payload parses as plaintext")
        for needle in sensitive:
            if needle and needle in data:
                report.violations.append(f"{channel}: sensitive bytes visible")
    if ledger_bytes is not None:
        for needle in sensitive:
            if needle and needle in ledger_bytes:
                report.violations.append("ledger file: sensitive bytes visible")
    return report


# ---------------------------------------------------------------------------
# Attack drills: each scenario against a fresh in-memory deployment.
# ---------------------------------------------------------------------------


def run_attack(scenario: str) -> dict:
    """Stage one adversarial scenario against a fresh in-memory deployment.

    The scenario names are `cli.ATTACK_SCENARIOS`. Result dict always
    contains `defense_held`; details vary per scenario.
    """
    sim_now = [1000.0]
    ledger = Ledger()
    gpm = GpmContract.create(ledger.tx_included, clock=lambda: sim_now[0])
    result = {"scenario": scenario}

    if scenario == "duplicate-register":
        result["expected"] = "second registration rejected; first password still logs in"
        actors.run_register(gpm, ledger, b"race-user", b"first-pw")
        try:
            actors.run_register(gpm, ledger, b"race-user", b"second-pw")
            second = "accepted"
        except UsernameTaken:
            second = "rejected"
        client_key, server_key = actors.run_login(gpm, ledger, b"race-user", b"first-pw", b"host")
        first_pw_works = client_key == server_key
        result["observed"] = (
            f"second registration {second}; "
            f"first password {'works' if first_pw_works else 'broken'}"
        )
        result["defense_held"] = second == "rejected" and first_pw_works

    elif scenario == "offline-gpm":
        n = 100
        result["expected"] = f"{n}/{n} off-ledger probes rejected, 0 evaluated"
        actors.run_register(gpm, ledger, b"probe-target", b"real-password")
        leaked = ledger.leak_node_seeds(ledger.f)
        candidates = [f"guess-{i}".encode() for i in range(n - 1)] + [b"real-password"]
        outcomes = malicious_node_offline_probe(gpm, leaked, b"probe-target", candidates)
        rejections = outcomes.count("rejected")
        result["observed"] = f"{rejections}/{n} rejected"
        result["defense_held"] = rejections == n

    elif scenario == "malicious-server-tamper":
        result["expected"] = "substituted key share detected at key confirmation"
        actors.run_register(gpm, ledger, b"tamper-user", b"tamper-pw")
        fake_share = crypto.base_exp(crypto.random_scalar())

        def tamper(msg: actors.ServerToUser) -> actors.ServerToUser:
            return actors.ServerToUser(msg.evaluated_element, fake_share, msg.envelope)

        try:
            actors.run_login(gpm, ledger, b"tamper-user", b"tamper-pw", b"host", tamper=tamper)
            result["observed"] = "tampered keys accepted"
            result["defense_held"] = False
        except ConfirmFailed:
            result["observed"] = "tampering detected at key confirmation"
            result["defense_held"] = True

    elif scenario == "replay":
        result["expected"] = "replayed transaction rejected at ledger append"
        actors.run_register(gpm, ledger, b"replay-user", b"replay-pw")
        _, init = actors.client_auth_init(b"replay-user", b"replay-pw")
        _, tx = actors.server_auth_phase1(b"host", init, gpm.public_key)
        ledger.append(tx)
        try:
            ledger.append(tx)
            result["observed"] = "replayed transaction accepted"
            result["defense_held"] = False
        except DuplicateTransaction:
            result["observed"] = "replayed transaction rejected at append"
            result["defense_held"] = True

    elif scenario == "online-guess":
        result["expected"] = "10 wrong-password rejections, then rate-limited on the 11th"
        actors.run_register(gpm, ledger, b"guess-target", b"correct-horse")
        outcomes = []
        for i in range(11):
            sim_now[0] += 0.5  # rapid-fire attempts inside one window
            try:
                actors.run_login(gpm, ledger, b"guess-target", f"wrong-{i}".encode(), b"host")
                outcomes.append("login-succeeded")
            except WrongPassword:
                outcomes.append("wrong-password")
            except RateLimited:
                outcomes.append("rate-limited")
        result["observed"] = ", ".join(outcomes)
        result["defense_held"] = (
            outcomes[:10] == ["wrong-password"] * 10 and outcomes[10] == "rate-limited"
        )

    else:
        raise ValueError(f"unknown attack scenario: {scenario}")

    return result
