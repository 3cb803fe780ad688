"""The attacker harnesses must show every modeled attack failing."""

from pdid import actors, adversary, crypto
from pdid.contract import GpmContract
from pdid.ledger import Ledger
from pdid.wire import decode_metadata


def fresh():
    ledger = Ledger()
    return ledger, GpmContract.create(ledger.tx_included)


def register(gpm, ledger, username, password):
    tx = actors.client_register(username, password, gpm.public_key)
    gpm.new_pdid(tx, ledger.append(tx))


# ---------------------------------------------------------------------------
# Malicious node with f leaked signing keys.
# ---------------------------------------------------------------------------


def test_offline_probe_all_rejected(seeded):
    ledger, gpm = fresh()
    register(gpm, ledger, b"victim", b"true-password")
    leaked = ledger.leak_node_seeds(ledger.f)
    candidates = [b"true-password"] + [f"guess-{i}".encode() for i in range(99)]
    outcomes = adversary.malicious_node_offline_probe(
        gpm, leaked, b"victim", candidates
    )
    assert outcomes == ["rejected"] * 100


def test_offline_probe_rejected_at_any_claimed_position(seeded):
    ledger, gpm = fresh()
    register(gpm, ledger, b"victim", b"pw")
    # Put some unrelated traffic on the ledger so in-range positions exist.
    for i in range(3):
        register(gpm, ledger, f"cover-{i}".encode(), b"x")
    leaked = ledger.leak_node_seeds(ledger.f)
    for seq in (0, 1, 3, 10_000):
        outcomes = adversary.malicious_node_offline_probe(
            gpm, leaked, b"victim", [b"guess"], seq=seq
        )
        assert outcomes == ["rejected"]


def test_same_probe_on_ledger_is_evaluated_and_counted(manual_clock):
    # The gate's contrapositive: once the transaction really is on the
    # ledger, the contract evaluates it (visibly, online) and the attempt
    # counts against the rate window.
    ledger = Ledger()
    gpm = GpmContract.create(ledger.tx_included, clock=manual_clock)
    register(gpm, ledger, b"victim", b"pw")
    _, init = actors.client_auth_init(b"victim", b"guess")
    _, tx = actors.server_auth_phase1(b"attacker", init, gpm.public_key)
    proof = ledger.append(tx)
    assert isinstance(gpm.auth_pdid(tx, proof), bytes)
    assert len(gpm._attempts[b"victim"]) == 1


def test_forged_proof_never_reaches_quorum():
    ledger, gpm = fresh()
    register(gpm, ledger, b"victim", b"pw")
    leaked = ledger.leak_node_seeds(ledger.f)
    _, init = actors.client_auth_init(b"victim", b"guess")
    _, tx = actors.server_auth_phase1(b"attacker", init, gpm.public_key)
    forged = adversary.forge_inclusion_proof(tx, leaked, seq=0)
    assert len(forged.attestations) == ledger.f
    assert not ledger.tx_included(tx, forged)


# ---------------------------------------------------------------------------
# Malicious server view.
# ---------------------------------------------------------------------------


def test_server_view_has_expected_shape():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    view = adversary.capture_server_view(gpm, ledger, b"alice", b"pw", b"srv")
    assert set(view) == {
        "username",
        "server_id",
        "blinded_element",
        "client_eph_pub",
        "server_eph_priv",
        "server_eph_pub",
        "e_client",
        "e_server",
        "reply_public",
        "reply_secret",
        "auth_tx_payload",
        "reply_ciphertext",
        "evaluated_element",
        "envelope",
        "session_key",
    }
    assert all(isinstance(v, bytes) for v in view.values())


def test_server_view_reply_public_is_the_half_of_reply_secret():
    # The reply key the server asked the contract to answer to, not the
    # ephemeral key of the box the server sent the contract.
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    view = adversary.capture_server_view(gpm, ledger, b"alice", b"pw", b"srv")
    reply_key = crypto.box_private_key(view["reply_secret"])
    assert view["reply_public"] == reply_key.public_key().public_bytes_raw()


def test_server_view_excludes_password_secrets():
    # Structural absence: the OPRF key, static secrets, and the password
    # itself never appear among the server's bytes.
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"a long password value")
    view = adversary.capture_server_view(
        gpm, ledger, b"alice", b"a long password value", b"srv"
    )
    meta = decode_metadata(gpm._users[b"alice"])
    blob = b"|".join(view.values())
    assert b"a long password value" not in blob.replace(view["username"], b"")
    assert meta.oprf_key.encode() not in blob
    assert meta.server_static_priv.encode() not in blob


def test_offline_dictionary_over_server_view_confirms_nothing(seeded):
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"true-password")
    view = adversary.capture_server_view(gpm, ledger, b"alice", b"true-password", b"srv")
    candidates = [b"true-password"] + [f"candidate-{i}".encode() for i in range(999)]
    assert adversary.offline_guesses_confirmed(view, candidates) == 0


def test_envelope_opens_only_under_contract_assisted_key():
    # Sanity check that the brute-force oracle is not vacuous: with the real
    # OPRF key (which the server never has), the true password does open it.
    from pdid import oprf

    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"true-password")
    view = adversary.capture_server_view(gpm, ledger, b"alice", b"true-password", b"srv")
    real_key = oprf.oprf_eval(decode_metadata(gpm._users[b"alice"]).oprf_key, b"true-password")
    assert crypto.aead_decrypt(real_key, view["envelope"])


# ---------------------------------------------------------------------------
# Passive wire observer.
# ---------------------------------------------------------------------------


def run_traced_login(gpm, ledger, username, password, server_id):
    trace = []
    actors.run_login(
        gpm, ledger, username, password, server_id, observe=lambda *e: trace.append(e)
    )
    return trace


def test_honest_trace_is_clean(tmp_path):
    path = str(tmp_path / "ledger.log")
    ledger = Ledger.create(path)
    gpm = GpmContract.create(ledger.tx_included)
    username, server_id = b"alice-observer-test", b"srv.observer.example"
    register(gpm, ledger, username, b"pw")
    trace = run_traced_login(gpm, ledger, username, b"pw", server_id)
    with open(path, "rb") as fh:
        ledger_bytes = fh.read()
    report = adversary.observe_trace(trace, [username, server_id], ledger_bytes)
    assert report.clean, report.violations
    assert {channel for channel, _ in report.sizes} == {
        "user->server",
        "server->ledger",
        "gpm->server",
        "server->user",
    }
    ledger.close()


def test_observer_flags_plaintext_on_opaque_channel():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    _, init = actors.client_auth_init(b"alice", b"pw")
    bad_trace = [("server->ledger", init.encode())]
    report = adversary.observe_trace(bad_trace, [b"alice"])
    assert not report.clean
    assert any("parses as plaintext" in v for v in report.violations)


def test_observer_flags_sensitive_substring():
    report = adversary.observe_trace(
        [("gpm->server", b"prefix--alice-the-user--suffix" + b"\x00" * 40)],
        [b"alice-the-user"],
    )
    assert not report.clean
    assert any("sensitive bytes" in v for v in report.violations)


def test_observer_flags_leaky_ledger_bytes():
    report = adversary.observe_trace(
        [], [b"server-nine"], ledger_bytes=b"...server-nine..."
    )
    assert not report.clean
