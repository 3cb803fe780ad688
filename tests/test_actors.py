"""Client and server protocol roles: agreement, blindness, one-shot state.

The key-agreement tests check both endpoints against an integer-arithmetic
oracle: each endpoint's `hmqv_key`, and a login's session keys, must be
the PRF of the hashed x-coordinate of the generator raised to
(x_u + e_u*p_u) * (x_s + e_s*p_s), computed directly on scalars.
"""

import pytest

from pdid import actors, crypto, oprf
from pdid.contract import GpmContract
from pdid.errors import StaleSession, WrongPassword
from pdid.ledger import Ledger
from pdid.wire import GpmAuthRequest, decode_envelope_plaintext, decode_metadata


def fresh():
    ledger = Ledger()
    return ledger, GpmContract.create(ledger.tx_included)


def full_login(gpm, ledger, username, password, server_id=b"srv.example"):
    client, init = actors.client_auth_init(username, password)
    server, tx = actors.server_auth_phase1(server_id, init, gpm.public_key)
    reply_ct = gpm.auth_pdid(tx, ledger.append(tx))
    server_key, to_user = actors.server_auth_phase2(server, reply_ct)
    client_key = actors.client_auth_finish(client, password, server_id, to_user)
    return client_key, server_key, (client, server, init, to_user)


def register(gpm, ledger, username, password):
    tx = actors.client_register(username, password, gpm.public_key)
    gpm.new_pdid(tx, ledger.append(tx))


# ---------------------------------------------------------------------------
# Metadata construction.
# ---------------------------------------------------------------------------


def test_build_metadata_is_self_consistent():
    from pdid import oprf
    from pdid.wire import decode_envelope_plaintext

    meta = actors.build_metadata(b"a password")
    assert crypto.base_exp(meta.server_static_priv) == meta.server_static_pub
    envelope_key = oprf.oprf_eval(meta.oprf_key, b"a password")
    plaintext = crypto.aead_decrypt(envelope_key, meta.envelope)
    static_priv, static_pub, server_pub = decode_envelope_plaintext(plaintext)
    assert crypto.base_exp(static_priv) == meta.client_static_pub
    assert static_pub == meta.client_static_pub.encode()
    assert server_pub == meta.server_static_pub.encode()


def test_build_metadata_fresh_per_call():
    a = actors.build_metadata("same")
    b = actors.build_metadata("same")
    assert a.oprf_key != b.oprf_key
    assert a.envelope != b.envelope


def test_string_arguments_accepted():
    ledger, gpm = fresh()
    register(gpm, ledger, "alice", "pw")
    client_key, server_key, _ = full_login(gpm, ledger, "alice", "pw", "srv")
    assert client_key == server_key


# ---------------------------------------------------------------------------
# End-to-end agreement.
# ---------------------------------------------------------------------------


def test_login_keys_agree_over_trials():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    keys = set()
    for _ in range(10):
        client_key, server_key, _ = full_login(gpm, ledger, b"alice", b"pw")
        assert client_key == server_key
        assert len(client_key) == crypto.KEY_LEN
        keys.add(client_key)
    assert len(keys) == 10  # fresh ephemerals give fresh session keys


def test_wrong_password_rejected_at_finish():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"right")
    with pytest.raises(WrongPassword):
        full_login(gpm, ledger, b"alice", b"wrong")


def test_retry_with_right_password_after_wrong_finish():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"right")
    client, init = actors.client_auth_init(b"alice", b"right")
    server, tx = actors.server_auth_phase1(b"srv", init, gpm.public_key)
    reply_ct = gpm.auth_pdid(tx, ledger.append(tx))
    server_key, to_user = actors.server_auth_phase2(server, reply_ct)
    with pytest.raises(WrongPassword):
        actors.client_auth_finish(client, b"typo", b"srv", to_user)
    assert not client.finished  # failed open leaves the session retryable
    assert actors.client_auth_finish(client, b"right", b"srv", to_user) == server_key


def test_different_server_identity_changes_key():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    client, init = actors.client_auth_init(b"alice", b"pw")
    server, tx = actors.server_auth_phase1(b"server-a", init, gpm.public_key)
    reply_ct = gpm.auth_pdid(tx, ledger.append(tx))
    server_key, to_user = actors.server_auth_phase2(server, reply_ct)
    # The client believed it was talking to a different identity: keys split.
    client_key = actors.client_auth_finish(client, b"pw", b"server-b", to_user)
    assert client_key != server_key


# ---------------------------------------------------------------------------
# Key-agreement identity against the integer oracle.
# ---------------------------------------------------------------------------


def test_agreement_identity_matches_integer_oracle():
    q = crypto.GROUP_ORDER
    for _ in range(50):
        x_u, p_u = crypto.random_scalar(), crypto.random_scalar()
        x_s, p_s = crypto.random_scalar(), crypto.random_scalar()
        e_u, e_s = crypto.random_scalar(), crypto.random_scalar()
        # hmqv_key reads each exponent's encoding back as the exponent.
        d_u, d_s = e_u.encode(), e_s.encode()
        X_u, P_u = crypto.base_exp(x_u), crypto.base_exp(p_u)
        X_s, P_s = crypto.base_exp(x_s), crypto.base_exp(p_s)

        client_side = crypto.hmqv_key(X_s, P_s, d_s, x_u, p_u, d_u)
        server_side = crypto.hmqv_key(X_u, P_u, d_u, x_s, p_s, d_s)
        sigma = crypto.base_exp(
            crypto.Scalar(
                (x_u.value + e_u.value * p_u.value)
                * (x_s.value + e_s.value * p_s.value)
                % q
            )
        )
        oracle = crypto.prf(
            crypto.hash_parts("hmqv-key", [sigma.x.to_bytes(32, "big")]), b"\x00"
        )
        assert client_side == server_side == oracle


def test_login_session_key_is_the_prf_of_the_hashed_x_coordinate():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    meta = decode_metadata(gpm._users[b"alice"])
    envelope_key = oprf.oprf_eval(meta.oprf_key, b"pw")
    p_u = decode_envelope_plaintext(crypto.aead_decrypt(envelope_key, meta.envelope))[0]
    client, init = actors.client_auth_init(b"alice", b"pw")
    x_u = client.eph_priv
    server, tx = actors.server_auth_phase1(b"srv", init, gpm.public_key)
    reply_ct = gpm.auth_pdid(tx, ledger.append(tx))
    server_key, to_user = actors.server_auth_phase2(server, reply_ct)
    client_key = actors.client_auth_finish(client, b"pw", b"srv", to_user)

    e_u = int.from_bytes(server.request.e_client, "little") % crypto.GROUP_ORDER
    e_s = int.from_bytes(server.request.e_server, "little") % crypto.GROUP_ORDER
    exponent = (
        (x_u.value + e_u * p_u.value)
        * (server.request.server_eph_priv.value + e_s * meta.server_static_priv.value)
        % crypto.GROUP_ORDER
    )
    x = crypto.base_exp(crypto.Scalar(exponent)).x.to_bytes(32, "big")
    expected = crypto.prf(crypto.hash_parts("hmqv-key", [x]), b"\x00")
    assert client_key == server_key == expected


# ---------------------------------------------------------------------------
# Session state hygiene.
# ---------------------------------------------------------------------------


def test_client_state_is_97_bytes_then_unavailable():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    client, init = actors.client_auth_init(b"alice", b"pw")
    assert len(client.ephemeral_state_bytes()) == 97
    server, tx = actors.server_auth_phase1(b"srv", init, gpm.public_key)
    reply_ct = gpm.auth_pdid(tx, ledger.append(tx))
    _, to_user = actors.server_auth_phase2(server, reply_ct)
    actors.client_auth_finish(client, b"pw", b"srv", to_user)
    with pytest.raises(StaleSession):
        client.ephemeral_state_bytes()


def test_client_secrets_dropped_after_finish():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    _, _, (client, _, _, _) = full_login(gpm, ledger, b"alice", b"pw")
    assert client.finished
    assert client.blind is None
    assert client.eph_priv is None


def test_client_finish_is_one_shot():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    _, _, (client, _, _, to_user) = full_login(gpm, ledger, b"alice", b"pw")
    with pytest.raises(StaleSession):
        actors.client_auth_finish(client, b"pw", b"srv.example", to_user)


def test_server_reply_key_is_one_shot():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    client, init = actors.client_auth_init(b"alice", b"pw")
    server, tx = actors.server_auth_phase1(b"srv", init, gpm.public_key)
    reply_ct = gpm.auth_pdid(tx, ledger.append(tx))
    actors.server_auth_phase2(server, reply_ct)
    assert server.reply_key is None
    with pytest.raises(StaleSession):
        actors.server_auth_phase2(server, reply_ct)


def test_server_session_holds_no_password_derived_values():
    # Structural blindness: the server's entire session state is the fixed
    # field set below, and its request the fixed field set of the message
    # it sent the contract; no password, OPRF key, envelope key, or static
    # secret ever enters either, and a session has no __dict__ to take other
    # attributes.
    _, gpm = fresh()
    _, init = actors.client_auth_init(b"alice", b"pw")
    server, _ = actors.server_auth_phase1(b"srv", init, gpm.public_key)
    assert not hasattr(server, "__dict__")
    with pytest.raises(AttributeError):
        server.password = b"pw"
    assert set(actors.ServerSession.__slots__) == {
        "request",
        "eph_pub",
        "reply_key",
    }
    assert isinstance(server.request, GpmAuthRequest)
    assert set(GpmAuthRequest.__slots__) == {
        "username",
        "blinded_element",
        "client_eph_pub",
        "server_eph_priv",
        "e_client",
        "e_server",
        "reply_pk",
    }


# ---------------------------------------------------------------------------
# Key confirmation.
# ---------------------------------------------------------------------------


def test_confirm_round_trip_and_role_separation():
    key = crypto.random_bytes(crypto.KEY_LEN)
    transcript = crypto.random_bytes(crypto.DIGEST_LEN)
    client_tag = actors.key_confirm("client", key, transcript)
    server_tag = actors.key_confirm("server", key, transcript)
    assert client_tag != server_tag
    assert actors.verify_confirm(key, transcript, client_tag, "client")
    assert actors.verify_confirm(key, transcript, server_tag, "server")
    # A tag replayed under the other role must fail.
    assert not actors.verify_confirm(key, transcript, client_tag, "server")
    assert not actors.verify_confirm(key, transcript, server_tag, "client")


def test_confirm_binds_key_and_transcript():
    key = crypto.random_bytes(crypto.KEY_LEN)
    transcript = crypto.random_bytes(crypto.DIGEST_LEN)
    tag = actors.key_confirm("client", key, transcript)
    assert not actors.verify_confirm(
        crypto.random_bytes(crypto.KEY_LEN), transcript, tag, "client"
    )
    assert not actors.verify_confirm(
        key, crypto.random_bytes(crypto.DIGEST_LEN), tag, "client"
    )


def test_confirm_unknown_role_rejected():
    with pytest.raises(ValueError):
        actors.key_confirm("middlebox", b"\x00" * 32, b"t")


def test_transcript_digest_binds_every_component():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    _, _, (client, server, init, to_user) = full_login(gpm, ledger, b"alice", b"pw")
    base = actors.transcript_digest(b"srv.example", init, to_user)
    assert base == actors.transcript_digest(b"srv.example", init, to_user)
    assert base != actors.transcript_digest(b"other.example", init, to_user)

    from pdid.wire import ServerToUser, UserAuthInit

    other_point = crypto.base_exp(crypto.random_scalar())
    swapped_init = UserAuthInit(init.username, init.blinded_element, other_point)
    assert base != actors.transcript_digest(b"srv.example", swapped_init, to_user)
    swapped_reply = ServerToUser(
        to_user.evaluated_element, other_point, to_user.envelope
    )
    assert base != actors.transcript_digest(b"srv.example", init, swapped_reply)


# ---------------------------------------------------------------------------
# Full-protocol driver.
# ---------------------------------------------------------------------------

LOGIN_STAGES = ["user->server", "server->ledger", "ledger", "gpm->server", "server->user", "client"]


def test_run_login_observer_reports_six_stages_in_order():
    ledger, gpm = fresh()
    register(gpm, ledger, b"observed", b"pw")
    events = []
    client_key, server_key = actors.run_login(
        gpm, ledger, b"observed", b"pw", b"srv.example",
        observe=lambda stage, data: events.append((stage, data, len(ledger))),
    )
    assert client_key == server_key
    assert [stage for stage, _, _ in events] == LOGIN_STAGES
    data = {stage: value for stage, value, _ in events}
    assert data["ledger"] is None and data["client"] is None
    for stage in ("user->server", "server->ledger", "gpm->server", "server->user"):
        assert isinstance(data[stage], bytes) and data[stage]
    # "ledger" is reported once the auth transaction is on the ledger.
    ledger_len = {stage: n for stage, _, n in events}
    assert ledger_len["server->ledger"] == 1 and ledger_len["ledger"] == 2


def test_run_login_observer_stops_where_the_login_fails():
    ledger, gpm = fresh()
    register(gpm, ledger, b"observed", b"pw")
    stages = []
    with pytest.raises(WrongPassword):
        actors.run_login(
            gpm, ledger, b"observed", b"wrong", b"srv.example",
            observe=lambda stage, data: stages.append(stage),
        )
    assert stages == LOGIN_STAGES[:-1]
