"""The identity contract: registration, authentication, update, sealing."""

import tracemalloc

import pytest

from pdid import actors, cli, crypto, oprf, wire
from pdid.contract import GpmContract
from pdid.errors import (
    AuthFailure,
    AuthRejected,
    MalformedRecord,
    NotOnLedger,
    RateLimited,
    UnknownUser,
    UsernameTaken,
    WrongPassword,
)
from pdid.ledger import InclusionProof, Ledger, Transaction
from pdid.wire import (
    GpmAuthRequest,
    GpmAuthResponse,
    TxKind,
    decode_expected,
    decode_metadata,
)


def fresh(clock=None, rate_limit=(10, 60.0)):
    ledger = Ledger()
    kwargs = {"rate_limit": rate_limit}
    if clock is not None:
        kwargs["clock"] = clock
    return ledger, GpmContract.create(ledger.tx_included, **kwargs)


def register(gpm, ledger, username, password):
    tx = actors.client_register(username, password, gpm.public_key)
    gpm.new_pdid(tx, ledger.append(tx))


def auth_once(gpm, ledger, username, password, server=b"srv"):
    _, init = actors.client_auth_init(username, password)
    session, tx = actors.server_auth_phase1(server, init, gpm.public_key)
    reply_ct = gpm.auth_pdid(tx, ledger.append(tx))
    return session, reply_ct, tx


# ---------------------------------------------------------------------------
# Registration.
# ---------------------------------------------------------------------------


def test_register_then_user_count():
    ledger, gpm = fresh()
    assert gpm.user_count() == 0
    register(gpm, ledger, b"alice", b"pw1")
    register(gpm, ledger, b"bob", b"pw2")
    assert gpm.user_count() == 2


def test_register_duplicate_username_rejected():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw1")
    tx = actors.client_register(b"alice", b"other", gpm.public_key)
    with pytest.raises(UsernameTaken):
        gpm.new_pdid(tx, ledger.append(tx))
    assert gpm.user_count() == 1


def test_register_requires_ledger_inclusion():
    ledger, gpm = fresh()
    tx = actors.client_register(b"alice", b"pw", gpm.public_key)
    forged = InclusionProof(tx.id, 0, ())
    with pytest.raises(NotOnLedger):
        gpm.new_pdid(tx, forged)
    assert gpm.user_count() == 0


def test_rekinded_payload_rejected_by_inner_tag():
    # The id covers only the payload, so re-wrapping a registration payload
    # as an auth transaction still matches the proof; the encrypted body's
    # own tag is what rejects it.
    ledger, gpm = fresh()
    tx = actors.client_register(b"alice", b"pw", gpm.public_key)
    proof = ledger.append(tx)
    with pytest.raises(MalformedRecord):
        gpm.auth_pdid(Transaction(TxKind.AUTH, tx.payload), proof)
    assert gpm.user_count() == 0


def test_wrong_kind_same_ledger_entry():
    ledger, gpm = fresh()
    tx = actors.client_register(b"alice", b"pw", gpm.public_key)
    proof = ledger.append(tx)
    with pytest.raises(MalformedRecord):
        gpm.auth_pdid(tx, proof)


@pytest.mark.parametrize(
    "method, kind",
    [("new_pdid", TxKind.AUTH), ("auth_pdid", TxKind.UPDATE), ("update_pdid", TxKind.REGISTER)],
    ids=["new_pdid", "auth_pdid", "update_pdid"],
)
def test_off_ledger_wrong_kind_is_refused_as_not_on_ledger(manual_clock, method, kind):
    # Inclusion is checked before the kind, so a record the ledger never
    # saw is NotOnLedger whatever its kind, and changes nothing.
    ledger, gpm = fresh(clock=manual_clock)
    register(gpm, ledger, b"alice", b"pw")
    _, init = actors.client_auth_init(b"alice", b"pw")
    tx = {
        TxKind.REGISTER: lambda: actors.client_register(b"bob", b"pw", gpm.public_key),
        TxKind.AUTH: lambda: actors.server_auth_phase1(b"srv", init, gpm.public_key)[1],
        TxKind.UPDATE: lambda: actors.client_update(b"alice", b"pw", b"new", gpm.public_key),
    }[kind]()
    with pytest.raises(NotOnLedger):
        getattr(gpm, method)(tx, InclusionProof(tx.id, 0, ()))
    assert gpm.user_count() == 1 and gpm._attempts == {}


# ---------------------------------------------------------------------------
# Authentication.
# ---------------------------------------------------------------------------


def test_auth_reply_decrypts_to_session_response():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    session, reply_ct, _ = auth_once(gpm, ledger, b"alice", b"pw")
    reply = decode_expected(
        crypto.pk_decrypt(session.reply_key, reply_ct), GpmAuthResponse
    )
    assert len(reply.session_key) == crypto.KEY_LEN
    # The evaluated element is the OPRF evaluation of the blinded point.
    assert reply.evaluated_element == oprf.evaluate(
        session.request.blinded_element, decode_metadata(gpm._users[b"alice"]).oprf_key
    )


def test_auth_unknown_user_rejected():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    with pytest.raises(UnknownUser):
        auth_once(gpm, ledger, b"mallory", b"pw")


def test_auth_errors_collapse_to_one_public_code():
    # Unknown-user and wrong-password must be indistinguishable to outsiders.
    assert UnknownUser.public_code == WrongPassword.public_code
    assert issubclass(UnknownUser, AuthRejected)
    assert issubclass(WrongPassword, AuthRejected)


def test_auth_requires_ledger_inclusion():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    _, init = actors.client_auth_init(b"alice", b"pw")
    _, tx = actors.server_auth_phase1(b"srv", init, gpm.public_key)
    with pytest.raises(NotOnLedger):
        gpm.auth_pdid(tx, InclusionProof(tx.id, 0, ()))


def test_auth_reply_is_deterministic_per_transaction():
    # Same admitted transaction, same reply bytes: the contract is a
    # deterministic state machine and replays cannot mine fresh randomness.
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    _, init = actors.client_auth_init(b"alice", b"pw")
    _, tx = actors.server_auth_phase1(b"srv", init, gpm.public_key)
    proof = ledger.append(tx)
    assert gpm.auth_pdid(tx, proof) == gpm.auth_pdid(tx, proof)


def test_auth_replies_differ_across_transactions():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    _, ct1, _ = auth_once(gpm, ledger, b"alice", b"pw")
    _, ct2, _ = auth_once(gpm, ledger, b"alice", b"pw")
    assert ct1 != ct2


# ---------------------------------------------------------------------------
# Rate limiting.
# ---------------------------------------------------------------------------


def test_rate_limit_counts_all_auth_attempts(manual_clock):
    ledger, gpm = fresh(clock=manual_clock, rate_limit=(3, 60.0))
    register(gpm, ledger, b"alice", b"pw")
    for _ in range(3):
        manual_clock.advance(1.0)
        auth_once(gpm, ledger, b"alice", b"pw")  # correct password still counts
    manual_clock.advance(1.0)
    with pytest.raises(RateLimited):
        auth_once(gpm, ledger, b"alice", b"pw")


def test_rate_limit_window_slides(manual_clock):
    ledger, gpm = fresh(clock=manual_clock, rate_limit=(2, 60.0))
    register(gpm, ledger, b"alice", b"pw")
    auth_once(gpm, ledger, b"alice", b"pw")
    manual_clock.advance(30.0)
    auth_once(gpm, ledger, b"alice", b"pw")
    manual_clock.advance(31.0)  # first attempt ages out of the window
    auth_once(gpm, ledger, b"alice", b"pw")
    manual_clock.advance(1.0)
    with pytest.raises(RateLimited):
        auth_once(gpm, ledger, b"alice", b"pw")


def test_rate_limit_is_per_username(manual_clock):
    ledger, gpm = fresh(clock=manual_clock, rate_limit=(1, 60.0))
    register(gpm, ledger, b"alice", b"pw")
    register(gpm, ledger, b"bob", b"pw")
    auth_once(gpm, ledger, b"alice", b"pw")
    auth_once(gpm, ledger, b"bob", b"pw")  # unaffected by alice's attempt
    with pytest.raises(RateLimited):
        auth_once(gpm, ledger, b"alice", b"pw")


def test_failed_update_counts_as_attempt(manual_clock):
    ledger, gpm = fresh(clock=manual_clock, rate_limit=(2, 60.0))
    register(gpm, ledger, b"alice", b"pw")
    for i in range(2):
        manual_clock.advance(1.0)
        tx = actors.client_update(b"alice", b"wrong", b"new", gpm.public_key)
        with pytest.raises(WrongPassword):
            gpm.update_pdid(tx, ledger.append(tx))
    manual_clock.advance(1.0)
    with pytest.raises(RateLimited):
        auth_once(gpm, ledger, b"alice", b"pw")


def test_rate_windows_hold_only_charged_unexpired_attempts(manual_clock):
    ledger, gpm = fresh(clock=manual_clock, rate_limit=(3, 60.0))
    register(gpm, ledger, b"alice", b"pw")
    register(gpm, ledger, b"bob", b"pw")
    tx = actors.client_update(b"alice", b"pw", b"new", gpm.public_key)
    gpm.update_pdid(tx, ledger.append(tx))
    assert b"alice" not in gpm._attempts  # a successful update charges nothing
    auth_once(gpm, ledger, b"bob", b"pw")
    assert len(gpm._attempts[b"bob"]) == 1
    manual_clock.advance(61.0)
    key = crypto.random_bytes(crypto.KEY_LEN)
    restored = GpmContract.unseal(
        gpm.seal(key), key, tx_verifier=ledger.tx_included, clock=manual_clock
    )
    assert restored._attempts == {}  # bob's expired window is not sealed


# ---------------------------------------------------------------------------
# Refusal order: a refused guess decodes no group element.
# ---------------------------------------------------------------------------


@pytest.fixture
def decodes(monkeypatch):
    """Calls to the element decoder the wire kinds and the metadata decoders
    look up by name."""
    calls = []
    original = wire.decode_element
    monkeypatch.setattr(wire, "decode_element", lambda data: calls.append(data) or original(data))
    return calls


def auth_tx(gpm, username, password=b"pw", mutate=None):
    """An AUTH transaction, its request body passed through `mutate` before
    it is encrypted to the contract."""
    _, init = actors.client_auth_init(username, password)
    if mutate is None:
        return actors.server_auth_phase1(b"srv", init, gpm.public_key)[1]
    request = GpmAuthRequest(
        username=init.username,
        blinded_element=init.blinded_element,
        client_eph_pub=init.client_eph_pub,
        server_eph_priv=crypto.random_scalar(),
        e_client=bytes(crypto.DIGEST_LEN),
        e_server=bytes(crypto.DIGEST_LEN),
        reply_pk=crypto.pk_gen().public,
    ).encode()
    return Transaction(TxKind.AUTH, crypto.pk_encrypt(gpm.public_key, mutate(request)))


def bad_blinded_element(request: bytes) -> bytes:
    # Tag, username field, then the blinded element's length and its
    # compression prefix, which only 2 and 3 may fill.
    at = 1 + 2 + int.from_bytes(request[1:3], "big") + 2
    return request[:at] + b"\x05" + request[at + 1 :]


def bad_server_scalar(request: bytes) -> bytes:
    # Tag, username field, the two point fields, then the server's
    # ephemeral scalar, which must be below the group order.
    at = 1 + 2 + int.from_bytes(request[1:3], "big") + 2 * (2 + crypto.ELEMENT_LEN) + 2
    return request[:at] + b"\xff" * crypto.SCALAR_LEN + request[at + crypto.SCALAR_LEN :]


def limited(manual_clock, cap=2):
    """A deployment in which the username alice has used up its rate window."""
    ledger, gpm = fresh(clock=manual_clock, rate_limit=(cap, 60.0))
    register(gpm, ledger, b"alice", b"pw")
    for _ in range(cap):
        manual_clock.advance(1.0)
        auth_once(gpm, ledger, b"alice", b"pw")
    manual_clock.advance(1.0)
    return ledger, gpm


def test_rate_limited_auth_decodes_no_element(manual_clock, decodes):
    ledger, gpm = limited(manual_clock)
    tx = auth_tx(gpm, b"alice")
    proof = ledger.append(tx)
    del decodes[:]
    with pytest.raises(RateLimited):
        gpm.auth_pdid(tx, proof)
    assert decodes == []


def test_rate_limited_update_decodes_no_element(manual_clock, decodes):
    ledger, gpm = limited(manual_clock)
    tx = actors.client_update(b"alice", b"pw", b"new", gpm.public_key)
    proof = ledger.append(tx)
    del decodes[:]
    with pytest.raises(RateLimited):
        gpm.update_pdid(tx, proof)
    assert decodes == []


def low_order_reply_key(request: bytes) -> bytes:
    # The reply key is the last field; X25519 with the all-zero point gives
    # an all-zero shared secret, so no reply box can be made to it.
    return request[: -crypto.BOX_PUBLIC_LEN] + bytes(crypto.BOX_PUBLIC_LEN)


# A point or scalar that fails its check is as malformed as a byte too many,
# and so is a reply key no box can be made to.
MALFORMED = pytest.mark.parametrize(
    "mutate",
    [lambda r: r + b"\x00", bad_blinded_element, bad_server_scalar, low_order_reply_key],
    ids=["trailing-byte", "bad-element", "bad-scalar", "low-order-reply-key"],
)


@MALFORMED
def test_malformed_auth_under_the_cap_is_refused_uncharged(manual_clock, mutate):
    ledger, gpm = fresh(clock=manual_clock, rate_limit=(2, 60.0))
    register(gpm, ledger, b"alice", b"pw")
    auth_once(gpm, ledger, b"alice", b"pw")
    window = list(gpm._attempts[b"alice"])
    manual_clock.advance(1.0)
    tx = auth_tx(gpm, b"alice", mutate=mutate)
    with pytest.raises(MalformedRecord) as refused:
        gpm.auth_pdid(tx, ledger.append(tx))
    assert cli._error_code(refused.value) == "malformed-record"
    assert gpm._attempts[b"alice"] == window


@MALFORMED
def test_malformed_auth_from_a_rate_limited_user_is_rate_limited(manual_clock, mutate):
    ledger, gpm = limited(manual_clock)
    window = list(gpm._attempts[b"alice"])
    tx = auth_tx(gpm, b"alice", mutate=mutate)
    with pytest.raises(RateLimited):
        gpm.auth_pdid(tx, ledger.append(tx))
    assert gpm._attempts[b"alice"] == window


@pytest.mark.parametrize("method", ["new_pdid", "auth_pdid", "update_pdid"])
def test_a_box_that_does_not_open_under_the_contract_key_is_malformed(manual_clock, method):
    ledger, gpm = fresh(clock=manual_clock)
    register(gpm, ledger, b"alice", b"pw")
    other = crypto.pk_gen().public
    _, init = actors.client_auth_init(b"alice", b"pw")
    tx = {
        "new_pdid": lambda: actors.client_register(b"bob", b"pw", other),
        "auth_pdid": lambda: actors.server_auth_phase1(b"srv", init, other)[1],
        "update_pdid": lambda: actors.client_update(b"alice", b"pw", b"new", other),
    }[method]()
    with pytest.raises(MalformedRecord) as refused:
        getattr(gpm, method)(tx, ledger.append(tx))
    assert cli._error_code(refused.value) == "malformed-record"
    assert gpm.user_count() == 1 and gpm._attempts == {}


def test_auth_with_a_bad_username_field_is_malformed(manual_clock):
    ledger, gpm = limited(manual_clock)
    for mutate in (
        lambda r: bytes([wire.MSG_UPDATE]) + r[1:],  # tag of another message
        lambda r: r[:3] + b"\xff" + r[4:],  # username no longer UTF-8
        lambda r: r[:1] + bytes(2) + r[3:],  # empty username
    ):
        tx = auth_tx(gpm, b"alice", mutate=mutate)
        with pytest.raises(MalformedRecord):
            gpm.auth_pdid(tx, ledger.append(tx))


def test_unknown_user_is_refused_uncharged_and_undecoded(manual_clock, decodes):
    ledger, gpm = fresh(clock=manual_clock)
    register(gpm, ledger, b"alice", b"pw")
    tx = auth_tx(gpm, b"mallory")
    proof = ledger.append(tx)
    del decodes[:]
    with pytest.raises(UnknownUser):
        gpm.auth_pdid(tx, proof)
    assert decodes == [] and gpm._attempts == {}


def test_admitted_flows_decode_only_the_elements_they_use(decodes, monkeypatch):
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    finish = actors.client_auth_finish
    counts = {}

    def counted_finish(*args):
        start = len(decodes)
        try:
            return finish(*args)
        finally:
            counts["client_auth_finish"] = len(decodes) - start

    monkeypatch.setattr(actors, "client_auth_finish", counted_finish)
    monkeypatch.setattr(crypto, "decode_element", wire.decode_element)
    del decodes[:]
    actors.run_login(gpm, ledger, b"alice", b"pw", b"srv")
    # Request: blinded element and client ephemeral key; stored record:
    # client static key; contract reply: evaluated element; envelope:
    # server static key.
    assert len(decodes) == 5 and counts["client_auth_finish"] == 1
    del decodes[:]
    actors.run_update(gpm, ledger, b"alice", b"pw", b"new")
    # The new record's two public keys and the stored record's two.
    assert len(decodes) == 4


def degenerate_hmqv_request(gpm, degenerate):
    """An AUTH request for alice whose HMQV secret has no x-coordinate: a
    combined base of client_static * client_static^(n-1), the identity, or
    an exponent of 0 + 0 * server_static."""
    meta = decode_metadata(gpm._users[b"alice"])
    _, init = actors.client_auth_init(b"alice", b"pw")
    fields = dict(
        username=b"alice",
        blinded_element=init.blinded_element,
        client_eph_pub=init.client_eph_pub,
        server_eph_priv=crypto.random_scalar(),
        e_client=crypto.random_bytes(crypto.DIGEST_LEN),
        e_server=crypto.random_bytes(crypto.DIGEST_LEN),
        reply_pk=crypto.pk_gen().public,
    )
    if degenerate == "identity-base":
        fields["client_eph_pub"] = meta.client_static_pub
        fields["e_client"] = (crypto.GROUP_ORDER - 1).to_bytes(crypto.SCALAR_LEN, "little")
    else:
        fields["server_eph_priv"] = crypto.Scalar(0)
        fields["e_server"] = bytes(crypto.DIGEST_LEN)
    request = GpmAuthRequest(**fields).encode()
    return Transaction(TxKind.AUTH, crypto.pk_encrypt(gpm.public_key, request))


@pytest.mark.parametrize("degenerate", ["identity-base", "zero-exponent"])
def test_auth_whose_hmqv_secret_is_the_identity_is_malformed(manual_clock, degenerate):
    # Only the group work finds this, so the attempt is already charged.
    ledger, gpm = fresh(clock=manual_clock)
    register(gpm, ledger, b"alice", b"pw")
    tx = degenerate_hmqv_request(gpm, degenerate)
    with pytest.raises(MalformedRecord) as refused:
        gpm.auth_pdid(tx, ledger.append(tx))
    assert cli._error_code(refused.value) == "malformed-record"
    assert len(gpm._attempts[b"alice"]) == 1


def test_a_login_makes_five_exp_and_two_dh_x(monkeypatch):
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    calls = {"exp": 0, "dh_x": 0}

    def counted(name):
        original = getattr(crypto, name, None)

        def spy(*args):
            calls[name] += 1
            return original(*args)

        return spy

    for name in calls:
        monkeypatch.setattr(crypto, name, counted(name), raising=False)
    monkeypatch.setattr(oprf, "exp", crypto.exp)  # oprf binds exp by name
    actors.run_login(gpm, ledger, b"alice", b"pw", b"srv")
    # OPRF blind, evaluate and unblind, one static-key step per endpoint,
    # then the HMQV secret's x at each endpoint.
    assert calls == {"exp": 5, "dh_x": 2}
    calls.update(exp=0, dh_x=0)
    with pytest.raises(WrongPassword):
        actors.run_login(gpm, ledger, b"alice", b"typo", b"srv")
    # The client stops when the envelope does not open.
    assert calls == {"exp": 4, "dh_x": 1}


# ---------------------------------------------------------------------------
# Password update.
# ---------------------------------------------------------------------------


def test_update_replaces_metadata():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"old-pw")
    before = gpm._users[b"alice"]
    tx = actors.client_update(b"alice", b"old-pw", b"new-pw", gpm.public_key)
    gpm.update_pdid(tx, ledger.append(tx))
    assert gpm._users[b"alice"] != before


def test_update_wrong_password_leaves_metadata_byte_identical():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"old-pw")
    before = gpm._users[b"alice"]
    tx = actors.client_update(b"alice", b"not-the-pw", b"new-pw", gpm.public_key)
    with pytest.raises(WrongPassword):
        gpm.update_pdid(tx, ledger.append(tx))
    assert gpm._users[b"alice"] == before


def test_update_unknown_user():
    ledger, gpm = fresh()
    tx = actors.client_update(b"ghost", b"a", b"b", gpm.public_key)
    with pytest.raises(UnknownUser):
        gpm.update_pdid(tx, ledger.append(tx))


def test_update_requires_ledger_inclusion():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    tx = actors.client_update(b"alice", b"pw", b"new", gpm.public_key)
    with pytest.raises(NotOnLedger):
        gpm.update_pdid(tx, InclusionProof(tx.id, 5, ()))


# ---------------------------------------------------------------------------
# Sealing.
# ---------------------------------------------------------------------------


def test_seal_unseal_round_trip(manual_clock):
    ledger, gpm = fresh(clock=manual_clock, rate_limit=(5, 60.0))
    register(gpm, ledger, b"alice", b"pw")
    register(gpm, ledger, b"bob", b"pw2")
    auth_once(gpm, ledger, b"alice", b"pw")

    key = crypto.random_bytes(crypto.KEY_LEN)
    blob = gpm.seal(key)
    restored = GpmContract.unseal(
        blob,
        key,
        tx_verifier=ledger.tx_included,
        clock=manual_clock,
        rate_limit=(5, 60.0),
    )
    assert restored.public_key == gpm.public_key
    assert restored.user_count() == 2
    assert restored._users == gpm._users
    assert restored._attempts == gpm._attempts
    # The restored contract still authenticates.
    auth_once(restored, ledger, b"bob", b"pw2")


def test_unseal_wrong_key_or_tamper_fails():
    ledger, gpm = fresh()
    register(gpm, ledger, b"alice", b"pw")
    key = crypto.random_bytes(crypto.KEY_LEN)
    blob = gpm.seal(key)
    with pytest.raises(AuthFailure):
        GpmContract.unseal(
            blob, crypto.random_bytes(crypto.KEY_LEN), tx_verifier=ledger.tx_included
        )
    tampered = bytearray(blob)
    tampered[len(tampered) // 2] ^= 1
    with pytest.raises(AuthFailure):
        GpmContract.unseal(bytes(tampered), key, tx_verifier=ledger.tx_included)


def test_sealed_blob_changes_with_state():
    ledger, gpm = fresh()
    key = crypto.random_bytes(crypto.KEY_LEN)
    empty = gpm.seal(key)
    register(gpm, ledger, b"alice", b"pw")
    assert gpm.seal(key) != empty


def test_contract_keeps_at_most_400_bytes_per_registered_user(seeded):
    # The encoded record is 300 B as a bytes object; decoded metadata objects
    # kept about 845 B per user.
    ledger, gpm = fresh()
    txs = [actors.client_register(f"user-{i:05d}", b"pw", gpm.public_key) for i in range(300)]
    proofs = [ledger.append(tx) for tx in txs]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for tx, proof in zip(txs, proofs):
            gpm.new_pdid(tx, proof)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert gpm.user_count() == len(txs)
    assert retained / len(txs) <= 400


def test_contract_keeps_its_box_key_object(monkeypatch):
    ledger = Ledger()
    gpm = GpmContract.create(ledger.tx_included)
    actors.run_register(gpm, ledger, b"alice", b"pw")
    built = []
    original = crypto.box_private_key
    monkeypatch.setattr(crypto, "box_private_key", lambda s: built.append(s) or original(s))
    actors.run_login(gpm, ledger, b"alice", b"pw", b"srv")
    # One key set-up per login, for the server's one-shot reply key; the
    # contract decrypts the auth transaction with the key it kept.
    assert len(built) == 1
