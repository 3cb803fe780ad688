"""Acceptance gate: every shipped claim, exercised at its stated scale.

Each test prints one CRITERION line (visible with `pytest -s` or on
failure) and asserts the claim at the stated tolerance. Criteria 7 and 8
read the JSON emitted by the real `bench` CLI command, so the numbers
asserted here are the numbers an operator would see.
"""

import contextlib
import io
import json
import os
import time

import pytest

from pdid import actors, adversary, cli, crypto, oprf, wire
from pdid.contract import GpmContract
from pdid.errors import PdidError, UsernameTaken, WrongPassword
from pdid.ledger import InclusionProof, Ledger


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def fresh():
    ledger = Ledger()
    return ledger, GpmContract.create(ledger.tx_included)


def register(gpm, ledger, username, password):
    tx = actors.client_register(username, password, gpm.public_key)
    gpm.new_pdid(tx, ledger.append(tx))


def login(gpm, ledger, username, password, server_id=b"srv.example"):
    client, init = actors.client_auth_init(username, password)
    server, tx = actors.server_auth_phase1(server_id, init, gpm.public_key)
    reply_ct = gpm.auth_pdid(tx, ledger.append(tx))
    server_key, to_user = actors.server_auth_phase2(server, reply_ct)
    client_key = actors.client_auth_finish(client, password, server_id, to_user)
    return client_key, server_key


def random_username(prefix=b"user-"):
    return prefix + crypto.random_bytes(8).hex().encode()


@pytest.fixture(scope="module")
def bench_json():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--json", "bench", "--iterations", "100"])
    assert code == 0
    return json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# 1. End-to-end correctness at scale.
# ---------------------------------------------------------------------------


def test_criterion_1_end_to_end_1000_logins_under_60s():
    ledger, gpm = fresh()
    started = time.monotonic()
    agreed = rejected = 0
    for _ in range(1000):
        username = random_username()
        password = crypto.random_bytes(4 + crypto.random_bytes(1)[0] % 17)
        register(gpm, ledger, username, password)
        client_key, server_key = login(gpm, ledger, username, password)
        if client_key == server_key:
            agreed += 1
        try:
            login(gpm, ledger, username, password + b"x")
        except WrongPassword:
            rejected += 1
    elapsed = time.monotonic() - started
    _report(
        1,
        agreed == 1000 and rejected == 1000 and elapsed < 60.0,
        f"{agreed}/1000 keys agreed, {rejected}/1000 wrong passwords rejected, "
        f"{elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 2. Duplicate-username races: the ledger-first registration wins.
# ---------------------------------------------------------------------------


def test_criterion_2_duplicate_races_ledger_first_wins():
    ledger, gpm = fresh()
    wins = 0
    for trial in range(100):
        username = random_username(b"race-")
        pw_a, pw_b = b"password-A", b"password-B"
        tx_a = actors.client_register(username, pw_a, gpm.public_key)
        tx_b = actors.client_register(username, pw_b, gpm.public_key)
        # Random arrival order at the ledger; delivery follows ledger order.
        first, second = (tx_a, tx_b) if crypto.random_bytes(1)[0] % 2 else (tx_b, tx_a)
        first_pw, second_pw = (pw_a, pw_b) if first is tx_a else (pw_b, pw_a)
        gpm.new_pdid(first, ledger.append(first))
        taken = False
        try:
            gpm.new_pdid(second, ledger.append(second))
        except UsernameTaken:
            taken = True
        winner_key, winner_server_key = login(gpm, ledger, username, first_pw)
        loser_rejected = False
        try:
            login(gpm, ledger, username, second_pw)
        except WrongPassword:
            loser_rejected = True
        if taken and winner_key == winner_server_key and loser_rejected:
            wins += 1
    _report(2, wins == 100, f"{wins}/100 races won by the ledger-first registration")


# ---------------------------------------------------------------------------
# 3. Off-ledger authentication attempts are rejected.
# ---------------------------------------------------------------------------


def test_criterion_3_offline_gate_100_rejections():
    ledger, gpm = fresh()
    register(gpm, ledger, b"gate-victim", b"the-password")
    leaked = ledger.leak_node_seeds(ledger.f)

    # 50 probes with the strongest forgery available (f real signatures).
    candidates = [f"guess-{i}".encode() for i in range(49)] + [b"the-password"]
    outcomes = adversary.malicious_node_offline_probe(
        gpm, leaked, b"gate-victim", candidates
    )
    # 50 probes with no valid signatures at all, at varied claimed positions.
    for i in range(50):
        _, init = actors.client_auth_init(b"gate-victim", f"guess2-{i}".encode())
        _, tx = actors.server_auth_phase1(b"attacker", init, gpm.public_key)
        try:
            gpm.auth_pdid(tx, InclusionProof(tx.id, i % 7, ()))
            outcomes.append("evaluated")
        except PdidError:
            outcomes.append("rejected")
    rejections = outcomes.count("rejected")
    _report(
        3,
        rejections == 100 and "evaluated" not in outcomes,
        f"{rejections}/100 off-ledger attempts rejected, 0 evaluations leaked",
    )


# ---------------------------------------------------------------------------
# 4. Blinded evaluation equals direct evaluation.
# ---------------------------------------------------------------------------


def test_criterion_4_oprf_blinded_equals_direct_100():
    equal = 0
    for _ in range(100):
        k = crypto.random_scalar()
        m = crypto.random_bytes(16)
        blinding = oprf.blind(m)
        beta = oprf.evaluate(blinding.alpha, k)
        if oprf.unblind(beta, blinding.r, m) == oprf.oprf_eval(k, m):
            equal += 1
    _report(4, equal == 100, f"{equal}/100 blinded evaluations byte-equal to direct")


# ---------------------------------------------------------------------------
# 5. Key-agreement identity over 1000 exponent tuples.
# ---------------------------------------------------------------------------


def test_criterion_5_agreement_identity_1000_tuples():
    q = crypto.GROUP_ORDER
    matched = 0
    for _ in range(1000):
        x_u, p_u = crypto.random_scalar(), crypto.random_scalar()
        x_s, p_s = crypto.random_scalar(), crypto.random_scalar()
        e_u, e_s = crypto.random_scalar(), crypto.random_scalar()
        # hmqv_key reads each exponent's encoding back as the exponent.
        d_u, d_s = e_u.encode(), e_s.encode()
        client_side = crypto.hmqv_key(
            crypto.base_exp(x_s), crypto.base_exp(p_s), d_s, x_u, p_u, d_u
        )
        server_side = crypto.hmqv_key(
            crypto.base_exp(x_u), crypto.base_exp(p_u), d_u, x_s, p_s, d_s
        )
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
        if client_side == server_side == oracle:
            matched += 1
    _report(5, matched == 1000, f"{matched}/1000 tuples matched the integer oracle")


# ---------------------------------------------------------------------------
# 6. Password update semantics.
# ---------------------------------------------------------------------------


def test_criterion_6_update_100_trials_and_byte_identical_on_failure():
    ledger, gpm = fresh()
    good = 0
    for trial in range(100):
        username = random_username(b"upd-")
        old_pw, new_pw = b"old-password", b"new-password"
        register(gpm, ledger, username, old_pw)
        tx = actors.client_update(username, old_pw, new_pw, gpm.public_key)
        gpm.update_pdid(tx, ledger.append(tx))

        old_rejected = False
        try:
            login(gpm, ledger, username, old_pw)
        except WrongPassword:
            old_rejected = True
        client_key, server_key = login(gpm, ledger, username, new_pw)

        before = gpm._users[username]
        bad = actors.client_update(username, b"not-the-password", b"evil", gpm.public_key)
        wrong_rejected = False
        try:
            gpm.update_pdid(bad, ledger.append(bad))
        except WrongPassword:
            wrong_rejected = True
        untouched = gpm._users[username] == before

        if old_rejected and client_key == server_key and wrong_rejected and untouched:
            good += 1
    _report(6, good == 100, f"{good}/100 updates rotated cleanly, metadata untouched on failure")


# ---------------------------------------------------------------------------
# 7. Performance, through the real bench command.
# ---------------------------------------------------------------------------


def test_criterion_7_performance_bounds(bench_json):
    t = bench_json["timings_ms"]
    derived = bench_json["derived"]
    server_median = t["server_auth_total"]["median_ms"]
    gpm_auth_median = t["gpm_auth"]["median_ms"]
    gpm_auth_mean = t["gpm_auth"]["mean_ms"]
    gpm_register_median = t["gpm_register"]["median_ms"]
    gpm_register_mean = t["gpm_register"]["mean_ms"]
    login_median = t["login_roundtrip"]["median_ms"]
    rate = derived["server_auths_per_sec"]
    ok = (
        server_median <= 16.3
        and gpm_auth_median <= 190.0
        and gpm_auth_mean <= 190.0
        and gpm_register_median <= 65.4
        and gpm_register_mean <= 65.4
        and login_median <= 500.0
        and rate >= 60.0
    )
    _report(
        7,
        ok,
        f"server auth {server_median:.2f}ms (<=16.3), contract auth "
        f"{gpm_auth_mean:.2f}ms avg (<=190), contract register "
        f"{gpm_register_mean:.2f}ms avg (<=65.4), login {login_median:.2f}ms "
        f"(<=500), {rate:.0f} auths/s (>=60)",
    )


# ---------------------------------------------------------------------------
# 8. Byte sizes, through the real bench command.
# ---------------------------------------------------------------------------


def test_criterion_8_sizes_within_2x_reference(bench_json):
    sizes = bench_json["sizes_bytes"]
    metadata = sizes["metadata_record"]
    state = sizes["client_ephemeral_state"]
    ok = metadata <= 2 * 260 and state <= 2 * 97
    _report(
        8,
        ok,
        f"metadata {metadata}B (<=520, reference 260), "
        f"client state {state}B (<=194, reference 97)",
    )


# ---------------------------------------------------------------------------
# 9. Serialization robustness: 10^4 mutations, zero silent mis-parses.
# ---------------------------------------------------------------------------


def _mutate(data: bytes) -> bytes:
    kind = crypto.random_bytes(1)[0] % 4
    buf = bytearray(data)
    if kind == 0:  # single bit flip
        pos = int.from_bytes(crypto.random_bytes(2), "big") % len(buf)
        buf[pos] ^= 1 << (crypto.random_bytes(1)[0] % 8)
    elif kind == 1:  # byte overwrite
        pos = int.from_bytes(crypto.random_bytes(2), "big") % len(buf)
        buf[pos] = crypto.random_bytes(1)[0]
    elif kind == 2:  # truncate
        cut = int.from_bytes(crypto.random_bytes(2), "big") % len(buf)
        buf = buf[:cut]
    else:  # extend with noise
        buf += crypto.random_bytes(1 + crypto.random_bytes(1)[0] % 8)
    return bytes(buf)


def test_criterion_9_fuzz_10k_mutations_no_silent_misparse(seeded):
    meta = actors.build_metadata(b"fuzz-password")
    originals = [
        wire.UserAuthInit(b"fuzz-user", crypto.base_exp(crypto.random_scalar()),
                          crypto.base_exp(crypto.random_scalar())).encode(),
        wire.GpmAuthRequest(
            b"fuzz-user",
            crypto.base_exp(crypto.random_scalar()),
            crypto.base_exp(crypto.random_scalar()),
            crypto.random_scalar(),
            crypto.random_bytes(32),
            crypto.random_bytes(32),
            crypto.random_bytes(32),
        ).encode(),
        wire.GpmAuthResponse(
            crypto.base_exp(crypto.random_scalar()),
            crypto.random_bytes(wire.ENVELOPE_CT_LEN),
            crypto.random_bytes(32),
        ).encode(),
        wire.ServerToUser(
            crypto.base_exp(crypto.random_scalar()),
            crypto.base_exp(crypto.random_scalar()),
            crypto.random_bytes(wire.ENVELOPE_CT_LEN),
        ).encode(),
        wire.RegistrationPlaintext(b"fuzz-user", meta).encode(),
        wire.UpdatePlaintext(b"fuzz-user", b"old", actors.build_metadata(b"n")).encode(),
        meta.encode(),
    ]
    silent = rejected = reparsed = 0
    for i in range(10_000):
        original = originals[i % len(originals)]
        mutated = _mutate(original)
        if mutated == original:
            continue
        try:
            decoded = wire.decode_message(mutated)
        except PdidError:
            rejected += 1
            continue
        if decoded.encode() == mutated:
            reparsed += 1  # canonical parse of a different valid message
        else:
            silent += 1
    _report(
        9,
        silent == 0,
        f"10000 mutations: {rejected} rejected loudly, {reparsed} parsed "
        f"canonically as other messages, {silent} silent mis-parses",
    )


# ---------------------------------------------------------------------------
# 10. Ledger privacy over a 100-session trace.
# ---------------------------------------------------------------------------


def test_criterion_10_ledger_free_of_identities_over_100_sessions(tmp_path):
    path = str(tmp_path / "trace-ledger.log")
    ledger = Ledger.create(path)
    gpm = GpmContract.create(ledger.tx_included)
    sensitive = []
    traces = []
    for i in range(100):
        username = random_username(b"private-user-")
        server_id = b"server-" + crypto.random_bytes(6).hex().encode()
        password = crypto.random_bytes(10)
        sensitive += [username, server_id]
        register(gpm, ledger, username, password)
        trace = []
        actors.run_login(
            gpm, ledger, username, password, server_id, observe=lambda *e: trace.append(e)
        )
        traces.extend(trace)
    ledger.close()
    with open(path, "rb") as fh:
        ledger_bytes = fh.read()
    # The derived index beside the ledger file is scanned as well.
    with open(path + ".idx", "rb") as fh:
        index_bytes = fh.read()

    leaks = [s for s in sensitive if s in ledger_bytes or s in index_bytes]
    report = adversary.observe_trace(traces, sensitive, ledger_bytes)
    _report(
        10,
        not leaks and report.clean,
        f"100 sessions, {len(ledger_bytes)} ledger bytes, {len(index_bytes)} index bytes, "
        f"{len(leaks)} identity leaks, observer violations: {report.violations}",
    )
