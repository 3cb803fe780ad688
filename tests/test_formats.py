"""Byte-exact pins of the on-disk formats.

`golden_deployment.json` holds the ledger file and the sealed contract state
of a seeded deployment (three users, one updated password, two charged
login attempts still inside the rate window). Any change to how either is
written, or to the group arithmetic and randomness consumption behind them,
changes these bytes; FORMATS.md must then say why. Files written by earlier
versions must keep reloading, so the golden bytes are also reopened and
extended here.

Regenerate only for a documented format change:

    PYTHONPATH=src python tests/test_formats.py
"""

import json
import struct
from pathlib import Path

import pytest

from pdid import actors, crypto, wire
from pdid.contract import GpmContract
from pdid.errors import MalformedRecord, WrongPassword
from pdid.ledger import Ledger

GOLDEN = Path(__file__).with_name("golden_deployment.json")
NOW = 1_000_000.0
USERS = {b"alice": b"alice-pw", b"bob": b"bob-pw", b"carol": b"carol-pw"}


def build(directory: Path) -> dict:
    """The seeded deployment whose files are pinned, as hex strings."""
    crypto.set_insecure_seed(4)
    path = str(directory / "ledger.bin")
    ledger = Ledger.create(path)
    gpm = GpmContract.create(ledger.tx_included, clock=lambda: NOW)
    for username, password in USERS.items():
        actors.run_register(gpm, ledger, username, password)
    actors.run_login(gpm, ledger, b"alice", USERS[b"alice"], b"srv")
    with pytest.raises(WrongPassword):
        actors.run_update(gpm, ledger, b"bob", b"not-bob-pw", b"x")
    actors.run_update(gpm, ledger, b"carol", USERS[b"carol"], b"carol-pw-2")
    sealing_key = crypto.random_bytes(crypto.KEY_LEN)
    sealed = gpm.seal(sealing_key)
    ledger.close()
    return {
        "sealing_key": sealing_key.hex(),
        "sealed_state": sealed.hex(),
        "ledger_file": Path(path).read_bytes().hex(),
    }


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def state_plaintext(gpm: GpmContract, key: bytes) -> bytes:
    return crypto.aead_decrypt(key, gpm.seal(key))


def test_seeded_deployment_writes_the_pinned_bytes(tmp_path):
    assert build(tmp_path) == golden()


def test_pinned_files_reload_and_extend(tmp_path):
    pinned = golden()
    key = bytes.fromhex(pinned["sealing_key"])
    path = tmp_path / "ledger.bin"
    path.write_bytes(bytes.fromhex(pinned["ledger_file"]))
    ledger = Ledger.open(str(path))
    original = ledger.snapshot()
    gpm = GpmContract.unseal(
        bytes.fromhex(pinned["sealed_state"]), key,
        tx_verifier=ledger.tx_included, clock=lambda: NOW,
    )
    assert len(ledger) == 6 and gpm.user_count() == 3
    # The reloaded state re-seals to the same plaintext.
    assert state_plaintext(gpm, key) == crypto.aead_decrypt(
        key, bytes.fromhex(pinned["sealed_state"])
    )
    actors.run_login(gpm, ledger, b"carol", b"carol-pw-2", b"srv")
    actors.run_register(gpm, ledger, b"dave", b"dave-pw")
    actors.run_login(gpm, ledger, b"dave", b"dave-pw", b"srv")
    ledger.close()
    reopened = Ledger.open(str(path))
    assert len(reopened) == 9
    assert reopened.snapshot()[:6] == original
    reopened.close()


def sealed_with_users(gpm: GpmContract, key: bytes, users: dict) -> bytes:
    """Re-seal gpm's keypair and rate windows around a forged users blob."""
    r = wire.Reader(state_plaintext(gpm, key))
    tag, secret, public = r.u8(), r.field(), r.field()
    r.field()
    attempts = r.field()
    users_blob = struct.pack(">I", len(users)) + b"".join(
        wire.pack_field(name) + wire.pack_field(record) for name, record in sorted(users.items())
    )
    state = bytes([tag]) + b"".join(
        wire.pack_field(part) for part in (secret, public, users_blob, attempts)
    )
    return crypto.aead_encrypt(key, state)


def state_users(gpm: GpmContract, key: bytes) -> dict:
    """username -> stored metadata record, read back from the sealed state."""
    r = wire.Reader(state_plaintext(gpm, key))
    r.u8(), r.field(), r.field()
    ur = wire.Reader(r.field())
    (count,) = struct.unpack(">I", ur.take(4))
    return dict((ur.field(), ur.field()) for _ in range(count))


def registered():
    ledger = Ledger()
    gpm = GpmContract.create(ledger.tx_included, clock=lambda: NOW)
    actors.run_register(gpm, ledger, b"alice", b"pw")
    return ledger, gpm, crypto.random_bytes(crypto.KEY_LEN)


@pytest.mark.parametrize(
    "forge",
    [lambda r: r[:-1], lambda r: r + b"\x00", lambda r: bytes([wire.MSG_SEALED_STATE]) + r[1:]],
    ids=["short", "long", "wrong-tag"],
)
def test_unseal_refuses_a_bad_metadata_record(forge):
    ledger, gpm, key = registered()
    forged = forge(state_users(gpm, key)[b"alice"])
    blob = sealed_with_users(gpm, key, {b"alice": forged})
    with pytest.raises(MalformedRecord):
        GpmContract.unseal(blob, key, tx_verifier=ledger.tx_included)


def off_curve_x() -> bytes:
    """A 32-byte x with no point on P-256 (x^3 - 3x + b a non-residue)."""
    p = 2**256 - 2**224 + 2**192 + 2**96 - 1
    b = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
    x = 5
    while pow((x**3 - 3 * x + b) % p, (p - 1) // 2, p) == 1:
        x += 1
    return x.to_bytes(32, "big")


def test_off_curve_element_in_sealed_state_fails_at_use_and_changes_nothing():
    ledger, gpm, key = registered()
    actors.run_register(gpm, ledger, b"bob", b"bob-pw")
    records = state_users(gpm, key)
    alice = bytearray(records[b"alice"])
    # The client static public key's x coordinate: record bytes 107-138.
    alice[107:139] = off_curve_x()
    records[b"alice"] = bytes(alice)
    restored = GpmContract.unseal(
        sealed_with_users(gpm, key, records), key,
        tx_verifier=ledger.tx_included, clock=lambda: NOW,
    )
    before = state_plaintext(restored, key)
    with pytest.raises(MalformedRecord):
        actors.run_login(restored, ledger, b"alice", b"pw", b"srv")
    assert state_plaintext(restored, key) == before
    # Other users' records are untouched and still usable.
    actors.run_login(restored, ledger, b"bob", b"bob-pw", b"srv")


def test_off_curve_server_static_key_spares_login_and_stops_update():
    ledger, gpm, key = registered()
    records = state_users(gpm, key)
    alice = bytearray(records[b"alice"])
    # The server static public key's x coordinate: record bytes 72-103.
    alice[72:104] = off_curve_x()
    records[b"alice"] = bytes(alice)
    restored = GpmContract.unseal(
        sealed_with_users(gpm, key, records), key,
        tx_verifier=ledger.tx_included, clock=lambda: NOW,
    )
    # Authentication does not use that key, so it does not decode it.
    client_key, server_key = actors.run_login(restored, ledger, b"alice", b"pw", b"srv")
    assert client_key == server_key
    before = state_plaintext(restored, key)
    with pytest.raises(MalformedRecord):
        actors.run_update(restored, ledger, b"alice", b"pw", b"pw-2")
    assert state_plaintext(restored, key) == before


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(build(Path(tmp)), indent=1) + "\n")
