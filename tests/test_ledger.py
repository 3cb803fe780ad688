"""Append-only ledger: quorum proofs, duplicates, persistence, forgeries."""

import os
import random
import sys
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import pytest

from pdid import crypto
from pdid import ledger as ledger_module
from pdid.errors import DuplicateTransaction, LedgerError, MalformedRecord
from pdid.ledger import InclusionProof, Ledger, Transaction, attestation_message
from pdid.wire import TxKind


def make_tx(tag=b""):
    return Transaction(TxKind.AUTH, b"payload-" + tag + crypto.random_bytes(8))


def test_append_returns_verifying_proof():
    ledger = Ledger()
    for i in range(5):
        tx = make_tx(bytes([i]))
        proof = ledger.append(tx)
        assert proof.seq == i
        assert proof.tx_id == tx.id
        assert len(proof.attestations) == ledger.f + 1
        assert ledger.tx_included(tx, proof)


def test_duplicate_transaction_rejected():
    ledger = Ledger()
    tx = make_tx()
    ledger.append(tx)
    with pytest.raises(DuplicateTransaction):
        ledger.append(tx)
    # Same payload under a different kind is the same id: still rejected.
    with pytest.raises(DuplicateTransaction):
        ledger.append(Transaction(TxKind.REGISTER, tx.payload))


def test_quorum_threshold_boundary():
    ledger = Ledger()
    tx = make_tx()
    proof = ledger.append(tx)
    # f signatures are not enough; f+1 are.
    short = InclusionProof(proof.tx_id, proof.seq, proof.attestations[: ledger.f])
    assert not ledger.tx_included(tx, short)
    exact = InclusionProof(proof.tx_id, proof.seq, proof.attestations[: ledger.f + 1])
    assert ledger.tx_included(tx, exact)


def test_repeated_attestations_do_not_stack():
    ledger = Ledger()
    tx = make_tx()
    proof = ledger.append(tx)
    one = proof.attestations[0]
    padded = InclusionProof(proof.tx_id, proof.seq, (one,) * (ledger.f + 1))
    assert not ledger.tx_included(tx, padded)


def test_corrupted_signature_rejected():
    ledger = Ledger()
    tx = make_tx()
    proof = ledger.append(tx)
    index, sig = proof.attestations[0]
    bad = bytearray(sig)
    bad[3] ^= 0x10
    forged = InclusionProof(
        proof.tx_id, proof.seq, ((index, bytes(bad)),) + proof.attestations[1:]
    )
    assert not ledger.tx_included(tx, forged)  # one good signature short


def test_wrong_position_or_id_rejected():
    ledger = Ledger()
    tx1, tx2 = make_tx(b"1"), make_tx(b"2")
    proof1 = ledger.append(tx1)
    proof2 = ledger.append(tx2)
    assert not ledger.tx_included(tx1, proof2)
    assert not ledger.tx_included(
        tx1, InclusionProof(tx1.id, proof2.seq, proof1.attestations)
    )
    assert not ledger.tx_included(
        tx1, InclusionProof(tx1.id, 999, proof1.attestations)
    )
    assert not ledger.tx_included(
        tx1, InclusionProof(tx1.id, -1, proof1.attestations)
    )
    # The right seq, but an id that is not the record's.
    assert not ledger.tx_included(
        tx1, InclusionProof(bytes(32), proof1.seq, proof1.attestations)
    )


def test_forged_proof_from_f_leaked_nodes_fails():
    ledger = Ledger()
    leaked = ledger.leak_node_seeds(ledger.f)
    off_ledger = make_tx(b"never-appended")
    message = attestation_message(off_ledger.id, 0)
    attestations = tuple(
        (i, crypto.sign(seed, message)) for i, seed in enumerate(leaked)
    )
    forged = InclusionProof(off_ledger.id, 0, attestations)
    assert not ledger.tx_included(off_ledger, forged)
    # Even with an on-ledger position under the forged id, signatures from
    # only f nodes stay below quorum.
    on_ledger = make_tx(b"real")
    ledger.append(on_ledger)
    assert not ledger.tx_included(off_ledger, InclusionProof(off_ledger.id, 0, attestations))


def test_leak_bound_enforced():
    ledger = Ledger()
    with pytest.raises(LedgerError):
        ledger.leak_node_seeds(ledger.f + 1)


def test_shape_must_be_3f_plus_1():
    with pytest.raises(LedgerError):
        Ledger(n_nodes=5, f=1)
    with pytest.raises(LedgerError):
        Ledger(4, 1, node_seeds=[crypto.random_bytes(32) for _ in range(3)])
    Ledger(n_nodes=7, f=2)  # valid alternative shape


def test_snapshot_is_append_only_view():
    ledger = Ledger()
    ledger.append(make_tx(b"a"))
    before = ledger.snapshot()
    ledger.append(make_tx(b"b"))
    after = ledger.snapshot()
    assert len(before) == 1 and len(after) == 2
    assert after[: len(before)] == before


def test_persistence_round_trip(tmp_path):
    path = str(tmp_path / "ledger.log")
    ledger = Ledger.create(path)
    txs = [make_tx(bytes([i])) for i in range(4)]
    proofs = [ledger.append(tx) for tx in txs]
    ledger.close()

    reloaded = Ledger.open(path)
    assert len(reloaded) == 4
    assert reloaded.snapshot() == tuple(txs)
    # Same node seeds on reload, so old proofs still verify and appends work.
    for tx, proof in zip(txs, proofs):
        assert reloaded.tx_included(tx, proof)
    extra = make_tx(b"post-reload")
    assert reloaded.tx_included(extra, reloaded.append(extra))
    with pytest.raises(DuplicateTransaction):
        reloaded.append(txs[0])
    # A replayed payload under a different kind is the same id after reload.
    with pytest.raises(DuplicateTransaction):
        reloaded.append(Transaction(TxKind.REGISTER, txs[0].payload))
    reloaded.close()


def test_open_rejects_garbage(tmp_path):
    path = str(tmp_path / "not-a-ledger")
    with open(path, "wb") as fh:
        fh.write(b"nonsense")
    with pytest.raises(LedgerError):
        Ledger.open(path)
    # A header whose node seeds stop short of the count it names.
    Ledger.create(path).close()
    with open(path, "r+b") as fh:
        fh.truncate(len(ledger_module._MAGIC) + 2 + 32 * 3 + 5)
    with pytest.raises(LedgerError, match="truncated node seeds"):
        Ledger.open(path)


GOOD_RECORD = Transaction(TxKind.AUTH, b"payload").encode()


def framed(record):
    return len(record).to_bytes(4, "big") + record


@pytest.mark.parametrize(
    "tail",
    [
        pytest.param(framed(b"\x07" + GOOD_RECORD[1:]), id="wrong-tag"),
        pytest.param(framed(b"\x08\x00\x00" + GOOD_RECORD[4:]), id="kind-length-0"),
        pytest.param(framed(b"\x08\x00\x02\x02" + GOOD_RECORD[3:]), id="kind-length-2"),
        pytest.param(framed(GOOD_RECORD[:3] + b"\x00" + GOOD_RECORD[4:]), id="kind-0"),
        pytest.param(framed(GOOD_RECORD[:3] + b"\x04" + GOOD_RECORD[4:]), id="kind-4"),
        pytest.param(framed(GOOD_RECORD[:4] + b"\x00\x06" + GOOD_RECORD[6:]), id="payload-length-short"),
        pytest.param(framed(GOOD_RECORD[:4] + b"\x00\x08" + GOOD_RECORD[6:]), id="payload-length-long"),
        pytest.param(framed(GOOD_RECORD[:5]), id="record-shorter-than-header"),
        pytest.param(framed(b""), id="empty-record"),
        pytest.param(framed(GOOD_RECORD)[:2], id="truncated-length-prefix"),
        pytest.param(framed(GOOD_RECORD)[:-1], id="truncated-record"),
    ],
)
def test_open_rejects_malformed_record(tmp_path, tail):
    path = str(tmp_path / "ledger.log")
    ledger = Ledger.create(path)
    ledger.append(make_tx())
    ledger.close()
    Ledger.open(path).close()  # the well-formed prefix opens
    with open(path, "ab") as fh:
        fh.write(tail)
    with pytest.raises((MalformedRecord, LedgerError)):
        Ledger.open(path)


def test_transaction_records_round_trip_through_a_full_scan(tmp_path):
    # One ledger per kind, as equal payloads are one id. With the index
    # deleted, each reopen parses every record from the file.
    for kind in TxKind:
        path = str(tmp_path / f"{kind.name}.log")
        ledger = Ledger.create(path)
        txs = [Transaction(kind, p) for p in (b"", b"\x01", crypto.random_bytes(0xFFFF))]
        for tx in txs:
            ledger.append(tx)
        ledger.close()
        os.remove(path + ".idx")
        reopened = Ledger.open(path)
        assert reopened.snapshot() == tuple(txs)
        reopened.close()


def test_transaction_id_depends_only_on_payload():
    a = Transaction(TxKind.AUTH, b"same")
    b = Transaction(TxKind.REGISTER, b"same")
    c = Transaction(TxKind.AUTH, b"other")
    assert a.id == b.id
    assert a.id != c.id


def test_reloaded_ledger_keeps_at_most_120_bytes_per_record_beyond_payload(tmp_path):
    # Every pdid command reloads the whole log, so per-record objects cost
    # both memory and reload time.
    path = str(tmp_path / "ledger.bin")
    ledger = Ledger.create(path)
    payloads = [crypto.random_bytes(280) for _ in range(3000)]
    for payload in payloads:
        ledger.append(Transaction(TxKind.AUTH, payload))
    ledger.close()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reloaded = Ledger.open(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    reloaded.close()
    beyond_payload = retained - sum(sys.getsizeof(p) for p in payloads)
    assert beyond_payload / len(payloads) <= 120


# -- the derived index beside a ledger file ----------------------------------


def write_log(path, count):
    """A closed ledger file of `count` records, so with an index."""
    ledger = Ledger.create(path)
    txs = [make_tx(bytes([i])) for i in range(count)]
    for tx in txs:
        ledger.append(tx)
    ledger.close()
    return txs


def index_of(path):
    return path + ".idx"


def full_scan(path, tmp_path):
    """The ledger that a scan of the whole file gives: a copy with no index."""
    copy = str(tmp_path / "scan-copy.log")
    Path(copy).write_bytes(Path(path).read_bytes())
    if os.path.exists(index_of(copy)):
        os.remove(index_of(copy))
    ledger = Ledger.open(copy)
    ledger.close()
    return ledger


def assert_same_log(path, tmp_path):
    """Reopening `path` gives the ledger a full scan gives: the same length
    and records, every record refused again, also under another kind, and
    a new record admitted."""
    expected = full_scan(path, tmp_path)
    reopened = Ledger.open(path)
    try:
        assert len(reopened) == len(expected)
        assert reopened.snapshot() == expected.snapshot()
        for tx in expected.snapshot():
            other = TxKind.REGISTER if tx.kind != TxKind.REGISTER else TxKind.AUTH
            for kind in (tx.kind, other):
                with pytest.raises(DuplicateTransaction):
                    reopened.append(Transaction(kind, tx.payload))
        fresh = make_tx(b"fresh")
        assert reopened.tx_included(fresh, reopened.append(fresh))
    finally:
        reopened.close()


def count_parses(monkeypatch):
    parsed = []
    original = ledger_module._parse_record

    def counting(data, start, end):
        parsed.append(start)
        return original(data, start, end)

    monkeypatch.setattr(ledger_module, "_parse_record", counting)
    return parsed


def test_reopen_parses_only_the_last_indexed_record_and_the_tail(tmp_path, monkeypatch):
    path = str(tmp_path / "ledger.log")
    txs = write_log(path, 50)
    stale = Path(index_of(path)).read_bytes()
    ledger = Ledger.open(path)
    tail = [make_tx(b"tail" + bytes([i])) for i in range(3)]
    for tx in tail:
        ledger.append(tx)
    ledger.close()

    parsed = count_parses(monkeypatch)
    reopened = Ledger.open(path)  # the index covers the tail too
    assert len(parsed) == 1 and len(reopened) == 53
    assert reopened.transaction_at(52) == tail[-1]
    reopened.close()

    # With the index from before the tail: that index's last record, then the tail.
    Path(index_of(path)).write_bytes(stale)
    parsed.clear()
    reopened = Ledger.open(path)
    assert len(parsed) == 4 and len(reopened) == 53
    reopened.close()
    monkeypatch.undo()
    reopened = Ledger.open(path)
    assert reopened.snapshot() == tuple(txs + tail)
    reopened.close()


def test_reopen_without_an_index_scans_and_rebuilds_it(tmp_path, monkeypatch):
    path = str(tmp_path / "ledger.log")
    write_log(path, 20)
    os.remove(index_of(path))
    parsed = count_parses(monkeypatch)
    Ledger.open(path).close()
    assert len(parsed) == 20
    assert os.path.exists(index_of(path))
    monkeypatch.undo()
    assert_same_log(path, tmp_path)


def test_stale_index_from_an_unclosed_ledger(tmp_path):
    path = str(tmp_path / "ledger.log")
    write_log(path, 10)
    stale = Path(index_of(path)).read_bytes()
    ledger = Ledger.open(path)
    for i in range(4):
        ledger.append(make_tx(b"after" + bytes([i])))
    ledger.close()
    # As after a crash before close: the records are on disk, the index is old.
    Path(index_of(path)).write_bytes(stale)
    assert_same_log(path, tmp_path)


@pytest.mark.parametrize("regrow", [False, True], ids=["truncated", "truncated-and-regrown"])
def test_index_ahead_of_a_truncated_log(tmp_path, regrow):
    path = str(tmp_path / "ledger.log")
    txs = write_log(path, 10)
    index = Path(index_of(path)).read_bytes()
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size - 2 * (4 + len(txs[-1].encode())))
    if regrow:
        # Records as long as the cut ones: the index's last record frames
        # right, and only its id tells it is another record.
        ledger = Ledger.open(path)
        for i in range(3):
            ledger.append(make_tx(bytes([100 + i])))
        ledger.close()
        assert os.path.getsize(path) == size + 4 + len(txs[-1].encode())
    Path(index_of(path)).write_bytes(index)
    assert_same_log(path, tmp_path)


# Every header field (magic, count, last start, covered end, ledger header
# digest), the first, a middle and the last id, and the checksum.
FLIPS = [0, 4, 5, 12, 13, 20, 21, 28, 29, 60, 61, 61 + 32 * 3 + 7, -33, -5, -1]


@pytest.mark.parametrize("position", FLIPS)
def test_bit_flipped_index_is_not_trusted(tmp_path, position):
    path = str(tmp_path / "ledger.log")
    write_log(path, 8)
    index = bytearray(Path(index_of(path)).read_bytes())
    index[position] ^= 0x01
    Path(index_of(path)).write_bytes(bytes(index))
    assert_same_log(path, tmp_path)


@pytest.mark.parametrize("keep", [0, 10, 61, 61 + 32 * 4, -4, -1])
def test_truncated_index_is_not_trusted(tmp_path, keep):
    path = str(tmp_path / "ledger.log")
    write_log(path, 8)
    index = Path(index_of(path)).read_bytes()
    Path(index_of(path)).write_bytes(index[:keep])
    assert_same_log(path, tmp_path)


def write_index(path, ids, base_index):
    """Rewrite the index of `path` with the id column `ids`, keeping the
    header fields (its first 61 bytes) of `base_index`, and a correct
    checksum."""
    header = base_index[:61]
    body = header + ids
    with open(index_of(path), "wb") as fh:
        fh.write(body + zlib.crc32(body).to_bytes(4, "big"))


def rewrite_index_header(path, drop_ids=0, **fields):
    """Rewrite the index of `path` with some header fields changed, the
    first `drop_ids` ids of its column dropped, and a correct checksum."""
    index = Path(index_of(path)).read_bytes()
    header = ledger_module._INDEX_HEADER
    names = ("magic", "count", "start", "covered", "digest")
    old = dict(zip(names, header.unpack_from(index)))
    new = header.pack(*(fields.get(name, old[name]) for name in names))
    write_index(path, index[header.size + 32 * drop_ids : -4], new)


@pytest.mark.parametrize("window", ["two-records", "inside-a-payload"])
def test_index_whose_window_is_not_its_last_record(tmp_path, monkeypatch, window):
    # A checksummed index whose window (start to covered end) frames
    # something else is not trusted: the open scans the whole file.
    path = str(tmp_path / "ledger.log")
    txs = write_log(path, 6)
    fake = b"\x00\x00\x00\x05" + bytes(5)  # a length prefix, then no record
    txs.append(Transaction(TxKind.AUTH, b"payload-" + fake))
    ledger = Ledger.open(path)
    ledger.append(txs[-1])
    ledger.close()
    if window == "two-records":
        # The last two records: the window's length prefix frames the first.
        before_last = os.path.getsize(path) - sum(4 + len(tx.encode()) for tx in txs[-2:])
        rewrite_index_header(path, start=before_last)
    else:
        # The right length, but not a transaction record.
        start = Path(path).read_bytes().rindex(fake)
        rewrite_index_header(path, start=start, covered=start + len(fake))
    parsed = count_parses(monkeypatch)
    Ledger.open(path).close()
    assert len(parsed) == {"two-records": 7, "inside-a-payload": 1 + 7}[window]
    monkeypatch.undo()
    assert_same_log(path, tmp_path)


def test_index_counting_fewer_records_than_the_log_fails_on_an_old_read(tmp_path):
    # The id column lost its first id: the window still checks out, so the
    # open succeeds, and the first read before the window sees the mismatch.
    path = str(tmp_path / "ledger.log")
    write_log(path, 5)
    rewrite_index_header(path, drop_ids=1, count=4)
    ledger = Ledger.open(path)
    try:
        with pytest.raises(LedgerError, match="ledger index does not match the log"):
            ledger.transaction_at(0)
    finally:
        ledger.close()


def test_duplicate_search_keeps_id_alignment(tmp_path):
    path = str(tmp_path / "ledger.log")
    txs = write_log(path, 3)
    index = Path(index_of(path)).read_bytes()
    ids = bytearray(index[61:-4])
    # A new record's id that straddles the first two ids of the column.
    newcomer = make_tx(b"newcomer")
    ids[16:48] = newcomer.id
    write_index(path, bytes(ids), index)
    ledger = Ledger.open(path)
    ledger.append(newcomer)  # not a duplicate: no aligned id matches
    ledger.close()


def test_two_ledgers_appending_to_one_file(tmp_path, monkeypatch):
    path = str(tmp_path / "ledger.log")
    write_log(path, 5)
    first, second = Ledger.open(path), Ledger.open(path)
    first.append(make_tx(b"first-1"))
    second.append(make_tx(b"second-1"))
    first.append(make_tx(b"first-2"))
    first.close()
    second.close()
    assert_same_log(path, tmp_path)
    # One closes before the other appends: its log is a prefix of the file.
    first, second = Ledger.open(path), Ledger.open(path)
    first.append(make_tx(b"a"))
    first.close()
    second.append(make_tx(b"b"))
    second.close()
    # The index is the first closer's: the second's log is not the file's prefix.
    parsed = count_parses(monkeypatch)
    Ledger.open(path).close()
    assert len(parsed) == 2
    monkeypatch.undo()
    assert_same_log(path, tmp_path)


def test_create_over_an_old_index(tmp_path, monkeypatch):
    path = str(tmp_path / "ledger.log")
    txs = write_log(path, 6)
    old_index = Path(index_of(path)).read_bytes()
    fresh = Ledger.create(path)
    assert not os.path.exists(index_of(path))
    fresh.append(make_tx(b"new"))
    fresh.close()
    assert_same_log(path, tmp_path)
    # The same records under new node seeds: the old index frames and
    # hashes right, but it belongs to another ledger header.
    fresh = Ledger.create(path)
    for tx in txs:
        fresh.append(tx)
    fresh.close()
    Path(index_of(path)).write_bytes(old_index)
    parsed = count_parses(monkeypatch)
    Ledger.open(path).close()
    assert len(parsed) == 6  # a full scan


def test_old_sequence_reads_load_the_prefix(tmp_path):
    path = str(tmp_path / "ledger.log")
    ledger = Ledger.create(path)
    txs = [make_tx(bytes([i])) for i in range(12)]
    proofs = [ledger.append(tx) for tx in txs]
    ledger.close()
    reopened = Ledger.open(path)
    assert reopened.transaction_at(3) == txs[3]
    assert reopened.transaction_at(-1) == txs[-1]
    assert all(reopened.tx_included(tx, proof) for tx, proof in zip(txs, proofs))
    assert reopened.snapshot() == tuple(txs)
    for seq in (12, -13):
        with pytest.raises(IndexError):
            reopened.transaction_at(seq)
    reopened.close()


def test_concurrent_old_sequence_reads_share_one_prefix_load(tmp_path, monkeypatch):
    path = str(tmp_path / "ledger.log")
    ledger = Ledger.create(path)
    txs = [make_tx(bytes([i])) for i in range(40)]
    proofs = [ledger.append(tx) for tx in txs]
    ledger.close()
    reopened = Ledger.open(path)
    results, loads = [], []
    scan = ledger_module._scan

    def counting_scan(*args):
        loads.append(1)
        return scan(*args)

    def verify_all():
        results.extend(reopened.tx_included(tx, p) for tx, p in zip(txs, proofs))

    monkeypatch.setattr(ledger_module, "_scan", counting_scan)
    threads = [threading.Thread(target=verify_all) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 * 40 and all(results)
    assert len(loads) == 1
    reopened.close()


def test_concurrent_first_reads_of_an_issued_proof_agree(monkeypatch):
    ledger = Ledger()
    proof = ledger.append(make_tx())
    results = []
    signing_key = crypto.signing_key

    def slow_signing_key(seed):
        time.sleep(0.01)  # holds each racing reader inside its signing
        return signing_key(seed)

    def read():
        start.wait(timeout=60)
        results.append(proof.attestations)

    monkeypatch.setattr(crypto, "signing_key", slow_signing_key)
    threads = [threading.Thread(target=read) for _ in range(4)]
    start = threading.Barrier(len(threads))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 and len(set(results)) == 1


def test_empty_ledger_writes_no_index(tmp_path):
    path = str(tmp_path / "ledger.log")
    Ledger.create(path).close()
    Ledger.open(path).close()
    assert os.listdir(tmp_path) == ["ledger.log"]


def test_reopened_ledger_keeps_at_most_40_bytes_per_record(tmp_path):
    # Through its index, a reopen holds the id column, not the records.
    path = str(tmp_path / "ledger.bin")
    ledger = Ledger.create(path)
    for _ in range(3000):
        ledger.append(Transaction(TxKind.AUTH, crypto.random_bytes(280)))
    ledger.close()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reloaded = Ledger.open(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    reloaded.close()
    assert len(reloaded) == 3000
    assert retained / 3000 <= 40


# -- proofs the ledger issued itself -----------------------------------------


def reference_included(ledger, tx, proof):
    """The quorum check with no memory of issued proofs: every signature
    verified, and a proof of the wrong shape refused."""
    try:
        if proof.tx_id != tx.id or not 0 <= proof.seq < len(ledger):
            return False
        if ledger.transaction_at(proof.seq).payload != tx.payload:
            return False
        message = attestation_message(proof.tx_id, proof.seq)
        valid = set()
        for index, signature in proof.attestations:
            if 0 <= index < ledger.n_nodes and index not in valid:
                if crypto.verify(crypto.sig_public(ledger.node_seeds[index]), message, signature):
                    valid.add(index)
        return len(valid) >= ledger.f + 1
    except (TypeError, ValueError):
        return False


def with_pairs(proof, attestations, seq=None):
    return InclusionProof(proof.tx_id, proof.seq if seq is None else seq, attestations)


def tampered(signature, rng):
    bad = bytearray(signature)
    bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
    return bytes(bad)


def proof_variants(ledger, txs, proofs, rng):
    """(label, tx, proof) for proofs this ledger issued, equal copies of
    them, and every kind of proof it did not issue."""
    f = ledger.f
    extra = ledger.node_seeds[f + 1]
    for seq, (tx, proof) in enumerate(zip(txs, proofs)):
        pairs = proof.attestations
        (i0, s0), (i1, s1) = pairs[0], pairs[1]
        other = txs[(seq + 1) % len(txs)]
        message = attestation_message(tx.id, seq)
        yield "issued", tx, proof
        copy = tuple((index, bytes(bytearray(sig))) for index, sig in pairs)
        yield "equal copy", tx, InclusionProof(bytes(bytearray(proof.tx_id)), seq, copy)
        k = rng.randrange(len(pairs))
        bad = pairs[:k] + ((pairs[k][0], tampered(pairs[k][1], rng)),) + pairs[k + 1 :]
        yield "tampered signature", tx, with_pairs(proof, bad)
        yield "reordered", tx, with_pairs(proof, pairs[::-1])
        yield "duplicated", tx, with_pairs(proof, (pairs[0], pairs[0]))
        yield "dropped", tx, with_pairs(proof, pairs[: rng.randrange(f + 1)])
        yield "padded", tx, with_pairs(proof, pairs + ((f + 1, crypto.sign(extra, message)),))
        yield "wrong seq", tx, with_pairs(proof, pairs, seq=(seq + 1) % len(txs))
        yield "wrong tx", other, proof
        leaked = ledger.leak_node_seeds(f)
        forged = tuple((i, crypto.sign(seed, message)) for i, seed in enumerate(leaked))
        yield "forged, f leaked", tx, with_pairs(proof, forged)
        yield "forged, f leaked + junk", tx, with_pairs(
            proof, forged + ((f, crypto.random_bytes(64)),)
        )
        yield "index 1.0", tx, with_pairs(proof, ((i0, s0), (float(i1), s1)))
        yield "index True", tx, with_pairs(proof, ((i0, s0), (True, s1)))
        yield "index '1'", tx, with_pairs(proof, ((i0, s0), (str(i1), s1)))
        yield "index None", tx, with_pairs(proof, ((i0, s0), (None, s1)))
        yield "bytearray signature", tx, with_pairs(proof, ((i0, s0), (i1, bytearray(s1))))
        yield "signature None", tx, with_pairs(proof, ((i0, s0), (i1, None)))
        yield "signature str", tx, with_pairs(proof, ((i0, s0), (i1, s1.hex())))
        yield "one-element attestation", tx, with_pairs(proof, ((i0, s0), (i1,)))
        yield "list attestations", tx, with_pairs(proof, list(pairs))
        yield "seq float", tx, with_pairs(proof, pairs, seq=float(seq))


@pytest.mark.parametrize("seed", range(4))
def test_tx_included_answers_as_the_reference_quorum_check(seed):
    rng = random.Random(seed)
    crypto.set_insecure_seed(seed)
    ledger = Ledger()
    txs = [make_tx(bytes([i])) for i in range(3)]
    proofs = [ledger.append(tx) for tx in txs]
    seen = set()
    for label, tx, proof in proof_variants(ledger, txs, proofs, rng):
        expected = reference_included(ledger, tx, proof)
        assert ledger.tx_included(tx, proof) is expected, label
        seen.add((label, expected))
    # Besides the issued ones, only proofs that carry f + 1 valid signatures.
    accepted = {label for label, ok in seen if ok}
    assert accepted == {
        "issued",
        "equal copy",
        "reordered",
        "padded",
        "index True",
        "bytearray signature",
        "list attestations",
    }


def test_proofs_from_a_twin_ledger_or_before_a_reopen_answer_as_the_reference(tmp_path):
    path = str(tmp_path / "ledger.log")
    ledger = Ledger.create(path)
    txs = [make_tx(bytes([i])) for i in range(3)]
    proofs = [ledger.append(tx) for tx in txs]
    # Same seeds, so the same deterministic signatures for the same (tx, seq).
    twin = Ledger(node_seeds=ledger.node_seeds)
    twin_proofs = [twin.append(tx) for tx in reversed(txs)]
    ledger.close()
    reopened = Ledger.open(path)
    for tx, proof, twin_proof in zip(txs, proofs, reversed(twin_proofs)):
        assert reopened.tx_included(tx, proof)
        assert reopened.tx_included(tx, twin_proof) is reference_included(reopened, tx, twin_proof)
        assert twin.tx_included(tx, proof) is reference_included(twin, tx, proof)
        assert twin.tx_included(tx, twin_proof)
    reopened.close()


@pytest.fixture
def verify_calls(monkeypatch):
    calls = []
    verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *a: calls.append(1) or verify(*a))
    return calls


def test_only_the_latest_issued_proof_skips_signature_checks(verify_calls, tmp_path):
    rng = random.Random(7)
    ledger = Ledger.create(str(tmp_path / "ledger.log"))
    txs = [make_tx(bytes([i])) for i in range(3)]
    proofs = [ledger.append(tx) for tx in txs]
    skipped = []
    for label, tx, proof in proof_variants(ledger, txs, proofs, rng):
        del verify_calls[:]
        answer = ledger.tx_included(tx, proof)
        calls = len(verify_calls)
        del verify_calls[:]
        assert answer is reference_included(ledger, tx, proof), label
        if answer and calls == 0:
            skipped.append((label, proof))
        else:
            # The full check: every signature the reference verifies.
            assert calls == len(verify_calls), label
            assert not answer or calls >= ledger.f + 1, label
    assert skipped == [("issued", proofs[-1])]
    ledger.close()
    reopened = Ledger.open(ledger.path)
    for tx, proof in zip(txs, proofs):
        del verify_calls[:]
        assert reopened.tx_included(tx, proof)
        assert len(verify_calls) == reopened.f + 1
    reopened.close()


def test_a_proof_issued_before_the_latest_append_is_checked_in_full(verify_calls):
    ledger = Ledger()
    tx = make_tx(b"first")
    proof = ledger.append(tx)
    ledger.append(make_tx(b"second"))
    del verify_calls[:]
    assert ledger.tx_included(tx, proof) is reference_included(ledger, tx, proof) is True
    assert len(verify_calls) == 2 * (ledger.f + 1)  # here, then in the reference


def test_the_issued_proof_is_recognised_without_hashing_the_payload(monkeypatch):
    ledger = Ledger()
    tx = make_tx(b"hashed")
    proof = ledger.append(tx)
    copy = InclusionProof(bytes(bytearray(proof.tx_id)), proof.seq, proof.attestations)
    calls = []
    tx_id = ledger_module._tx_id
    monkeypatch.setattr(ledger_module, "_tx_id", lambda payload: calls.append(1) or tx_id(payload))
    assert ledger.tx_included(tx, proof) and calls == []
    assert ledger.tx_included(tx, copy) and calls == [1]


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_attestations_read_back_as_signing_at_append_makes_them(seed, f, verify_calls, tmp_path):
    crypto.set_insecure_seed(seed)
    path = str(tmp_path / "ledger.log")
    ledger = Ledger.create(path, 3 * f + 1, f)
    seeds = ledger.node_seeds

    def eager(proof):
        message = attestation_message(proof.tx_id, proof.seq)
        return tuple((i, crypto.sign(seeds[i], message)) for i in range(f + 1))

    txs = [make_tx(bytes([i])) for i in range(4)]
    older = ledger.append(txs[0])
    read_after_close = ledger.append(txs[1])
    issued = ledger.append(txs[2])
    assert issued.attestations == eager(issued)
    assert older.attestations == eager(older)
    ledger.close()
    assert read_after_close.attestations == eager(read_after_close)
    reopened = Ledger.open(path)
    from_reopened = reopened.append(txs[3])
    assert from_reopened.attestations == eager(from_reopened)
    for tx, proof in zip(txs, (older, read_after_close, issued, from_reopened)):
        copy = InclusionProof(tx.id, proof.seq, eager(proof))
        assert copy == proof and hash(copy) == hash(proof) and repr(copy) == repr(proof)
        del verify_calls[:]
        assert reopened.tx_included(tx, copy)
        assert len(verify_calls) == f + 1
    reopened.close()
