"""Append-only ledger: quorum proofs, duplicates, persistence, forgeries."""

import sys
import tracemalloc

import pytest

from pdid import crypto
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


def test_transaction_encoding_round_trip():
    for kind in TxKind:
        for length in (0, 1, 0xFFFF):
            tx = Transaction(kind, crypto.random_bytes(length))
            assert Transaction.decode(tx.encode()) == tx
    tx = Transaction(TxKind.UPDATE, crypto.random_bytes(40))
    with pytest.raises(MalformedRecord):
        Transaction.decode(tx.encode()[:-1])
    bad_kind = Transaction(TxKind.AUTH, b"p").encode()
    bad_kind = bad_kind[:4] + bytes([99]) + bad_kind[5:]
    with pytest.raises(MalformedRecord):
        Transaction.decode(bad_kind)


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
