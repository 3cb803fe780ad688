"""Append-only ledger simulation with quorum inclusion proofs.

Models the consensus layer as n = 3f + 1 in-process nodes. Appending a
transaction assigns it the next sequence number and returns an inclusion
proof carrying f + 1 node signatures over (transaction id, sequence); with at
most f byzantine nodes, any f + 1 valid signatures pin the transaction to the
honest log, so the contract accepts a transaction only after this check.
Duplicate transaction ids are rejected at append time, which is also the
replay defense: a captured transaction can never be placed twice.

When opened with a path the ledger persists as a header (node seeds, shape)
followed by length-prefixed transaction records, and reloads at startup.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from typing import Optional

from . import crypto
from .errors import DuplicateTransaction, LedgerError, MalformedRecord
from .wire import MSG_TRANSACTION, TxKind, pack_field

_MAGIC = b"PDLG\x01"
_ATTEST_LABEL = b"ledger-attest"
# A dict lookup: calling TxKind(value) costs about 0.8 µs per reloaded record.
_KINDS = {kind.value: kind for kind in TxKind}


@dataclass(frozen=True, slots=True)
class Transaction:
    """Opaque payload plus routing kind; the id is content-derived."""

    kind: TxKind
    payload: bytes

    @property
    def id(self) -> bytes:
        return crypto.hash_parts("tx", [self.payload])

    def encode(self) -> bytes:
        return bytes([MSG_TRANSACTION]) + pack_field(bytes([self.kind])) + pack_field(
            self.payload
        )

    @staticmethod
    def decode(data: bytes) -> "Transaction":
        kind, payload = _parse_record(data, 0, len(data))
        return Transaction(_KINDS[kind], payload)


def _parse_record(data: bytes, start: int, end: int) -> tuple[int, bytes]:
    """(kind value, payload) of the transaction record data[start:end].

    Fixed offsets (FORMATS.md): tag, u16 kind length 1, kind, u16 payload
    length that must fill the rest of the record exactly.
    """
    if end - start < 6 or data[start] != MSG_TRANSACTION:
        raise MalformedRecord("not a transaction record")
    if data[start + 1] != 0 or data[start + 2] != 1:
        raise MalformedRecord("bad kind field")
    kind = data[start + 3]
    if kind not in _KINDS:
        raise MalformedRecord("unknown transaction kind")
    if int.from_bytes(data[start + 4 : start + 6], "big") != end - start - 6:
        raise MalformedRecord("payload length does not match record")
    return kind, data[start + 6 : end]


@dataclass(frozen=True, slots=True)
class InclusionProof:
    """Claim that tx_id sits at seq, attested by the listed nodes."""

    tx_id: bytes
    seq: int
    attestations: tuple[tuple[int, bytes], ...]  # (node index, signature)


def attestation_message(tx_id: bytes, seq: int) -> bytes:
    return _ATTEST_LABEL + tx_id + struct.pack(">Q", seq)


class _Node:
    """One simulated consensus node: an index and a signing key."""

    __slots__ = ("index", "seed", "public", "_key")

    def __init__(self, index: int, seed: bytes) -> None:
        self.index = index
        self.seed = seed
        self.public = crypto.sig_public(seed)
        self._key = crypto.signing_key(seed)

    def attest(self, tx_id: bytes, seq: int) -> bytes:
        return crypto.sign(self._key, attestation_message(tx_id, seq))


class Ledger:
    """Append-only transaction log with quorum attestation.

    Appends are serialized through one lock; reads work on the immutable
    prefix so verification can run concurrently. The log is held as two
    parallel columns, payloads and kind bytes, with no object per record;
    `transaction_at` and `snapshot` rebuild Transaction objects on demand.
    """

    def __init__(
        self,
        n_nodes: int = 4,
        f: int = 1,
        node_seeds: Optional[list[bytes]] = None,
        path: Optional[str] = None,
        _fh=None,
    ) -> None:
        if n_nodes != 3 * f + 1:
            raise LedgerError("node count must equal 3f + 1")
        if node_seeds is None:
            node_seeds = [crypto.random_bytes(32) for _ in range(n_nodes)]
        if len(node_seeds) != n_nodes:
            raise LedgerError("need one seed per node")
        self.n_nodes = n_nodes
        self.f = f
        self.nodes = [_Node(i, seed) for i, seed in enumerate(node_seeds)]
        self._payloads: list[bytes] = []
        self._kinds = bytearray()
        # Keyed on payloads: the tx id hashes the payload alone, so equal
        # payloads are equal ids, and reload need not hash every record.
        self._seen: set[bytes] = set()
        self._lock = threading.Lock()
        self.path = path
        self._fh = _fh

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, path: str, n_nodes: int = 4, f: int = 1) -> "Ledger":
        """Start a fresh persistent ledger, truncating any existing file."""
        ledger = cls(n_nodes, f, path=path)
        fh = open(path, "wb")
        fh.write(_MAGIC)
        fh.write(bytes([n_nodes, f]))
        for node in ledger.nodes:
            fh.write(node.seed)
        fh.flush()
        os.fsync(fh.fileno())
        ledger._fh = fh
        return ledger

    @classmethod
    def open(cls, path: str) -> "Ledger":
        """Reload a persistent ledger: header, then every appended record."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < len(_MAGIC) + 2 or blob[: len(_MAGIC)] != _MAGIC:
            raise LedgerError("not a ledger file")
        pos = len(_MAGIC)
        n_nodes, f = blob[pos], blob[pos + 1]
        pos += 2
        seeds = []
        for _ in range(n_nodes):
            seeds.append(blob[pos : pos + 32])
            pos += 32
        if any(len(s) != 32 for s in seeds):
            raise LedgerError("truncated node seeds")
        ledger = cls(n_nodes, f, node_seeds=seeds, path=path)
        payloads, kinds = ledger._payloads, ledger._kinds
        end = len(blob)
        while pos < end:
            if pos + 4 > end:
                raise LedgerError("truncated record length")
            rec_end = pos + 4 + int.from_bytes(blob[pos : pos + 4], "big")
            if rec_end > end:
                raise LedgerError("truncated record")
            kind, payload = _parse_record(blob, pos + 4, rec_end)
            pos = rec_end
            kinds.append(kind)
            payloads.append(payload)
        ledger._seen.update(payloads)
        ledger._fh = open(path, "ab")
        return ledger

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- core operations ---------------------------------------------------

    def append(self, tx: Transaction) -> InclusionProof:
        """Admit a new transaction and return its quorum inclusion proof."""
        with self._lock:
            if tx.payload in self._seen:
                raise DuplicateTransaction("transaction id already on ledger")
            seq = len(self._payloads)
            # Kind first: len() counts payloads, so readers never see a
            # payload without its kind.
            self._kinds.append(tx.kind)
            self._payloads.append(tx.payload)
            self._seen.add(tx.payload)
            if self._fh is not None:
                record = tx.encode()
                self._fh.write(struct.pack(">I", len(record)) + record)
                self._fh.flush()
        tx_id = tx.id
        attestations = tuple(
            (node.index, node.attest(tx_id, seq)) for node in self.nodes[: self.f + 1]
        )
        return InclusionProof(tx_id, seq, attestations)

    def tx_included(self, tx: Transaction, proof: InclusionProof) -> bool:
        """Check a proof against the log: correct position, quorum of valid
        signatures from distinct known nodes."""
        if proof.tx_id != tx.id:
            return False
        if not 0 <= proof.seq < len(self._payloads):
            return False
        if self._payloads[proof.seq] != tx.payload:
            return False
        message = attestation_message(proof.tx_id, proof.seq)
        valid = set()
        for index, signature in proof.attestations:
            if not 0 <= index < self.n_nodes or index in valid:
                continue
            if crypto.verify(self.nodes[index].public, message, signature):
                valid.add(index)
        return len(valid) >= self.f + 1

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._payloads)

    def snapshot(self) -> tuple[Transaction, ...]:
        """Immutable view of the current log prefix."""
        return tuple(Transaction(_KINDS[k], p) for k, p in zip(self._kinds, self._payloads))

    def transaction_at(self, seq: int) -> Transaction:
        return Transaction(_KINDS[self._kinds[seq]], self._payloads[seq])

    def node_public_keys(self) -> list[bytes]:
        return [node.public for node in self.nodes]

    def leak_node_seeds(self, count: int) -> list[bytes]:
        """Hand out signing seeds for `count` nodes (adversary simulations)."""
        if count > self.f:
            raise LedgerError("cannot leak more than f nodes in simulations")
        return [node.seed for node in self.nodes[:count]]
