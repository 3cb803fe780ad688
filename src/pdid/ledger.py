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
`close` also writes a derived index beside the file (`<path>.idx`, FORMATS.md):
the ids of the records it covers and where the last of them sits. A reopen
that finds a valid index parses only that last record, to check the index,
and the ones after it, so its cost does not grow with the log; without one
it scans the whole file, as the index can always be deleted.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
import threading
import zlib
from typing import BinaryIO, Iterable, Optional

from . import crypto
from .errors import DuplicateTransaction, LedgerError, MalformedRecord
from .wire import MSG_TRANSACTION, TxKind, pack_field

_MAGIC = b"PDLG\x01"
_INDEX_MAGIC = b"PDIX\x01"
# magic, record count, start of the last indexed record, covered end, and
# the digest of the ledger header; then one 32-byte tx id per record, and
# a CRC-32 of everything before it.
_INDEX_HEADER = struct.Struct(">5sQQQ32s")
_CRC_LEN = 4
_ID_LEN = 32
_ATTEST_LABEL = b"ledger-attest"
# A dict lookup: calling TxKind(value) costs about 0.8 µs per reloaded record.
_KINDS = {kind.value: kind for kind in TxKind}


class Transaction(crypto.Frozen):
    """Opaque payload plus routing kind; the id is content-derived."""

    __slots__ = ("kind", "payload")
    kind: TxKind
    payload: bytes

    @property
    def id(self) -> bytes:
        return _tx_id(self.payload)

    def encode(self) -> bytes:
        return bytes([MSG_TRANSACTION]) + pack_field(bytes([self.kind])) + pack_field(
            self.payload
        )

    @staticmethod
    def decode(data: bytes) -> "Transaction":
        kind, payload = _parse_record(data, 0, len(data))
        return Transaction(_KINDS[kind], payload)


def replace_file(path: str, parts: Iterable[bytes]) -> None:
    """Write `parts` to a temp file beside `path`, made mode 0600 and under
    a name of its own by `mkstemp`, then rename it over `path`; a failed
    step removes it. The one writer of the sealing key, the sealed state
    and the ledger index."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _tx_id(payload: bytes) -> bytes:
    return crypto.hash_parts("tx", [payload])


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


def _scan(blob: bytes, pos: int, kinds: bytearray, payloads: list[bytes]) -> int:
    """Parse the length-prefixed records of blob[pos:] onto the two columns
    and return where the last one starts (-1 if there is none)."""
    last, end = -1, len(blob)
    while pos < end:
        if pos + 4 > end:
            raise LedgerError("truncated record length")
        rec_end = pos + 4 + int.from_bytes(blob[pos : pos + 4], "big")
        if rec_end > end:
            raise LedgerError("truncated record")
        kind, payload = _parse_record(blob, pos + 4, rec_end)
        kinds.append(kind)
        payloads.append(payload)
        last, pos = pos, rec_end
    return last


class InclusionProof(crypto.Frozen):
    """Claim that tx_id sits at seq, attested by the listed nodes."""

    __slots__ = ("tx_id", "seq", "attestations")
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
        self._key = crypto.signing_key(seed)
        self.public = crypto.sig_public(self._key)

    def attest(self, tx_id: bytes, seq: int) -> bytes:
        return crypto.sign(self._key, attestation_message(tx_id, seq))


class Ledger:
    """Append-only transaction log with quorum attestation.

    Appends are serialized through one lock; reads work on the immutable
    prefix so verification can run concurrently. The log is held as two
    parallel columns, payloads and kind bytes, with no object per record;
    `transaction_at` and `snapshot` rebuild Transaction objects on demand.

    A file-backed ledger keeps the id of every record in one more column,
    `_ids`, which `close` writes as the next index. A ledger reopened
    through its index holds in the other columns only the records after
    the `_base` records the index covers; those stay on disk until a read
    of one loads them all (`_prefix`), and until then their ids, read from
    the index, stand in for their payloads in the duplicate check.
    """

    def __init__(
        self,
        n_nodes: int = 4,
        f: int = 1,
        node_seeds: Optional[list[bytes]] = None,
        path: Optional[str] = None,
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
        # Payloads of the records in the columns. Keyed on payloads: the tx
        # id hashes the payload alone, so equal payloads are equal ids.
        self._seen: set[bytes] = set()
        self._lock = threading.Lock()
        self.path = path
        self._fh: Optional[BinaryIO] = None
        self._base = 0  # records covered by the index read at open
        self._prefix_end = 0  # file offset where the record at _base starts
        self._loaded_prefix: Optional[tuple[bytearray, list[bytes]]] = None
        self._ids = bytearray()
        self._header_digest = b""
        self._last_start = 0  # file offset of the last record
        self._end = 0  # file offset up to which this process read or wrote

    @property
    def _header_len(self) -> int:
        return len(_MAGIC) + 2 + 32 * self.n_nodes

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, path: str, n_nodes: int = 4, f: int = 1) -> "Ledger":
        """Start a fresh persistent ledger, truncating any existing file and
        removing its index."""
        ledger = cls(n_nodes, f, path=path)
        header = _MAGIC + bytes([n_nodes, f]) + b"".join(node.seed for node in ledger.nodes)
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + ".idx")
        fh = open(path, "wb")
        fh.write(header)
        fh.flush()
        os.fsync(fh.fileno())
        ledger._fh = fh
        ledger._header_digest = crypto.hash_parts("ledger-header", [header])
        ledger._end = len(header)
        return ledger

    @classmethod
    def open(cls, path: str) -> "Ledger":
        """Reload a persistent ledger: header, then the records after its
        index, or every record when there is no valid index."""
        with open(path, "rb") as fh:
            header = fh.read(len(_MAGIC) + 2)
            if len(header) < len(_MAGIC) + 2 or header[: len(_MAGIC)] != _MAGIC:
                raise LedgerError("not a ledger file")
            n_nodes, f = header[-2], header[-1]
            header += fh.read(32 * n_nodes)
            if len(header) != len(_MAGIC) + 2 + 32 * n_nodes:
                raise LedgerError("truncated node seeds")
            seeds = [header[i : i + 32] for i in range(len(_MAGIC) + 2, len(header), 32)]
            ledger = cls(n_nodes, f, node_seeds=seeds, path=path)
            ledger._header_digest = crypto.hash_parts("ledger-header", [header])
            indexed = ledger._read_index(fh)
            if indexed is None:
                start = len(header)
            else:
                ledger._ids, ledger._last_start, start = indexed
                ledger._base = len(ledger._ids) // _ID_LEN
                ledger._prefix_end = start
            fh.seek(start)
            blob = fh.read()
        payloads = ledger._payloads
        last = _scan(blob, 0, ledger._kinds, payloads)
        for payload in payloads:
            ledger._ids += _tx_id(payload)
        ledger._seen.update(payloads)
        if last >= 0:
            ledger._last_start = start + last
        ledger._end = start + len(blob)
        ledger._fh = open(path, "ab")
        return ledger

    def _read_index(self, fh) -> Optional[tuple[bytearray, int, int]]:
        """From a valid index: the id column, the offset of the last indexed
        record, and the covered end. None when the index is missing or does
        not check out against the open log `fh`."""
        try:
            with open(self.path + ".idx", "rb") as ix:
                ids = bytearray(os.fstat(ix.fileno()).st_size)
                ix.readinto(ids)
        except OSError:
            return None
        if len(ids) < _INDEX_HEADER.size + _CRC_LEN or zlib.crc32(
            memoryview(ids)[:-_CRC_LEN]
        ) != int.from_bytes(ids[-_CRC_LEN:], "big"):
            return None
        magic, count, start, covered, digest = _INDEX_HEADER.unpack_from(ids)
        del ids[-_CRC_LEN:]
        del ids[: _INDEX_HEADER.size]
        size = os.fstat(fh.fileno()).st_size
        if (
            magic != _INDEX_MAGIC
            or digest != self._header_digest
            or count < 1
            or len(ids) != count * _ID_LEN
            or not self._header_len <= start < covered <= size
        ):
            return None
        # The last indexed record ends at the covered end, parses, and its
        # payload hashes to the last id.
        fh.seek(start)
        record = fh.read(covered - start)
        if 4 + int.from_bytes(record[:4], "big") != len(record):
            return None
        try:
            payload = _parse_record(record, 4, len(record))[1]
        except MalformedRecord:
            return None
        if _tx_id(payload) != ids[-_ID_LEN:]:
            return None
        return ids, start, covered

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._write_index()
            finally:
                self._fh.close()
                self._fh = None

    def _write_index(self) -> None:
        """Replace the index with one that covers this log. Skipped for an
        empty log, and when another writer appended since this one read
        the file, as this log is then not the file's prefix. A failed write
        is not an error: the index is derived, and the next open scans."""
        if not len(self) or os.fstat(self._fh.fileno()).st_size != self._end:
            return
        header = _INDEX_HEADER.pack(
            _INDEX_MAGIC, len(self), self._last_start, self._end, self._header_digest
        )
        crc = zlib.crc32(self._ids, zlib.crc32(header))
        with contextlib.suppress(OSError):
            replace_file(
                self.path + ".idx",
                (header, self._ids, crc.to_bytes(_CRC_LEN, "big")),
            )

    # -- core operations ---------------------------------------------------

    def append(self, tx: Transaction) -> InclusionProof:
        """Admit a new transaction and return its quorum inclusion proof."""
        tx_id = tx.id
        with self._lock:
            if tx.payload in self._seen or self._indexed(tx_id):
                raise DuplicateTransaction("transaction id already on ledger")
            seq = len(self)
            # Kind first: len() counts payloads, so readers never see a
            # payload without its kind.
            self._kinds.append(tx.kind)
            self._payloads.append(tx.payload)
            self._seen.add(tx.payload)
            if self._fh is not None:
                record = tx.encode()
                self._fh.write(struct.pack(">I", len(record)) + record)
                self._fh.flush()
                self._ids += tx_id
                self._last_start = self._end
                self._end += 4 + len(record)
        attestations = tuple(
            (node.index, node.attest(tx_id, seq)) for node in self.nodes[: self.f + 1]
        )
        return InclusionProof(tx_id, seq, attestations)

    def _indexed(self, tx_id: bytes) -> bool:
        """Whether tx_id is among the ids read from the index: a search of
        the column's first `_base` ids at 32-byte alignment."""
        ids, end = self._ids, _ID_LEN * self._base
        pos = ids.find(tx_id, 0, end)
        while pos > 0 and pos % _ID_LEN:
            pos = ids.find(tx_id, pos + 1, end)
        return pos >= 0

    def tx_included(self, tx: Transaction, proof: InclusionProof) -> bool:
        """Check a proof against the log: correct position, quorum of valid
        signatures from distinct known nodes."""
        if proof.tx_id != tx.id:
            return False
        if not 0 <= proof.seq < len(self):
            return False
        if self._record(proof.seq)[1] != tx.payload:
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
        return self._base + len(self._payloads)

    def _prefix(self) -> tuple[bytearray, list[bytes]]:
        """Kinds and payloads of the records before `_base`, read from the
        file on first use with the scan that `open` skipped."""
        with self._lock:
            if self._loaded_prefix is None:
                with open(self.path, "rb") as fh:
                    fh.seek(self._header_len)
                    blob = fh.read(self._prefix_end - self._header_len)
                kinds, payloads = bytearray(), []
                _scan(blob, 0, kinds, payloads)
                if len(payloads) != self._base:
                    raise LedgerError("ledger index does not match the log")
                self._loaded_prefix = kinds, payloads
            return self._loaded_prefix

    def _record(self, seq: int) -> tuple[int, bytes]:
        """(kind value, payload) of the record at seq; negative counts from
        the end."""
        if seq < 0:
            seq += len(self)
        if seq >= self._base:
            return self._kinds[seq - self._base], self._payloads[seq - self._base]
        if seq < 0:
            raise IndexError("ledger sequence out of range")
        kinds, payloads = self._prefix()
        return kinds[seq], payloads[seq]

    def snapshot(self) -> tuple[Transaction, ...]:
        """Immutable view of the current log prefix."""
        kinds, payloads = self._kinds, self._payloads
        if self._base:
            prefix_kinds, prefix_payloads = self._prefix()
            kinds, payloads = prefix_kinds + kinds, prefix_payloads + payloads
        return tuple(Transaction(_KINDS[k], p) for k, p in zip(kinds, payloads))

    def transaction_at(self, seq: int) -> Transaction:
        kind, payload = self._record(seq)
        return Transaction(_KINDS[kind], payload)

    def leak_node_seeds(self, count: int) -> list[bytes]:
        """Hand out signing seeds for `count` nodes (adversary simulations)."""
        if count > self.f:
            raise LedgerError("cannot leak more than f nodes in simulations")
        return [node.seed for node in self.nodes[:count]]
