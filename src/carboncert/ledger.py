"""Permissioned-ledger emulation: identities, ordering, hash-chained blocks.

One ordering context serializes all submissions. Chaincode validation runs
at submission time; invalid transactions are recorded with their reason
rather than dropped, so the full history stays auditable. Only the
identities a ledger is opened with may submit.

Persistence: ``blocks/<height>.json`` (canonical JSON, payloads base64),
each written whole and never over another file (``model.write_new``: a temp
file of this writer's own, fsync, hard link): a cut at a height another
writer took raises HeightTaken, writing nothing. block_hash covers the entire
block content except the block_hash field itself. A block file opens with
``{"block_hash":"<hex>",`` and the rest of its bytes, after ``{``, is the
hashed content, so a file's bytes are checked against the hash they carry
without re-serializing the block. The open checks every file so, and every
block's ``prev_hash`` against the block below: any byte changed in a block
file, or a block resealed below the tip, is damage at open. Only a run of
blocks resealed up to the tip passes; a changed status is then found by the
re-execution, and a payload that is not base64 when it is read. Payloads
stay base64 text until first read, except the tip's and those of blocks the
open re-executes. ``verify_chain`` reads each block file once per call: a
file the open left unparsed (below) when it is parsed, from bytes that must
still hash as at the open, and any other after the re-execution, whose bytes
must still hash to the block loaded at open; it checks every link.
A genesis block may carry ``params``: a text the ledger stores and hashes
but does not read, the parameters of the chain's contract and its members.

Beside each block it cuts the ledger writes ``writes/<height>.json``: the
block's write-set journal, holding each transaction's status, reason,
touched keys and written values (a value whose bytes occur in the
transaction's payload as an ``[offset, length]`` slice of it, any other in
base64), bound to the block's hash, to the version and the
genesis content, and to a SHA-256 of its own body. Opening applies a block's
journal when it is whole, bound to this block, version and genesis, agrees
with the block's records and holds only slices inside their payloads (a
payload's length is read off its base64 text); it re-executes every other
block through the chaincode. A slice is cut from its payload when its value
is first read. ``verify_chain`` re-executes every block and compares each
result with what the open applied. A chain found damaged, at open or by a
read, refuses appends.

Savepoints: once the blocks above the last savepoint hold ``_DELTA_MIN_TXS``
transactions, as a day's commit does and a credit step does not, ``cut_all``
ends, when nothing is pending and no damage is known, by publishing one as
journals are published. A full savepoint, ``state/savepoint.json``, is written
when the ledger used or wrote none, or the blocks above the last full one hold
``_SAVEPOINT_MIN_TXS`` transactions. It holds the committed world state at the
tip, height S: each value as a slice of its payload, ``[height, index, offset,
length]``, or in base64. It is bound to the block hash at S, the journal
binding, the members (name, role, key id), the SHA-256 of every journal file up
to S (or that there was none) and a SHA-256 of its own body, and holds the next
transaction sequence. These fix every input of an open that loads every block
file, so when they all match, the savepoint's state is the state that open
builds. Any other time ``state/delta.json`` is written, a delta at the tip,
height D, on the last full savepoint: the values of the keys written since S
(slices of blocks above S), bound to the block hash at D, the SHA-256 of every
journal file above S up to D and the SHA-256 of the full savepoint's body, with
the next sequence. So its write is bounded by the keys written since S, not by
the chain; a full savepoint removes the delta on the one before. The open
uses the full savepoint when it all matches, and the delta on it too when that
all matches, else the full savepoint alone, to D = S: it still reads and
hashes every block file and checks every link (linear in the chain by design,
22 ms at 30 days on a 2-vCPU Xeon), but parses only the genesis, the tip and
the blocks above D, which it loads as above. A block up to D is parsed when
first read, from a file that must still hash as it did at the open; its
journal's effects are read when ``get_history`` or ``verify_chain`` needs
them. Any other full savepoint, or a block file up to D that fails its check,
makes the open load every file: deleting the savepoints costs only speed.
``verify_chain`` also compares the state it replays to at S with the full
savepoint's, and at D the keys the blocks above S write with the delta's, so a
forged savepoint is damage at its height.

A re-execution of ``_SPLIT_MIN_TXS`` transactions or more is split into one
contiguous part per usable CPU, of about equal transaction counts. This
process re-executes the first part; a forked process re-executes each later
part from the replayed state with the effects the open applied for every
block before the part (``model.Forked``), and reports the part clean only
when each block replays to its records and its applied effects, carries its
own fields right (``params`` only on the genesis; each transaction's payload
digest, id, member submitter and endorsement) and no damage is marked: a
block's fields are checked where it is re-executed. By induction, when every part before a part is clean its
applied effects are the ones it replays to, so the state the part's process
started from is the one a re-execution in order reaches: a clean part's
applied effects are applied instead of re-executing it. From the first part
that is not reported clean (one whose process raised or died included), this
process re-executes every block in order and checks its fields, as it does
in a re-execution that is not split. So the result, the damage found and the replayed state are those of a
re-execution in order. ``verify_chain`` forks: call it from a process that
runs no other thread.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import itertools
import json
import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .model import (
    ZERO_HASH_HEX,
    Forked,
    Identity,
    Role,
    canonical_json,
    digest_hex,
    format_ts,
    gc_paused,
    parse_ts,
    temp_file,
    usable_cpus,
    write_new,
)

BLOCK_TX_LIMIT = 12
GENESIS_EPOCH = parse_ts("2025-01-01T00:00:00Z")

# A re-execution of this many transactions or more is split over the usable
# CPUs (``Ledger._part_checks``). On a 2-vCPU Xeon (Python 3.11.7), forking
# and reaping one process took about 3 ms in a 55 MB process and 25 ms in a
# 751 MB one, while a day's chain, about 290 transactions, re-executed in
# about 17 ms and a 30-day chain, 8,760, in 0.7-0.9 s.
_SPLIT_MIN_TXS = 1_000

# ``Ledger.cut_all`` writes a full savepoint, one holding the whole state, when
# it writes one and the blocks above the last full one hold this many
# transactions. On a 2-vCPU Xeon (Python 3.11.7), on a 30-day chain (840
# blocks, 8,702 state keys), writing one took 10 ms (513 KB) against 162 ms for
# an open that loads every block file. Its write grows with the chain, so it is
# rare: a 30-day chain of certified days, 8,760 transactions, writes eight.
_SAVEPOINT_MIN_TXS = 1_000

# ``Ledger.cut_all`` writes a savepoint once the blocks above the last one, full
# or delta, hold this many transactions: a delta unless a full one is due. A
# day's commit, 288 batches and a few reports, writes one, so the credit steps
# that follow open from a savepoint at or just below the tip; a credit step, one
# transaction, and a day's four do not. On a 2-vCPU Xeon (Python 3.11.7) an
# open paid about 0.01 ms per transaction above its savepoint (a day's chain
# opened in 1.5 ms from one at the tip, 4.2 ms from none), so at most about
# 1 ms here; a delta holding three days' keys (900, 31 KB) took 1.7 ms to write.
_DELTA_MIN_TXS = 100

# the head of a block file in ``_seal``'s layout, past the genesis, which alone may carry params
_HEAD = re.compile(rb'\{"block_hash":"[0-9a-f]{64}","height":(0|[1-9][0-9]*),"prev_hash":"([0-9a-f]{64})",')

VALID = "VALID"
INVALID = "INVALID"


class UnknownIdentity(KeyError):
    pass


class NoChain(ValueError):
    """The data root holds no block file: there is no chain to open."""


class HeightTaken(ValueError):
    """A cut found a block file at the height it was to publish: another
    writer appended to the chain since this ledger opened it. Nothing was
    written, and the cut's transactions stay pending."""


class ChainDamaged(ValueError):
    """Append refused: a block file up to the highest on disk is missing or
    unreadable, does not hash to the hash it carries or does not link to the
    block below, a committed transaction does not replay as recorded or as
    its write-set journal holds, or a committed payload is not base64. Also
    raised by the read that finds such a payload."""


class Transaction:
    """One ordered transaction. ``payload`` is given as bytes, or as the
    base64 text its block file holds: that text is decoded strictly, once,
    when ``payload`` is first read, and a text that is not base64 raises
    ValueError there."""

    __slots__ = ("sequence", "tx_id", "_payload", "payload_digest", "submitter", "endorsement", "status", "reason")

    def __init__(
        self, sequence: int, tx_id: str, payload: Union[bytes, str], payload_digest: str,
        submitter: str, endorsement: str, status: str, reason: Optional[str] = None,
    ):
        self.sequence = sequence
        self.tx_id = tx_id
        self._payload = payload
        self.payload_digest = payload_digest
        self.submitter = submitter
        self.endorsement = endorsement
        self.status = status
        self.reason = reason

    @property
    def payload(self) -> bytes:
        if isinstance(self._payload, str):
            self._payload = _decode_payload(self._payload)
        return self._payload

    @property
    def payload_b64(self) -> str:
        """The payload's base64 text, as its block file holds it."""
        payload = self._payload
        return payload if isinstance(payload, str) else base64.b64encode(payload).decode("ascii")

    @property
    def payload_size(self) -> int:
        """``len(payload)``; a base64 text's length gives it without decoding,
        exactly whenever the text decodes."""
        payload = self._payload
        return len(payload) // 4 * 3 - payload.count("=", -2) if isinstance(payload, str) else len(payload)


def _decode_payload(text: str) -> bytes:
    """Strict base64: only the alphabet, padding only at the end, a length that is a multiple of 4."""
    if len(text) % 4:
        raise ValueError("base64 text whose length is not a multiple of 4")
    return base64.b64decode(text, validate=True)


@dataclass
class Block:
    height: int
    timestamp: str
    prev_hash: str
    transactions: List[Transaction]
    block_hash: str = ""
    params: Optional[str] = None  # genesis only: the contract's parameters


class ChainResult(NamedTuple):
    """Outcome of one chaincode invocation."""

    valid: bool
    reason: Optional[str]
    writes: Dict[str, bytes]
    touched: Tuple[str, ...]


class StateView:
    """Read-only world-state view handed to chaincode; ``value`` turns a
    stored value into its bytes."""

    def __init__(self, state: Dict[str, object], value: Callable[[object], bytes]):
        self._state = state
        self._value = value

    def get(self, key: str) -> Optional[bytes]:
        value = self._state.get(key)
        return None if value is None else self._value(value)


def make_identity(name: str, role: Role) -> Identity:
    """The identity ``name`` holds under ``role``, its key id derived from both."""
    key_id = hashlib.sha256(f"cred:{name}:{role.value}".encode()).hexdigest()[:16]
    return Identity(name=name, role=role, key_id=key_id)


def _endorse(key_id: str, payload_digest: str) -> str:
    return hashlib.sha256(f"{key_id}:{payload_digest}".encode()).hexdigest()[:32]


def _tx_id(payload: bytes, submitter: str, sequence: int) -> str:
    return digest_hex(payload + submitter.encode() + str(sequence).encode())


def _tx_to_dict(tx: Transaction) -> dict:
    return {
        "sequence": tx.sequence,
        "tx_id": tx.tx_id,
        "payload_b64": tx.payload_b64,
        "payload_digest": tx.payload_digest,
        "submitter": tx.submitter,
        "endorsement": tx.endorsement,
        "status": tx.status,
        "reason": tx.reason,
    }


def _block_content_dict(block: Block) -> dict:
    content = {
        "height": block.height,
        "timestamp": block.timestamp,
        "prev_hash": block.prev_hash,
        "transactions": [_tx_to_dict(t) for t in block.transactions],
    }
    if block.params is not None:  # a genesis without parameters keeps its bytes
        content["params"] = block.params
    return content


def _block_content(block: Block) -> bytes:
    """The canonical bytes that block_hash covers."""
    return canonical_json(_block_content_dict(block))


_FILE_HEAD = b'{"block_hash":"'
_FILE_HASH_END = len(_FILE_HEAD) + 64


def _seal(block: Block) -> bytes:
    """Set block_hash from the block's content; return the block file's bytes:
    keys sort, so the file is the content with ``block_hash`` as its first key."""
    content = _block_content(block)
    block.block_hash = digest_hex(content)
    return _FILE_HEAD + block.block_hash.encode("ascii") + b'",' + content[1:]


def _file_hash(raw: bytes) -> Optional[str]:
    """The hash a block file's bytes carry: the hex of its leading
    ``{"block_hash":"<hex>",`` when that is the SHA-256 of ``{`` and the rest
    of the file, the content ``_seal`` hashed; else None."""
    if raw[:len(_FILE_HEAD)] != _FILE_HEAD or raw[_FILE_HASH_END:_FILE_HASH_END + 2] != b'",':
        return None
    content = hashlib.sha256(b"{")
    content.update(memoryview(raw)[_FILE_HASH_END + 2:])
    computed = content.hexdigest()
    return computed if computed.encode("ascii") == raw[len(_FILE_HEAD):_FILE_HASH_END] else None


Chaincode = Callable[[dict, Identity, StateView], ChainResult]
Effect = Tuple[Dict[str, bytes], Tuple[str, ...]]  # a transaction's applied writes and touched keys

_JOURNAL_HEAD = b'{"body":'
_JOURNAL_TAIL = len(b',"sha256":"') + 64 + len(b'"}')


def _effect(result: ChainResult) -> Effect:
    """What a result applies: its writes when valid, and the keys it touched."""
    return (result.writes if result.valid else {}), tuple(result.touched)


def _journal_value(value: bytes, payload: bytes):
    """A written value as its journal holds it: ``[offset, length]`` into the
    transaction's payload when its bytes occur there, else base64."""
    offset = payload.find(value)
    if offset < 0:
        return base64.b64encode(value).decode("ascii")
    return [offset, len(value)]


def _value_from_journal(entry, height: int, index: int, tx: Transaction):
    """The written value a journal entry holds: its bytes when it is base64,
    and when it is a slice of non-negative ints inside the payload of ``tx``,
    the block ``height``'s ``index``-th transaction, a slice value; else
    ValueError. The payload is not decoded.

    A slice value, ``(height, index, offset, length)``, stands for the bytes
    ``payload[offset:offset + length]``, cut when the value is first read. It
    is a tuple of ints so that the garbage collector stops tracking it: an
    open keeps one per batch on the chain."""
    if isinstance(entry, str):
        return base64.b64decode(entry, validate=True)
    offset, length = entry
    if type(offset) is not int or type(length) is not int or offset < 0 or length < 0:
        raise ValueError("a journal slice needs two non-negative ints")
    if offset + length > tx.payload_size:
        raise ValueError("a journal slice reaches past its payload")
    return (height, index, offset, length)


def _held_writes(block: Block, effects: List[Effect]) -> List[Dict[str, object]]:
    """Each transaction's writes as its journal holds them (``_journal_value``)."""
    return [
        {k: _journal_value(v, tx.payload) for k, v in writes.items()}
        for tx, (writes, _) in zip(block.transactions, effects)
    ]


def _journal_bytes(block: Block, version: str, effects: List[Effect], held: List[Dict[str, object]]) -> bytes:
    """A block's write-set journal file; ``held`` is ``_held_writes(block, effects)``."""
    return _journal_file(canonical_json({
        "block_hash": block.block_hash,
        "version": version,
        "txs": [
            {
                "tx_id": tx.tx_id,
                "status": tx.status,
                "reason": tx.reason,
                "touched": list(touched),
                "writes": writes,
            }
            for tx, (_, touched), writes in zip(block.transactions, effects, held)
        ],
    }))


def _journal_file(body: bytes) -> bytes:
    """A journal's or savepoint's canonical body followed by the body's
    SHA-256; keys sort, as in a block file."""
    return _JOURNAL_HEAD + body + b',"sha256":' + canonical_json(digest_hex(body)) + b"}"


def _journal_body(raw: bytes) -> Optional[bytes]:
    """The body of a file ``_journal_file`` wrote, or None when ``raw`` is not one."""
    body = raw[len(_JOURNAL_HEAD):-_JOURNAL_TAIL]
    return body if raw == _journal_file(body) else None


def _read_journal(raw: bytes, block: Block, version: str):
    """The (tx_id, status, reason) records and effects, one per transaction,
    of ``block``'s journal file ``raw``; slices stay slice values. None when
    it is torn, bound to another block, contract version or genesis, or
    holds a slice outside its payload."""
    body = _journal_body(raw)
    if body is None:
        return None
    try:
        content = json.loads(body.decode("utf-8"))
        if content["block_hash"] != block.block_hash or content["version"] != version:
            return None
        txs = content["txs"]
        records = [(t["tx_id"], t["status"], t["reason"]) for t in txs]
        effects = [
            ({k: _value_from_journal(v, block.height, i, tx) for k, v in t["writes"].items()}, tuple(t["touched"]))
            for i, (t, tx) in enumerate(zip(txs, block.transactions))
        ]
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    return records, effects


class _Savepoint(NamedTuple):
    """A savepoint file's content, full or delta: see the module docstring."""

    height: int
    block_hash: str
    next_sequence: int
    journals: list  # per height above the full savepoint's (a full one: from 0) up to ``height``: a SHA-256 or None
    state: Dict[str, object]  # key -> bytes or a slice value
    bound: dict  # a full one's "binding" and "members"; a delta's "base", the SHA-256 of its full one's body
    digest: str  # the SHA-256 of its body


def _read_savepoint(path: Path, base: int = -1) -> Optional[_Savepoint]:
    """The savepoint at ``path``: a full one when ``base`` is -1, else a delta
    on the full one at height ``base``. None when it is missing, torn or not
    one."""
    raw = _file_bytes(str(path))
    try:
        body = None if raw is None else _journal_body(raw)
        if body is None:
            return None
        content = json.loads(body.decode("utf-8"))
        height, journals, next_sequence = content.pop("height"), content.pop("journals"), content.pop("next_sequence")
        if type(height) is not int or type(next_sequence) is not int or type(journals) is not list:
            return None
        if height <= base or len(journals) != height - base:
            return None
        state = _saved_state(content.pop("state"), base + 1, height)
        block_hash = content.pop("block_hash")
        return _Savepoint(height, block_hash, next_sequence, journals, state, content, raw[-66:-2].decode("ascii"))
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def _saved_state(values: dict, low: int, high: int) -> Dict[str, object]:
    """The state a savepoint's values hold: bytes from base64 and slice
    values; ValueError unless each slice is four non-negative ints, of a
    block from ``low`` to ``high``. Checked in bulk: this is most of a
    savepoint's load."""
    slices = {key: value for key, value in values.items() if type(value) is list}
    ints = list(itertools.chain.from_iterable(slices.values()))
    if set(map(len, slices.values())) - {4} or set(map(type, ints)) - {int}:
        raise ValueError("a savepoint slice needs four ints")
    if min(ints, default=0) < 0 or min(ints[::4], default=low) < low or max(ints[::4], default=high) > high:
        raise ValueError("a savepoint slice needs non-negative ints, of a block of its range")
    state = {key: base64.b64decode(value, validate=True) for key, value in values.items() if key not in slices}
    state.update(zip(slices, map(tuple, slices.values())))
    return state


def _saved_values(items: Iterable[Tuple[str, object]]) -> Dict[str, object]:
    """State (key, value) pairs as a savepoint holds them: a slice value as a
    list, bytes in base64."""
    return {
        key: list(value) if type(value) is tuple else base64.b64encode(value).decode("ascii") for key, value in items
    }


def _file_bytes(path: str) -> Optional[bytes]:
    """The bytes of the file at ``path``, None when it cannot be read (a
    directory cannot); a text path, as the open reads every block and journal
    file through it. One ``os.read`` of the size ``os.fstat`` gives, and one
    more byte: a file that grew since is read to its end."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size + 1)
        if len(data) <= size:
            return data
        chunks = [data]
        while chunks[-1]:
            chunks.append(os.read(fd, 1 << 16))
        return b"".join(chunks)
    except OSError:
        return None
    finally:
        os.close(fd)


def _publish(path: Path, data: bytes) -> bool:
    """Publish ``data`` at ``path`` by rename, without fsync, for a file that
    is checked on use: one lost or torn in a crash, or never written for want
    of space, costs only speed. False when it could not be written."""
    try:
        path.parent.mkdir(exist_ok=True)
        with temp_file(path, data, sync=False) as tmp:
            os.replace(tmp, path)
    except OSError:
        return False
    return True


class _Head(NamedTuple):
    """A block at or below a savepoint that the open checked but did not
    parse: its height and the hash its file's bytes hash to."""

    height: int
    block_hash: str


class Ledger:
    """Single-organization channel emulation with file-backed persistence."""

    def __init__(
        self, root, chaincode: Chaincode, version: str, identities: Iterable[Identity],
        params: Optional[str] = None,
    ):
        """``version`` names the chaincode's logic, to which write-set journals
        are bound. ``identities`` are the chain's members, the only submitters
        it accepts. ``params`` is what a genesis written by this open records;
        a chain that exists keeps its own."""
        self.root = Path(root)
        self.chaincode = chaincode
        self.version = version
        self.blocks_dir = self.root / "blocks"
        self.writes_dir = self.root / "writes"
        self.savepoint_path = self.root / "state" / "savepoint.json"
        self.delta_path = self.root / "state" / "delta.json"
        self.blocks_dir.mkdir(parents=True, exist_ok=True)
        self.identities: Dict[str, Identity] = {i.name: i for i in identities}
        self._state: Dict[str, object] = {}  # key -> bytes or a journal's slice value
        self._tx_index: Dict[str, Transaction] = {}
        self._pending: List[Tuple[Transaction, Effect]] = []
        self._blocks: List[Union[Block, _Head]] = []
        # per height: each transaction's effect as applied; None until read from a pinned journal or re-executed
        self._effects: List[Optional[List[Effect]]] = []
        self._pins: List[Optional[str]] = []  # per height: the SHA-256 of the journal file applied, or None
        self._next_sequence = 0
        self._damage: Optional[Tuple[int, str]] = None  # (first bad height, why)
        self._replayed = (-1, {}, None, None)  # _replay's (height, state, damage, bad) so far
        self._savepoint: Optional[_Savepoint] = None  # the full savepoint the open used
        self._delta: Optional[_Savepoint] = None  # the delta on it the open used
        self._savepoint_unread = False  # their pinned journals' effects are yet to be read
        self._unindexed = False  # the transactions of the blocks up to them are yet to be indexed
        # the last savepoint this ledger used or wrote: its height and next sequence; and of the
        # last full one, its height, next sequence and body's SHA-256, and the keys written since
        self._saved_height, self._saved_sequence = -1, 0
        self._full: Optional[Tuple[int, int, str]] = None
        self._written_since_full: set = set()
        with gc_paused():  # a container per parsed value and transaction, none of them cyclic garbage
            self._load(params)

    # -- membership ---------------------------------------------------------

    def get_identity(self, name: str) -> Identity:
        try:
            return self.identities[name]
        except KeyError:
            raise UnknownIdentity(name) from None

    def _members(self) -> List[List[str]]:
        return sorted([i.name, i.role.value, i.key_id] for i in self.identities.values())

    # -- ordering -----------------------------------------------------------

    def check_appendable(self) -> None:
        """Raise ChainDamaged if opening, a read or ``verify_chain`` found the chain damaged; no file is read."""
        if self._damage is not None:
            height, why = self._damage
            raise ChainDamaged(f"chain damaged at height {height}: {why}; refusing to append")

    def _mark(self, found: Optional[Tuple[int, str]]) -> None:
        """Record damage ``found`` at (height, why) unless damage as low is known."""
        if found is not None and (self._damage is None or found[0] < self._damage[0]):
            self._damage = found

    def _damaged(self, height: int, why: str) -> ChainDamaged:
        """Mark damage at ``height``; the ChainDamaged a read that found it raises."""
        self._mark((height, why))
        return ChainDamaged(f"chain damaged at height {height}: {why}")

    def submit_tx(self, payload: bytes, submitter: str) -> str:
        self.check_appendable()
        identity = self.get_identity(submitter)
        sequence = self._next_sequence
        self._next_sequence += 1
        payload_digest = digest_hex(payload)
        tx_id = _tx_id(payload, submitter, sequence)
        result = self._execute(payload, identity, self._state)
        tx = Transaction(
            sequence=sequence,
            tx_id=tx_id,
            payload=payload,
            payload_digest=payload_digest,
            submitter=submitter,
            endorsement=_endorse(identity.key_id, payload_digest),
            status=_status(result),
            reason=result.reason,
        )
        self._tx_index[tx_id] = tx
        self._pending.append((tx, _effect(result)))
        return tx_id

    def _execute(self, payload: bytes, identity: Identity, state) -> ChainResult:
        """Run one transaction's chaincode on ``state``; apply its writes when valid."""
        try:
            op = json.loads(payload.decode("utf-8"))
            if not isinstance(op, dict):
                raise ValueError("payload must be a JSON object")
        except (ValueError, UnicodeDecodeError):
            return ChainResult(False, "structure", {}, ())
        result = self.chaincode(op, identity, StateView(state, self._value))
        if result.valid:
            state.update(result.writes)
        return result

    def cut_block(self) -> Optional[Block]:
        """Drain up to 12 pending transactions into a new block, then its journal.

        Raises ChainDamaged, writing nothing, once the chain is known damaged:
        ``verify_chain`` can find damage after transactions were submitted.
        Raises HeightTaken, writing nothing, when a block file is at the new
        block's height: another writer appended since the open, and its block
        is never replaced. The transactions stay pending until their block
        file is written. A
        value the block writes whose bytes occur in its transaction's payload
        is held as a slice of it from then on, as the journal holds it."""
        if not self._pending:
            return None
        self.check_appendable()
        cut = self._pending[:BLOCK_TX_LIMIT]
        tip = self._blocks[-1]
        block = Block(
            height=tip.height + 1,
            timestamp=format_ts(GENESIS_EPOCH + 60 * (tip.height + 1)),
            prev_hash=tip.block_hash,
            transactions=[tx for tx, _ in cut],
        )
        self._publish_block(block)
        del self._pending[:len(cut)]
        effects = [effect for _, effect in cut]
        self._blocks.append(block)
        self._effects.append(effects)
        held = _held_writes(block, effects)
        for index, ((writes, _), slices) in enumerate(zip(effects, held)):
            for key, value in slices.items():
                if type(value) is list and self._state.get(key) is writes[key]:  # not written again since
                    self._state[key] = (block.height, index, *value)
        data = _journal_bytes(block, self._journal_binding, effects, held)
        self._pins.append(digest_hex(data) if _publish(self._journal_path(block.height), data) else None)
        return block

    def cut_all(self) -> List[Block]:
        """Cut every pending transaction; then, when nothing is pending, no
        damage is known and the blocks above the last savepoint hold
        ``_DELTA_MIN_TXS`` transactions or more, write a savepoint at the tip:
        a full one when this ledger used or wrote none, or the blocks above the
        last full one hold ``_SAVEPOINT_MIN_TXS`` or more; else a delta on it,
        whose write is bounded by the keys written since the full one."""
        out = []
        while True:
            block = self.cut_block()
            if block is None:
                break
            out.append(block)
        if self.height > self._saved_height and not self._pending and self._damage is None:
            if self._next_sequence - self._saved_sequence >= _DELTA_MIN_TXS:
                full = self._full is None or self._next_sequence - self._full[1] >= _SAVEPOINT_MIN_TXS
                self._write_savepoint(full)
        return out

    def _write_savepoint(self, full: bool) -> None:
        """Publish the committed state as a full savepoint at the tip, or the
        keys written since the last full one as a delta on it (see the module
        docstring); a savepoint that could not be written is left to a later
        cut. A full one removes the delta on the one before."""
        if full:
            written: set = set()
            content = {
                "binding": self._journal_binding,
                "members": self._members(),
                "journals": self._pins,
                "state": _saved_values(self._state.items()),
            }
        else:
            written = self._written_since_full.union(*(
                writes for effects in self._effects[self._saved_height + 1:] for writes, _ in effects
            ))
            content = {
                "base": self._full[2],
                "journals": self._pins[self._full[0] + 1:],
                "state": _saved_values((key, self._state[key]) for key in written),
            }
        content.update(height=self.height, block_hash=self.tip_hash, next_sequence=self._next_sequence)
        # canonical_json's bytes for text, ints, None and lists; a third of its time
        body = json.dumps(content, sort_keys=True, separators=(",", ":")).encode("ascii")
        data = _journal_file(body)
        if not _publish(self.savepoint_path if full else self.delta_path, data):
            return
        if full:
            self._full = (self.height, self._next_sequence, data[-66:-2].decode("ascii"))
            with contextlib.suppress(OSError):
                self.delta_path.unlink()
        self._saved_height, self._saved_sequence, self._written_since_full = self.height, self._next_sequence, written

    # -- queries ------------------------------------------------------------

    @property
    def height(self) -> int:
        return self._blocks[-1].height if self._blocks else -1

    @property
    def tip_hash(self) -> str:
        return self._blocks[-1].block_hash if self._blocks else ZERO_HASH_HEX

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def transaction_count(self) -> int:
        """How many transactions this chain has taken, committed or pending:
        the sequence number the next one gets."""
        return self._next_sequence

    def blocks(self) -> List[Block]:
        return list(self._all_blocks())

    @property
    def damage(self) -> Optional[Tuple[int, str]]:
        """(height, why) of the lowest damage that opening, a read or
        ``verify_chain`` found, or None; no file is read."""
        return self._damage

    def get_transaction(self, tx_id: str) -> Transaction:
        if tx_id not in self._tx_index:
            self._all_blocks()
        return self._tx_index[tx_id]

    def query_state(self, key: str) -> Optional[bytes]:
        return self.state_view().get(key)

    def state_view(self) -> StateView:
        return StateView(self._state, self._value)

    def state_items(self, prefix: str = "") -> Dict[str, bytes]:
        keys = sorted(k for k in self._state if k.startswith(prefix))
        return {k: self._value(self._state[k]) for k in keys}

    def get_history(self, key: str) -> List[Transaction]:
        """The transactions whose effect touched ``key``: the committed ones in
        chain order, then the pending ones in submission order."""
        self._read_pinned()
        if any(effects is None for effects in self._effects):  # a block up to the savepoint without its journal
            self._replay()
        blocks, effects = self._all_blocks(), self._effects
        committed = [pair for block, applied in zip(blocks, effects) for pair in zip(block.transactions, applied)]
        return [tx for tx, (_, touched) in committed + self._pending for k in touched if k == key]

    def state_digest(self) -> str:
        return self._state_digest(self._state)

    def _state_digest(self, state) -> str:
        values = {k: base64.b64encode(self._value(v)).decode("ascii") for k, v in state.items()}
        return digest_hex(canonical_json(values))

    def _value(self, value) -> bytes:
        """A stored value's bytes: a slice value (see ``_value_from_journal``)
        is cut from its payload, which is decoded on first read, of a block
        parsed on first read. ChainDamaged, marked at the slice's height, when
        that payload is not base64 or that block's file changed since the
        open: no read returns other bytes."""
        if type(value) is tuple:
            height, index, offset, length = value
            txs = self._block(height).transactions
            if index >= len(txs):  # only a savepoint's slices are not checked against their blocks at open
                saved = self._savepoint if height <= self._savepoint.height else self._delta or self._savepoint
                raise self._damaged(saved.height, "savepoint holds a slice of no transaction")
            return self._payload(txs[index], height)[offset:offset + length]
        return value

    def _payload(self, tx: Transaction, height: int) -> bytes:
        """``tx.payload``, of the block at ``height``; ChainDamaged, marked at
        that height, when it is not base64."""
        try:
            return tx.payload
        except ValueError:
            raise self._damaged(height, f"tx {tx.tx_id[:16]} holds a payload that is not base64") from None

    def _block(self, height: int) -> Block:
        """The block at ``height``; one the open only checked is parsed now,
        from a file that must still hash to the hash the open saw, else
        ChainDamaged, marked at that height."""
        block = self._blocks[height]
        if type(block) is Block:
            return block
        raw = _file_bytes(str(self._block_path(height)))
        parsed = _parse_block(raw, height) if raw is not None and _file_hash(raw) == block.block_hash else None
        if parsed is None or parsed.block_hash != block.block_hash:  # a second "block_hash" key parses last
            raise self._damaged(height, "block file changed since the open")
        self._blocks[height] = parsed
        return parsed

    def _all_blocks(self) -> List[Block]:
        """Every block, the ones the open only checked parsed now (``_block``);
        the transactions of all then enter the index."""
        if self._unindexed:
            with gc_paused():  # as in the open
                for height, block in enumerate(self._blocks):
                    if type(block) is _Head:
                        self._block(height)
            # in chain order, then the pending ones: as an open that parsed every block indexes them
            self._tx_index = {tx.tx_id: tx for block in self._blocks for tx in block.transactions}
            self._tx_index.update((tx.tx_id, tx) for tx, _ in self._pending)
            self._unindexed = False
        return self._blocks

    def _read_pinned(self) -> None:
        """Take the effects of each block up to the savepoint from its journal,
        when the file still has the SHA-256 the savepoint pins and the journal
        is usable (``_journal_of``); the others stay None, for the
        re-execution to fill. Once per Ledger."""
        if not self._savepoint_unread:
            return
        blocks = self._all_blocks()[:(self._delta or self._savepoint).height + 1]
        with gc_paused():  # as in the open
            for block in blocks:
                if self._effects[block.height] is None:
                    digest, _, effects = self._journal_of(block)
                    self._effects[block.height] = effects if digest == self._pins[block.height] else None
        self._savepoint_unread = False

    # -- verification and replay --------------------------------------------

    def verify_chain(self) -> Optional[int]:
        """Re-execute every committed transaction; check the fields of each
        block where it is re-executed (``_well_formed``: ``params`` only on
        the genesis, and each transaction's payload digest, id, member
        submitter and endorsement), then every link; check that each block
        file's bytes still carry, and hash to, the hash of the block this
        ledger loaded at that height. Each block file is read once: the ones
        the open did not parse are parsed during the re-execution, from bytes
        checked as they are read (``_block``), and not read again; every
        other is read after it.

        Returns None when consistent, else the lowest of: the first bad height,
        the height at which opening or a read found the chain damaged, the
        first height whose re-execution disagrees with the block's records or
        with the journal the open applied, and the height of a savepoint the
        open used, full or delta, when every block replays clean and the state
        replayed to it is not the state it holds (``_check_savepoint``). The last two also mark the chain damaged,
        so appends are refused from then on.

        A re-execution of ``_SPLIT_MIN_TXS`` transactions or more is split
        into one contiguous part per usable CPU. Each part after the first
        is re-executed in a forked process, from the effects the open applied
        for the blocks before it. When every part before it is clean, those
        effects are the ones the blocks replay to. So by induction a clean
        part's process started from the true state, and its applied effects
        are taken instead of re-executing or checking it here. From the
        first part that is not clean, every block is re-executed and checked
        here, in order. The result, the damage marked and the replayed state
        are those of a re-execution in order, and so is an exception raised. Every forked process is
        reaped before this returns or raises. Call it from a process that
        runs no other thread: a fork copies no thread, and a lock another
        thread held stays locked in the child.
        """
        read = {height for height, block in enumerate(self._blocks) if type(block) is _Head}
        try:
            _, found, bad = self._replay()  # parses every block, each of ``read`` from a file checked as it is read
        except ChainDamaged:  # a block file changed since the open, or a savepoint slice of no transaction: marked
            return self._damage[0]
        self._mark(found)
        damaged = self._damage[0] if self._damage else None
        lowest = min((h for h in (damaged, bad) if h is not None), default=None)
        prev_hash = ZERO_HASH_HEX
        for block in self._blocks:
            height = block.height
            if height == lowest or block.prev_hash != prev_hash:
                return height
            if height not in read:
                raw = _file_bytes(str(self._block_path(height)))
                if raw is None or _file_hash(raw) != block.block_hash:
                    return height
            prev_hash = block.block_hash
        return lowest

    def rebuilt_state_digest(self) -> str:
        """Replay oracle: the state digest of re-executing the committed chain from genesis."""
        return self._state_digest(self._replay()[0])

    def _replay(self):
        """Re-execute the loaded blocks into a fresh state.

        Also returns the first (height, why) at which a transaction cannot
        run or replays to another (status, reason) than the one recorded, or
        to another effect than the ledger applied (``_effects``), or at which
        the replayed state is not the one a savepoint the open used holds; and the
        first height whose block ran clean but is not ``_well_formed``, or
        None (blocks are checked until a run marks damage). A block
        whose applied effects are unknown takes the ones it replays to.
        Blocks are re-executed once per Ledger; later calls run only blocks
        cut since. The state replayed so far is kept, with its height, only
        when every block ran: an exception leaves it as it was.

        A part whose forked check (``_part_checks``) passed, after blocks that
        all replayed clean, is not re-executed or checked here: its applied
        effects are applied instead. See the module docstring.
        """
        self._read_pinned()
        height, state, damage, bad = self._replayed
        state = dict(state)
        blocks = self._all_blocks()[height + 1:]
        with self._part_checks(blocks, state) as checks:
            marked, i = self._damage, 0
            while i < len(blocks):
                stop, check = checks.pop(i, (None, None))
                if check is not None:
                    if check.join() == (True, True):
                        for block in blocks[i:stop]:
                            _apply(state, self._effects[block.height])
                            damage = damage or self._check_savepoint(block.height, state)
                        i = stop
                        continue
                    _stop(checks)
                block = blocks[i]
                effects, found = self._run_block(block, state, self._effects[block.height])
                if self._effects[block.height] is None:
                    self._effects[block.height] = effects
                damage = damage or found or self._check_savepoint(block.height, state)
                if found or self._damage != marked:  # later checks started from effects this block does not replay to
                    _stop(checks)
                elif bad is None and not self._well_formed(block):
                    bad = block.height
                i += 1
        self._replayed = (self.height, state, damage, bad)
        return state, damage, bad

    def _check_savepoint(self, height: int, state) -> Optional[Tuple[int, str]]:
        """(height, why) when ``height`` is that of a savepoint the open used
        and ``state``, replayed up to it, holds other values; else None. At
        the full savepoint every key is compared. At the delta only the keys
        that the blocks between the two write are: the delta must hold each
        of them, and no other key."""
        full, delta = self._savepoint, self._delta
        if full is not None and height == full.height:
            saved, keys = full.state, state.keys()
        elif delta is not None and height == delta.height:
            saved = delta.state
            keys = set().union(*(writes for h in range(full.height + 1, height + 1) for writes, _ in self._effects[h]))
        else:
            return None
        same = saved.keys() == keys and all(
            value == state[k] or self._value(value) == self._value(state[k]) for k, value in saved.items()
        )
        return None if same else (height, "savepoint holds other state than its blocks replay to")

    @contextlib.contextmanager
    def _part_checks(self, blocks: List[Block], state):
        """Split ``blocks`` into one contiguous part per usable CPU, of about
        equal transaction counts, and fork a process (``_check_part``) for each
        part after the first; yield {index of a part's first block: (index past
        its last block, its process)}. Nothing is forked, and {} yielded, when
        the blocks hold fewer than ``_SPLIT_MIN_TXS`` transactions, one CPU is
        usable or there is no fork; a failed fork, or a part up to which a
        block's applied effects are unknown, leaves its part and the later ones
        without a process. On exit each process is killed, if it still runs,
        and reaped."""
        cpus = usable_cpus()
        split = cpus > 1 and sum(len(block.transactions) for block in blocks) >= _SPLIT_MIN_TXS
        known = next((i for i, block in enumerate(blocks) if self._effects[block.height] is None), len(blocks))
        started: Dict[int, Tuple[int, Forked]] = {}
        try:
            for start, stop in _later_parts(blocks, cpus) if split else ():
                if stop > known:
                    break
                try:
                    check = Forked(self._check_part, blocks[:start], blocks[start:stop], state)
                except (ValueError, OSError):  # no fork here, or no process to be had
                    break
                started[start] = (stop, check)
            yield dict(started)
        finally:
            _stop(started)

    def _check_part(self, before: List[Block], part: List[Block], state) -> bool:
        """In a forked process: whether every block of ``part``, re-executed
        from ``state`` plus the effects the open applied for ``before``,
        replays to its records and to the effects the open applied, with no
        damage marked, and is well formed (``_well_formed``). The process's
        copy of this ledger and of ``state`` is changed freely."""
        _apply(state, (effect for block in before for effect in self._effects[block.height]))
        marked = self._damage
        for block in part:
            if self._run_block(block, state, self._effects[block.height])[1] is not None:
                return False
            if self._damage != marked or not self._well_formed(block):
                return False
        return True

    def _well_formed(self, block: Block) -> bool:
        """Whether ``block`` carries ``params`` only as the genesis, which holds
        no transaction, and each of its transactions the digest of its payload,
        its id and the endorsement of a member. Reads every payload: call it on
        a block whose transactions all ran."""
        if block.transactions if block.height == 0 else block.params is not None:
            return False
        for tx in block.transactions:
            identity = self.identities.get(tx.submitter)
            if identity is None or tx.payload_digest != digest_hex(tx.payload):
                return False
            if tx.tx_id != _tx_id(tx.payload, tx.submitter, tx.sequence):
                return False
            if tx.endorsement != _endorse(identity.key_id, tx.payload_digest):
                return False
        return True

    def _run_block(self, block: Block, state, applied: Optional[List[Effect]] = None):
        """Execute ``block``'s transactions on ``state``: their effects (none for one that
        cannot run), and the first (height, why) at which one cannot run, or replays to
        another (status, reason) than recorded or another effect than ``applied``, or None."""
        effects: List[Effect] = [({}, ())] * len(block.transactions)
        damage = None
        for i, tx in enumerate(block.transactions):
            identity = self.identities.get(tx.submitter)
            if identity is None:
                damage = damage or f"unknown submitter {tx.submitter!r}"
                continue
            try:
                result = self._execute(self._payload(tx, block.height), identity, state)
            except ChainDamaged:  # its payload, or one a value it read is cut from, is not base64: marked
                damage = damage or f"tx {tx.tx_id[:16]} reads a payload that is not base64"
                continue
            effects[i] = _effect(result)
            if result.valid != (tx.status == VALID) or result.reason != tx.reason:
                replayed = f"{_status(result)} ({result.reason})"
                damage = damage or f"tx {tx.tx_id[:16]} replays {replayed}, recorded {tx.status} ({tx.reason})"
            elif applied is not None:
                writes, touched = applied[i]
                if effects[i] != ({k: self._value(v) for k, v in writes.items()}, touched):
                    damage = damage or f"tx {tx.tx_id[:16]} replays other writes than its journal holds"
        return effects, (None if damage is None else (block.height, damage))

    # -- persistence --------------------------------------------------------

    def _publish_block(self, block: Block) -> None:
        """Seal ``block`` and publish its file, never over a file at its height
        (``write_new``): HeightTaken when one is there."""
        path = self._block_path(block.height)
        try:
            write_new(path, _seal(block))
        except FileExistsError:
            raise HeightTaken(
                f"block {block.height} already exists at {path}: another writer appended to the chain "
                "since it was opened; nothing was written"
            ) from None

    def _block_path(self, height: int) -> Path:
        return self.blocks_dir / f"{height}.json"

    def _journal_path(self, height: int) -> Path:
        return self.writes_dir / f"{height}.json"

    @cached_property
    def _journal_binding(self) -> str:
        """What a journal is bound to besides its block: the contract version and
        the digest of the genesis content as read, which records the contract's
        parameters; a genesis edited in place binds no journal written before."""
        return _binding(self.version, self._blocks[0])

    def _write_genesis(self, params: Optional[str]):
        genesis = Block(
            height=0,
            timestamp=format_ts(GENESIS_EPOCH),
            prev_hash=ZERO_HASH_HEX,
            transactions=[],
            params=params,
        )
        self._publish_block(genesis)
        self._blocks.append(genesis)
        self._effects.append([])
        self._pins.append(None)

    def _load(self, params: Optional[str]):
        """Load the chain: from its savepoint when the open can use it
        (``_load_savepoint``), else every block file (``_load_blocks``). The
        tip's payloads are decoded now."""
        heights = _heights(self.blocks_dir)
        if not heights:
            self._write_genesis(params)
            return
        if not self._load_savepoint(max(heights)):
            self._load_blocks(range(max(heights) + 1), ZERO_HASH_HEX)
        if self._blocks:
            with contextlib.suppress(ChainDamaged):  # no block above pins the tip's bytes
                tip = self._block(self.height)
                for tx in tip.transactions:
                    self._payload(tx, tip.height)

    def _load_blocks(self, heights: range, prev_hash: str) -> None:
        """Load the block files at ``heights``, checking each file's bytes
        against the hash they carry and its ``prev_hash`` against the block
        below, whose hash is ``prev_hash`` for the first; apply each block's
        journal or re-execute it. Payloads stay base64 text, except those of
        re-executed blocks, which are decoded now."""
        for height in heights:
            read = _read_block(self._block_path(height))
            if read is None:
                # load the readable prefix only; nothing is appended past it
                self._mark((height, "block file missing or unreadable"))
                break
            raw, block = read
            self._blocks.append(block)
            self._index(block)
            found = None
            hashed = _file_hash(raw)
            if hashed is None or hashed != block.block_hash:
                found = (height, "block file does not hash to the block_hash it carries")
            elif block.prev_hash != prev_hash:
                found = (height, f"prev_hash is not the hash of block {height - 1}")
            self._mark(self._open_block(block) or found)  # a replay's finding says more
            prev_hash = block.block_hash

    def _index(self, block: Block) -> None:
        for tx in block.transactions:
            self._tx_index[tx.tx_id] = tx
            self._next_sequence = max(self._next_sequence, tx.sequence + 1)

    def _load_savepoint(self, top: int) -> bool:
        """Load the chain from the full savepoint at height S when its body
        digest, the hash of the block at S, the journal binding, the members
        and the SHA-256 of every journal file up to S are as it holds: the
        state it holds is then the one loading every block file gives. With
        it, the delta on it at height D when that delta is bound to this full
        savepoint's body and the hash of the block at D and the SHA-256 of
        every journal file above S up to D are as it holds; else the full
        savepoint alone, to D = S. Every block file up to D is still read,
        checked against the hash it carries and linked to the block below;
        only the genesis and the tip are parsed there. The blocks above D are
        loaded as ``_load_blocks`` loads them. False, having loaded nothing,
        when the full savepoint is missing or cannot be used, or a block file
        up to D fails its check."""
        saved = _read_savepoint(self.savepoint_path)
        if saved is None or saved.height > top:
            return False
        delta = _read_savepoint(self.delta_path, saved.height)
        if delta is not None and (delta.height > top or delta.bound != {"base": saved.digest}):
            delta = None
        blocks = self._checked_heads((delta or saved).height, top)
        if blocks is None or blocks[saved.height].block_hash != saved.block_hash:
            return False
        if saved.bound != {"binding": _binding(self.version, blocks[0]), "members": self._members()}:
            return False
        if not self._pins_hold(saved.journals, 0):
            return False
        if delta is not None and (
            blocks[-1].block_hash != delta.block_hash or not self._pins_hold(delta.journals, saved.height + 1)
        ):
            delta, blocks = None, blocks[:saved.height + 1]
        last = delta or saved
        self._blocks, self._pins = blocks, saved.journals + (delta.journals if delta else [])
        self._effects = [[] if type(block) is Block and not block.transactions else None for block in blocks]
        for block in blocks:
            if type(block) is Block:
                self._index(block)
        self._next_sequence = max(self._next_sequence, last.next_sequence)
        self._state = dict(saved.state)
        self._state.update(delta.state if delta else ())
        self._savepoint, self._delta = saved, delta
        self._full = (saved.height, saved.next_sequence, saved.digest)
        self._saved_height, self._saved_sequence = last.height, last.next_sequence
        self._written_since_full = set(delta.state if delta else ())
        self._savepoint_unread = self._unindexed = True
        self._load_blocks(range(last.height + 1, top + 1), last.block_hash)
        return True

    def _pins_hold(self, pins: list, first: int) -> bool:
        """Whether each journal file from height ``first`` up has the SHA-256
        ``pins`` holds for it, or is missing where it holds None."""
        writes = f"{self.writes_dir}{os.sep}"
        for height, pin in enumerate(pins, first):
            raw = _file_bytes(f"{writes}{height}.json")
            if (raw if raw is None else digest_hex(raw)) != pin:
                return False
        return True

    def _checked_heads(self, last: int, top: int) -> Optional[List[Union[Block, _Head]]]:
        """The blocks at heights 0 to ``last``, each file's bytes hashing to the
        hash they carry and linked to the block below: a ``_Head``, or a parsed
        block for the genesis, the tip ``top`` and a file whose head is not in
        ``_seal``'s layout. None at the first file that is missing, unreadable
        or fails its check."""
        out: List[Union[Block, _Head]] = []
        prev_hash, blocks = ZERO_HASH_HEX, f"{self.blocks_dir}{os.sep}"
        for height in range(last + 1):
            raw = _file_bytes(f"{blocks}{height}.json")
            hashed = None if raw is None else _file_hash(raw)
            if hashed is None:
                return None
            head = _HEAD.match(raw) if 0 < height < top else None
            if head is not None and int(head[1]) == height:
                block, linked = _Head(height, hashed), head[2].decode("ascii")
            else:
                parsed = _parse_block(raw, height)
                if parsed is None or parsed.block_hash != hashed:
                    return None
                block, linked = parsed, parsed.prev_hash
            if linked != prev_hash:
                return None
            out.append(block)
            prev_hash = hashed
        return out

    def _open_block(self, block: Block):
        """Apply ``block`` to the open's state from its journal when the journal is
        usable and every submitter is known, else re-execute it; record its effects.
        Returns the first (height, why) that damages the chain, or None."""
        digest, disagrees, effects = self._journal_of(block)
        self._pins.append(digest)
        damage = None
        if effects is not None:
            _apply(self._state, effects)
        else:
            effects, damage = self._run_block(block, self._state)
            if damage is None and disagrees:
                damage = (block.height, "block records disagree with its write-set journal")
        self._effects.append(effects)
        return damage

    def _journal_of(self, block: Block):
        """(the SHA-256 of ``block``'s journal file, or None when it has no
        transactions or the file cannot be read; whether the journal is usable
        but disagrees with the block's records; the effects it holds when it
        is usable and agrees and every submitter is a member, [] for a block
        without transactions, else None)."""
        if not block.transactions:
            return None, False, []
        raw = _file_bytes(str(self._journal_path(block.height)))
        if raw is None:
            return None, False, None
        journal = _read_journal(raw, block, self._journal_binding)
        records = [(tx.tx_id, tx.status, tx.reason) for tx in block.transactions]
        if journal is None or journal[0] != records:
            return digest_hex(raw), journal is not None, None
        members = all(tx.submitter in self.identities for tx in block.transactions)
        return digest_hex(raw), False, journal[1] if members else None


def _apply(state, effects: Iterable[Effect]) -> None:
    """Apply the writes of ``effects`` to ``state``, in order."""
    for writes, _ in effects:
        state.update(writes)


def _later_parts(blocks: List[Block], parts: int) -> List[Tuple[int, int]]:
    """(index of its first block, index past its last) of each part but the
    first, when ``blocks`` is split into at most ``parts`` contiguous parts of
    about equal transaction counts."""
    total, done, edges = sum(len(block.transactions) for block in blocks), 0, []
    for i, block in enumerate(blocks[:-1]):
        done += len(block.transactions)
        if len(edges) < parts - 1 and done * parts >= total * (len(edges) + 1):
            edges.append(i + 1)
    return list(zip(edges, edges[1:] + [len(blocks)]))


def _stop(checks) -> None:
    """Kill the processes of ``checks`` (see ``Ledger._part_checks``) that still
    run, reap them all and empty ``checks``."""
    for _, check in checks.values():
        check.stop()
    checks.clear()


def _status(result: ChainResult) -> str:
    return VALID if result.valid else INVALID


def _heights(blocks_dir: Path) -> List[int]:
    """The heights of the block files in ``blocks_dir``; only names ``_block_path``
    writes count: "007.json" or a non-ASCII digit is a stray file. A missing
    or unreadable directory holds none."""
    try:
        names = os.listdir(blocks_dir)
    except OSError:
        return []
    stems = (name[:-5] for name in names if name.endswith(".json"))
    return [int(stem) for stem in stems if stem.isascii() and stem.isdigit() and (stem == "0" or stem[0] != "0")]


def read_genesis(root) -> Optional[Block]:
    """The genesis block of the chain at ``root``; None when its file is missing
    or unreadable, so that an open finds the chain damaged at height 0.
    Raises NoChain, creating nothing, when ``root`` holds no block file."""
    path = Path(root) / "blocks" / "0.json"
    read = _read_block(path)
    if read is None and not _heights(path.parent):
        raise NoChain(f"no chain at {root}")
    return None if read is None else read[1]


def _read_block(path: Path) -> Optional[Tuple[bytes, Block]]:
    """A block file's bytes and parsed block; None when missing or unreadable."""
    raw = _file_bytes(str(path))
    if raw is None:
        return None
    block = _parse_block(raw, int(path.stem))
    return None if block is None else (raw, block)


def _parse_block(raw: bytes, height: int) -> Optional[Block]:
    """The block the file bytes ``raw`` of the block at ``height`` hold; None when unreadable."""
    try:
        block = _block_from_dict(json.loads(raw.decode("utf-8")))
    except (ValueError, KeyError, TypeError):
        return None
    return block if block.height == height else None


def _binding(version: str, genesis: Block) -> str:
    """See ``Ledger._journal_binding``."""
    return f"{version}:{digest_hex(_block_content(genesis))}"


def _block_from_dict(content: dict) -> Block:
    """The block a parsed block file holds; payloads stay base64 text."""
    txs = [
        Transaction(
            sequence=t["sequence"],
            tx_id=t["tx_id"],
            payload=_base64_text(t["payload_b64"]),
            payload_digest=t["payload_digest"],
            submitter=t["submitter"],
            endorsement=t["endorsement"],
            status=t["status"],
            reason=t["reason"],
        )
        for t in content["transactions"]
    ]
    params = content.get("params")
    if params is not None and not isinstance(params, str):
        raise TypeError("a block's params must be a string")
    if not isinstance(content["block_hash"], str) or not isinstance(content["prev_hash"], str):
        raise TypeError("a block's block_hash and prev_hash must be strings")
    return Block(
        height=content["height"],
        timestamp=content["timestamp"],
        prev_hash=content["prev_hash"],
        transactions=txs,
        block_hash=content["block_hash"],
        params=params,
    )


def _base64_text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("a payload must be base64 text")
    return value
