"""Permissioned-ledger emulation: identities, ordering, hash-chained blocks.

One ordering context serializes all submissions. Chaincode validation runs
at submission time; invalid transactions are recorded with their reason
rather than dropped, so the full history stays auditable. Only the
identities a ledger is opened with may submit.

Persistence: ``blocks/<height>.json`` (canonical JSON, payloads base64),
each written whole (temp file, fsync, rename). block_hash covers the entire
block content except the block_hash field itself. A block file opens with
``{"block_hash":"<hex>",`` and the rest of its bytes, after ``{``, is the
hashed content, so a file's bytes are checked against the hash they carry
without re-serializing the block. The open checks every file so, and every
block's ``prev_hash`` against the block below: any byte changed in a block
file, or a block resealed below the tip, is damage at open. Only a run of
blocks resealed up to the tip passes; a changed status is then found by the
re-execution, and a payload that is not base64 when it is read. Payloads
stay base64 text until first read, except the tip's and those of blocks the
open re-executes. ``verify_chain`` checks that each file still hashes to the
block loaded at open and checks the loaded blocks; it parses no file.
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

A re-execution of ``_SPLIT_MIN_TXS`` transactions or more is split into one
contiguous part per usable CPU, of about equal transaction counts. This
process re-executes the first part; a forked process re-executes each later
part from the replayed state with the effects the open applied for every
block before the part, and exits 0 only when each block replays to its
records and its applied effects and no damage is marked. A part is clean
when it so replays. By induction, when every part before a part is clean its
applied effects are the ones it replays to, so the state the part's process
started from is the one a re-execution in order reaches: a clean part's
applied effects are applied instead of re-executing it. From the first part
that is not clean, or whose process did not exit 0, this process
re-executes every block in order, as it does a re-execution that is not
split. So the result, the damage found and the replayed state are those of a
re-execution in order. ``verify_chain`` forks: call it from a process that
runs no other thread.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .model import (
    ZERO_HASH_HEX,
    Identity,
    Role,
    canonical_json,
    digest_hex,
    format_ts,
    gc_paused,
    parse_ts,
    usable_cpus,
    write_atomic,
)

BLOCK_TX_LIMIT = 12
GENESIS_EPOCH = parse_ts("2025-01-01T00:00:00Z")

# A re-execution of this many transactions or more is split over the usable
# CPUs (``Ledger._part_checks``). On a 2-vCPU Xeon (Python 3.11.7), forking
# and reaping one process took about 3 ms in a 55 MB process and 25 ms in a
# 751 MB one, while a day's chain, about 290 transactions, re-executed in
# about 17 ms and a 30-day chain, 8,760, in 0.7-0.9 s.
_SPLIT_MIN_TXS = 1_000

VALID = "VALID"
INVALID = "INVALID"


class UnknownIdentity(KeyError):
    pass


class NoChain(ValueError):
    """The data root holds no block file: there is no chain to open."""


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

    @payload.setter
    def payload(self, value: bytes) -> None:
        self._payload = value

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
    computed = digest_hex(b"{" + raw[_FILE_HASH_END + 2:])
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


def _journal_bytes(block: Block, version: str, effects: List[Effect]) -> bytes:
    """A block's write-set journal file."""
    return _journal_file(canonical_json({
        "block_hash": block.block_hash,
        "version": version,
        "txs": [
            {
                "tx_id": tx.tx_id,
                "status": tx.status,
                "reason": tx.reason,
                "touched": list(touched),
                "writes": {k: _journal_value(v, tx.payload) for k, v in writes.items()},
            }
            for tx, (writes, touched) in zip(block.transactions, effects)
        ],
    }))


def _journal_file(body: bytes) -> bytes:
    """A journal's canonical body followed by the body's SHA-256; keys sort, as in a block file."""
    return _JOURNAL_HEAD + body + b',"sha256":' + canonical_json(digest_hex(body)) + b"}"


def _read_journal(path: Path, block: Block, version: str):
    """The (tx_id, status, reason) records and effects, one per transaction,
    of ``block``'s journal at ``path``; slices stay slice values. None
    when it is missing, torn, bound to another block, contract version or
    genesis, or holds a slice outside its payload."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    body = raw[len(_JOURNAL_HEAD):-_JOURNAL_TAIL]
    if raw != _journal_file(body):
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
        self.blocks_dir.mkdir(parents=True, exist_ok=True)
        self.identities: Dict[str, Identity] = {i.name: i for i in identities}
        self._state: Dict[str, object] = {}  # key -> bytes or a journal's slice value
        self._tx_index: Dict[str, Transaction] = {}
        self._pending: List[Tuple[Transaction, Effect]] = []
        self._blocks: List[Block] = []
        self._effects: List[List[Effect]] = []  # per height: each transaction's effect as applied
        self._next_sequence = 0
        self._damage: Optional[Tuple[int, str]] = None  # (first bad height, why)
        self._replayed = (-1, {}, None)  # _replay's (height, state, damage) so far
        with gc_paused():  # a container per parsed value and transaction, none of them cyclic garbage
            self._load(params)

    # -- membership ---------------------------------------------------------

    def get_identity(self, name: str) -> Identity:
        try:
            return self.identities[name]
        except KeyError:
            raise UnknownIdentity(name) from None

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
        The transactions stay pending until their block file is written."""
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
        write_atomic(self._block_path(block.height), _seal(block))
        del self._pending[:len(cut)]
        self._blocks.append(block)
        self._effects.append([effect for _, effect in cut])
        self._write_journal(block, self._effects[-1])
        return block

    def _write_journal(self, block: Block, effects: List[Effect]) -> None:
        """Publish ``block``'s journal by rename, without fsync: a journal is
        checked on use, so one lost or torn in a crash, or never written for
        want of space, only makes the next open re-execute the block."""
        path = self._journal_path(block.height)
        tmp = f"{path}.tmp"
        try:
            self.writes_dir.mkdir(exist_ok=True)
            with open(tmp, "wb") as f:
                f.write(_journal_bytes(block, self._journal_binding, effects))
            os.replace(tmp, path)
        except OSError:
            pass

    def cut_all(self) -> List[Block]:
        out = []
        while True:
            block = self.cut_block()
            if block is None:
                return out
            out.append(block)

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

    def blocks(self) -> List[Block]:
        return list(self._blocks)

    @property
    def damage(self) -> Optional[Tuple[int, str]]:
        """(height, why) of the lowest damage that opening, a read or
        ``verify_chain`` found, or None; no file is read."""
        return self._damage

    def get_transaction(self, tx_id: str) -> Transaction:
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
        committed = [pair for block, effects in zip(self._blocks, self._effects) for pair in zip(block.transactions, effects)]
        return [tx for tx, (_, touched) in committed + self._pending for k in touched if k == key]

    def state_digest(self) -> str:
        return self._state_digest(self._state)

    def _state_digest(self, state) -> str:
        values = {k: base64.b64encode(self._value(v)).decode("ascii") for k, v in state.items()}
        return digest_hex(canonical_json(values))

    def _value(self, value) -> bytes:
        """A stored value's bytes: a slice value (see ``_value_from_journal``)
        is cut from its payload, which is decoded on first read. ChainDamaged,
        marked at the slice's height, when that payload is not base64: no read
        returns other bytes."""
        if type(value) is tuple:
            height, index, offset, length = value
            return self._payload(self._blocks[height].transactions[index], height)[offset:offset + length]
        return value

    def _payload(self, tx: Transaction, height: int) -> bytes:
        """``tx.payload``, of the block at ``height``; ChainDamaged, marked at
        that height, when it is not base64."""
        try:
            return tx.payload
        except ValueError:
            why = f"tx {tx.tx_id[:16]} holds a payload that is not base64"
            self._mark((height, why))
            raise ChainDamaged(f"chain damaged at height {height}: {why}") from None

    # -- verification and replay --------------------------------------------

    def verify_chain(self) -> Optional[int]:
        """Check that every block file's bytes still carry, and hash to, the
        hash of the block this ledger loaded at that height; check every
        linkage, payload digest, transaction id and endorsement of the loaded
        blocks, and re-execute every committed transaction. No block file is
        parsed: the loaded blocks are the files' content.

        Returns None when consistent, else the lowest of: the first bad height,
        the height at which opening or a read found the chain damaged, and the
        first height whose re-execution disagrees with the block's records or
        with the journal the open applied. The last also marks the chain
        damaged, so appends are refused from then on.

        A re-execution of ``_SPLIT_MIN_TXS`` transactions or more is split
        into one contiguous part per usable CPU. Each part after the first
        is re-executed in a forked process, from the effects the open applied
        for the blocks before it. When every part before it is clean, those
        effects are the ones the blocks replay to. So by induction a clean
        part's process started from the true state, and its applied effects
        are taken instead of re-executing it here. From the first part that
        is not clean, every block is re-executed here, in order. The result,
        the damage marked and the replayed state are those of a re-execution
        in order, and so is an exception raised. Every forked process is
        reaped before this returns or raises. Call it from a process that
        runs no other thread: a fork copies no thread, and a lock another
        thread held stays locked in the child.
        """
        self._mark(self._replay()[1])
        damaged = self._damage[0] if self._damage else None
        prev_hash = ZERO_HASH_HEX
        for block in self._blocks:
            height = block.height
            if height == damaged:
                return height
            try:
                hashed = _file_hash(self._block_path(height).read_bytes())
            except OSError:
                return height
            if hashed is None or hashed != block.block_hash:
                return height
            if block.prev_hash != prev_hash:
                return height
            if (block.transactions if height == 0 else block.params is not None):
                return height
            for tx in block.transactions:
                if tx.payload_digest != digest_hex(tx.payload):
                    return height
                if tx.tx_id != _tx_id(tx.payload, tx.submitter, tx.sequence):
                    return height
                identity = self.identities.get(tx.submitter)
                if identity is None:
                    return height
                if tx.endorsement != _endorse(identity.key_id, tx.payload_digest):
                    return height
            prev_hash = block.block_hash
        return damaged

    def rebuilt_state_digest(self) -> str:
        """Replay oracle: the state digest of re-executing the committed chain from genesis."""
        return self._state_digest(self._replay()[0])

    def _replay(self):
        """Re-execute the loaded blocks into a fresh state.

        Also returns the first (height, why) at which a transaction cannot
        run or replays to another (status, reason) than the one recorded, or
        to another effect than the ledger applied (``_effects``).
        Blocks are re-executed once per Ledger; later calls run only blocks
        cut since.

        A part whose forked check (``_part_checks``) passed, after blocks that
        all replayed clean, is not re-executed here: its applied effects are
        applied instead. See the module docstring.
        """
        height, state, damage = self._replayed
        blocks = self._blocks[height + 1:]
        with self._part_checks(blocks, state) as checks:
            marked, i = self._damage, 0
            while i < len(blocks):
                stop, check = checks.pop(i, (None, None))
                if check is not None:
                    check.join()
                    if check.exitcode == 0:
                        _apply(state, (effect for block in blocks[i:stop] for effect in self._effects[block.height]))
                        i = stop
                        continue
                    _stop(checks)
                found = self._run_block(blocks[i], state, self._effects[blocks[i].height])[1]
                damage = damage or found
                if found or self._damage != marked:  # later checks started from effects this block does not replay to
                    _stop(checks)
                i += 1
        self._replayed = (self.height, state, damage)
        return state, damage

    @contextlib.contextmanager
    def _part_checks(self, blocks: List[Block], state):
        """Split ``blocks`` into one contiguous part per usable CPU, of about
        equal transaction counts, and fork a process (``_check_part``) for each
        part after the first; yield {index of a part's first block: (index past
        its last block, its process)}. Nothing is forked, and {} yielded, when
        the blocks hold fewer than ``_SPLIT_MIN_TXS`` transactions, one CPU is
        usable or there is no fork; a failed fork leaves its part and the
        later ones without a process. On exit each process is killed, if it
        still runs, and reaped."""
        cpus = usable_cpus()
        split = cpus > 1 and sum(len(block.transactions) for block in blocks) >= _SPLIT_MIN_TXS
        started: Dict[int, Tuple[int, object]] = {}
        try:
            for start, stop in _later_parts(blocks, cpus) if split else ():
                try:
                    part = (blocks[:start], blocks[start:stop], state)
                    check = _fork_context().Process(target=self._check_part, args=part)
                    check.start()
                except (ValueError, OSError):  # no fork here, or no process to be had
                    break
                started[start] = (stop, check)
            yield dict(started)
        finally:
            _stop(started)

    def _check_part(self, before: List[Block], part: List[Block], state) -> None:
        """In a forked process: exit 0 when every block of ``part``, re-executed
        from ``state`` plus the effects the open applied for ``before``,
        replays to its records and to the effects the open applied, and no
        damage is marked; else exit 1. The process's copy of this ledger and of
        ``state`` is changed freely."""
        try:
            _apply(state, (effect for block in before for effect in self._effects[block.height]))
            marked = self._damage
            clean = all(self._run_block(block, state, self._effects[block.height])[1] is None for block in part)
            clean = clean and self._damage == marked
        except Exception:  # this process re-executes the part and raises it
            clean = False
        sys.exit(0 if clean else 1)

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

    def _block_path(self, height: int) -> Path:
        return self.blocks_dir / f"{height}.json"

    def _journal_path(self, height: int) -> Path:
        return self.writes_dir / f"{height}.json"

    @cached_property
    def _journal_binding(self) -> str:
        """What a journal is bound to besides its block: the contract version and
        the digest of the genesis content as read, which records the contract's
        parameters; a genesis edited in place binds no journal written before."""
        return f"{self.version}:{digest_hex(_block_content(self._blocks[0]))}"

    def _write_genesis(self, params: Optional[str]):
        genesis = Block(
            height=0,
            timestamp=format_ts(GENESIS_EPOCH),
            prev_hash=ZERO_HASH_HEX,
            transactions=[],
            params=params,
        )
        write_atomic(self._block_path(0), _seal(genesis))
        self._blocks.append(genesis)
        self._effects.append([])

    def _load(self, params: Optional[str]):
        """Load every block file, checking its bytes against the hash they
        carry and its ``prev_hash`` against the block below; apply each
        block's journal or re-execute it. Payloads stay base64 text, except
        the tip's and those of re-executed blocks, which are decoded now."""
        heights = _heights(self.blocks_dir)
        if not heights:
            self._write_genesis(params)
            return
        prev_hash = ZERO_HASH_HEX
        for height in range(max(heights) + 1):
            read = _read_block(self._block_path(height))
            if read is None:
                # load the readable prefix only; nothing is appended past it
                self._mark((height, "block file missing or unreadable"))
                break
            raw, block = read
            self._blocks.append(block)
            for tx in block.transactions:
                self._tx_index[tx.tx_id] = tx
                self._next_sequence = max(self._next_sequence, tx.sequence + 1)
            found = None
            hashed = _file_hash(raw)
            if hashed is None or hashed != block.block_hash:
                found = (height, "block file does not hash to the block_hash it carries")
            elif block.prev_hash != prev_hash:
                found = (height, f"prev_hash is not the hash of block {height - 1}")
            self._mark(self._open_block(block) or found)  # a replay's finding says more
            prev_hash = block.block_hash
        if self._blocks:
            tip = self._blocks[-1]
            with contextlib.suppress(ChainDamaged):  # no block above pins the tip's bytes
                for tx in tip.transactions:
                    self._payload(tx, tip.height)

    def _open_block(self, block: Block):
        """Apply ``block`` to the open's state from its journal when the journal is
        usable and every submitter is known, else re-execute it; record its effects.
        Returns the first (height, why) that damages the chain, or None."""
        journal = None
        if block.transactions:
            journal = _read_journal(self._journal_path(block.height), block, self._journal_binding)
        records = [(tx.tx_id, tx.status, tx.reason) for tx in block.transactions]
        agrees = journal is not None and journal[0] == records
        if agrees and all(tx.submitter in self.identities for tx in block.transactions):
            effects, damage = journal[1], None
            _apply(self._state, effects)
        else:
            effects, damage = self._run_block(block, self._state)
            if damage is None and journal is not None and not agrees:
                damage = (block.height, "block records disagree with its write-set journal")
        self._effects.append(effects)
        return damage


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


def _fork_context():
    """multiprocessing's fork context; ValueError where there is no fork. Imported
    here, so that a process that splits no re-execution does not import it."""
    import multiprocessing

    return multiprocessing.get_context("fork")


def _stop(checks) -> None:
    """Kill the processes of ``checks`` (see ``Ledger._part_checks``) that still
    run, reap them all and empty ``checks``."""
    processes = [process for _, process in checks.values()]
    for process in processes:
        process.kill()
    for process in processes:
        process.join()
    checks.clear()


def _status(result: ChainResult) -> str:
    return VALID if result.valid else INVALID


def _heights(blocks_dir: Path) -> List[int]:
    """The heights of the block files in ``blocks_dir``; only names ``_block_path``
    writes count: "007.json" or a non-ASCII digit is a stray file."""
    names = (p.stem for p in blocks_dir.glob("*.json"))
    return [int(name) for name in names if re.fullmatch(r"0|[1-9][0-9]*", name)]


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
    try:
        raw = path.read_bytes()
        block = _block_from_dict(json.loads(raw.decode("utf-8")))
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if block.height != int(path.stem):
        return None
    return raw, block


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
