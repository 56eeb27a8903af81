import base64
import contextlib
import gc
import json
import multiprocessing
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from carboncert.ledger import (
    BLOCK_TX_LIMIT,
    ChainDamaged,
    ChainResult,
    Ledger,
    UnknownIdentity,
    make_identity,
)
from carboncert import ledger as ledger_mod
from carboncert.model import ZERO_HASH_HEX, Role, canonical_json, digest_hex
from conftest import _reseal_up_to_the_tip


def echo_chaincode(op, submitter, state):
    """Minimal chaincode: writes op['key'] = op['value']; 'bad' op is invalid."""
    if op.get("op") == "bad":
        return ChainResult(False, "structure", {}, ())
    key = op.get("key", "k")
    return ChainResult(True, None, {key: json.dumps(op).encode()}, (key,))


PLANT = make_identity("plant-1", Role.PRODUCER)
CERTIFIER = make_identity("certifier-1", Role.CERTIFIER)


def _open(root, chaincode=echo_chaincode, version="v1", members=(PLANT, CERTIFIER), **kw):
    return Ledger(root, chaincode, version, members, **kw)


@pytest.fixture
def ledger(tmp_path):
    return _open(tmp_path / "chain")


def _payload(i, **extra):
    return json.dumps({"op": "set", "key": f"k{i}", "value": i, **extra}).encode()


def test_genesis_block(ledger):
    assert ledger.height == 0
    genesis = ledger.blocks()[0]
    assert genesis.prev_hash == ZERO_HASH_HEX
    assert genesis.transactions == []
    assert ledger.tip_hash == genesis.block_hash
    # a ledger given no parameters writes the genesis it wrote before genesis could hold them
    assert genesis.block_hash == "d1c444343cb1c490d231f45a65d90c8fb8ed89b747940e956eb497a60dfacb41"


def test_get_identity_knows_only_the_members_given(ledger):
    assert ledger.get_identity("plant-1") == PLANT
    assert PLANT.key_id == digest_hex(b"cred:plant-1:PRODUCER")[:16]
    with pytest.raises(UnknownIdentity):
        ledger.get_identity("ghost")
    # membership is the caller's to give: the ledger writes no file of it
    assert [p.name for p in ledger.root.iterdir()] == ["blocks"]


def test_submit_requires_known_identity(ledger):
    with pytest.raises(UnknownIdentity):
        ledger.submit_tx(b"{}", "ghost")


def test_submit_applies_writes_and_records_tx(ledger):
    tx_id = ledger.submit_tx(_payload(1), "plant-1")
    tx = ledger.get_transaction(tx_id)
    assert tx.status == "VALID" and tx.reason is None
    assert tx.payload_digest == digest_hex(tx.payload)
    assert ledger.query_state("k1") is not None
    assert ledger.pending_count == 1


def test_invalid_tx_recorded_not_dropped(ledger):
    tx_id = ledger.submit_tx(json.dumps({"op": "bad"}).encode(), "plant-1")
    tx = ledger.get_transaction(tx_id)
    assert tx.status == "INVALID" and tx.reason == "structure"
    assert ledger.pending_count == 1  # still ordered into the next block


def test_unparseable_payload_is_structure_invalid(ledger):
    tx = ledger.get_transaction(ledger.submit_tx(b"not json", "plant-1"))
    assert tx.status == "INVALID" and tx.reason == "structure"
    tx = ledger.get_transaction(ledger.submit_tx(b"[1,2]", "plant-1"))
    assert tx.status == "INVALID" and tx.reason == "structure"


def test_blocks_cut_at_twelve_transactions(ledger):
    for i in range(30):
        ledger.submit_tx(_payload(i), "plant-1")
    blocks = ledger.cut_all()
    assert [len(b.transactions) for b in blocks] == [12, 12, 6]
    assert ledger.pending_count == 0
    assert ledger.cut_block() is None
    assert BLOCK_TX_LIMIT == 12


def test_chain_linkage_and_files(ledger):
    for i in range(15):
        ledger.submit_tx(_payload(i), "plant-1")
    ledger.cut_all()
    blocks = ledger.blocks()
    for prev, cur in zip(blocks, blocks[1:]):
        assert cur.prev_hash == prev.block_hash
        assert cur.height == prev.height + 1
    for b in blocks:
        assert (ledger.blocks_dir / f"{b.height}.json").exists()
    assert ledger.verify_chain() is None


def test_block_files_are_canonical_with_base64_payloads(ledger):
    ledger.submit_tx(_payload(0), "plant-1")
    block = ledger.cut_block()
    raw = (ledger.blocks_dir / "1.json").read_bytes()
    content = json.loads(raw)
    assert content["block_hash"] == block.block_hash
    decoded = base64.b64decode(content["transactions"][0]["payload_b64"], validate=True)
    assert decoded == _payload(0)
    # logical timestamps are deterministic
    assert content["timestamp"] == "2025-01-01T00:01:00Z"


def test_tx_ids_unique_for_identical_payloads(ledger):
    a = ledger.submit_tx(_payload(0), "plant-1")
    b = ledger.submit_tx(_payload(0), "plant-1")
    assert a != b  # sequence number participates in the id


def test_history_tracks_touched_keys(ledger):
    ledger.submit_tx(_payload(7), "plant-1")
    ledger.submit_tx(_payload(7, value=8), "plant-1")
    history = ledger.get_history("k7")
    assert len(history) == 2
    assert [t.sequence for t in history] == [0, 1]


def test_history_lists_committed_transactions_in_block_order_then_pending_across_a_reopen(tmp_path):
    root = tmp_path / "chain"
    led = _open(root)
    first = led.submit_tx(_payload(0, value=1), "plant-1")
    led.submit_tx(_payload(1), "plant-1")
    led.cut_all()
    led.submit_tx(_payload(1, value=2), "plant-1")
    led.submit_tx(b'{"op": "bad"}', "plant-1")
    second = led.submit_tx(_payload(0, value=2), "plant-1")
    led.cut_all()
    (root / "writes" / "1.json").unlink()  # the open re-executes block 1 and applies block 2's journal
    pending = led.submit_tx(_payload(0, value=3), "plant-1")
    assert [t.tx_id for t in led.get_history("k0")] == [first, second, pending]
    counting = Counting()
    reopened = _open(root, counting)
    assert counting.calls == 2  # block 1's transactions
    assert [t.tx_id for t in reopened.get_history("k0")] == [first, second]  # the pending one is dropped
    assert _histories(reopened) == _histories(led)
    again = reopened.submit_tx(_payload(0, value=4), "plant-1")
    assert [t.tx_id for t in reopened.get_history("k0")] == [first, second, again]
    assert reopened.verify_chain() is None


def test_state_queries(ledger):
    for key in ("k2", "x1", "k10", "k0"):
        ledger.submit_tx(_payload(0, key=key), "plant-1")
    items = ledger.state_items("k")
    assert list(items) == ["k0", "k10", "k2"]
    assert items["k10"] == ledger.query_state("k10")
    assert list(ledger.state_items()) == ["k0", "k10", "k2", "x1"]
    assert ledger.query_state("absent") is None


def test_verify_chain_detects_any_single_byte_flip(ledger, tmp_path):
    for i in range(20):
        ledger.submit_tx(_payload(i), "plant-1")
    ledger.cut_all()
    target = ledger.blocks_dir / "1.json"
    original = target.read_bytes()
    flipped = 0
    for pos in range(0, len(original), max(1, len(original) // 40)):
        mutated = bytearray(original)
        mutated[pos] ^= 0x01
        target.write_bytes(bytes(mutated))
        assert ledger.verify_chain() == 1
        flipped += 1
    target.write_bytes(original)
    assert flipped > 0
    assert ledger.verify_chain() is None


def test_verify_chain_detects_deleted_block(ledger):
    ledger.submit_tx(_payload(0), "plant-1")
    ledger.cut_block()
    (ledger.blocks_dir / "1.json").unlink()
    assert ledger.verify_chain() == 1


def test_verify_chain_detects_semantic_tamper_after_rehash(ledger):
    # an attacker who edits a payload and fixes every hash in that block
    # still breaks the prev_hash linkage of the following block
    for i in range(30):
        ledger.submit_tx(_payload(i), "plant-1")
    ledger.cut_all()
    path = ledger.blocks_dir / "1.json"
    content = json.loads(path.read_bytes())
    forged = json.dumps({"op": "set", "key": "k0", "value": 999}).encode()
    content["transactions"][0]["payload_b64"] = base64.b64encode(forged).decode("ascii")
    block = ledger_mod._block_from_dict(content)
    tx = block.transactions[0]
    tx.payload_digest = digest_hex(tx.payload)
    tx.tx_id = ledger_mod._tx_id(tx.payload, tx.submitter, tx.sequence)
    ident = ledger.get_identity(tx.submitter)
    tx.endorsement = ledger_mod._endorse(ident.key_id, tx.payload_digest)
    path.write_bytes(ledger_mod._seal(block))
    assert _open(ledger.root).verify_chain() == 2  # linkage breaks at the next block
    assert ledger.verify_chain() == 1  # opened before it, the ledger loaded the block under another hash


def _escape_first_zero(raw: bytes, block_hash: str) -> bytes:
    i = block_hash.index("0")
    return raw.replace(block_hash.encode(), f"{block_hash[:i]}\\u0030{block_hash[i + 1:]}".encode(), 1)


REWRITES = {
    "spaces": lambda raw, content: json.dumps(content, sort_keys=True).encode(),
    "block_hash_last": lambda raw, content: json.dumps(
        {**{k: v for k, v in content.items() if k != "block_hash"}, "block_hash": content["block_hash"]},
        separators=(",", ":"),
    ).encode(),
    "escaped_zero_in_hash": lambda raw, content: _escape_first_zero(raw, content["block_hash"]),
    "wrong_block_hash": lambda raw, content: raw.replace(
        content["block_hash"].encode(), digest_hex(content["block_hash"].encode()).encode(), 1
    ),
}


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
@pytest.mark.parametrize("height", [1, 2, 3])
def test_verify_chain_reports_a_rewritten_block_at_its_height(ledger, rewrite, height):
    # every rewrite but wrong_block_hash parses to the same block; only its bytes differ
    for i in range(30):
        ledger.submit_tx(_payload(i), "plant-1")
    ledger.cut_all()
    assert ledger.height == 3
    path = ledger.blocks_dir / f"{height}.json"
    raw = path.read_bytes()
    content = json.loads(raw)
    rewritten = REWRITES[rewrite](raw, content)
    assert rewritten != raw
    if rewrite != "wrong_block_hash":
        assert json.loads(rewritten) == content
    path.write_bytes(rewritten)
    assert ledger.verify_chain() == height


def _respelled_under_a_fresh_hash(raw: bytes, **changes) -> bytes:
    """A block file in another JSON spelling (spaces after separators), with
    ``changes`` made to its first transaction, under the hash of its new bytes."""
    content = json.loads(raw)
    del content["block_hash"]
    content["transactions"][0].update(changes)
    body = json.dumps(content, sort_keys=True).encode()
    return b'{"block_hash":"' + digest_hex(body).encode() + b'",' + body[1:]


@pytest.mark.parametrize("height", [1, 2, 3])
def test_a_block_respelled_under_a_fresh_hash_passes_only_at_the_tip(tmp_path, height):
    # verify_chain checks a file's bytes against the hash it carries, not that
    # they are canonical: on a ledger opened after the rewrite, below the tip
    # the next block's prev_hash pins the bytes, so the link breaks there, as
    # for a canonical rewrite under a fresh hash; the tip's file is accepted,
    # as a canonical rewrite of it is. The ledger opened before it finds any
    # such file at its own height: its hash is not the loaded block's.
    root = tmp_path / "chain"
    led = _committed(root)
    path = root / "blocks" / f"{height}.json"
    respelled = _respelled_under_a_fresh_hash(path.read_bytes())
    assert b'"height": ' in respelled and respelled != path.read_bytes()
    path.write_bytes(respelled)
    assert led.verify_chain() == height
    assert _open(root).verify_chain() == (None if height == led.height else height + 1)


def test_a_tip_rewritten_after_the_open_is_found(tmp_path):
    # the tip's file, rewritten canonically under a fresh hash with a status
    # flipped, used to pass on the ledger opened before: it re-executed the
    # blocks it loaded and hash-checked the file only against itself
    root = tmp_path / "chain"
    led = _committed(root)
    path = root / "blocks" / "3.json"
    block = ledger_mod._read_block(path)[1]
    block.transactions[0].status, block.transactions[0].reason = "INVALID", "structure"
    path.write_bytes(ledger_mod._seal(block))
    assert led.verify_chain() == 3


def test_a_tip_respelled_with_a_changed_status_or_no_hash_is_found(tmp_path):
    root = tmp_path / "chain"
    _committed(root)
    path = root / "blocks" / "3.json"
    original = path.read_bytes()
    # a changed status disagrees with the block's journal, and with its re-execution
    path.write_bytes(_respelled_under_a_fresh_hash(original, status="INVALID", reason="structure"))
    assert _open(root).verify_chain() == 3
    # a block_hash that is no hex string is never the hash of the file
    content = json.loads(original)
    path.write_bytes(original.replace(f'"{content["block_hash"]}"'.encode(), b"null", 1))
    assert _open(root).verify_chain() == 3


def test_verify_chain_serializes_no_block(tmp_path, monkeypatch):
    # the hash check reads each file's bytes; only the journal binding
    # serializes a block, the genesis, once per Ledger
    root = tmp_path / "chain"
    _committed(root)
    serialized = []
    block_content = ledger_mod._block_content
    monkeypatch.setattr(
        ledger_mod, "_block_content", lambda block: serialized.append(block.height) or block_content(block)
    )
    reopened = _open(root)
    assert reopened.height == 3
    assert reopened.verify_chain() is None and reopened.verify_chain() is None
    assert serialized == [0]
    assert _open(root).verify_chain() is None
    assert serialized == [0, 0]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
def test_an_open_runs_no_collection_and_leaves_the_collector_as_found(tmp_path, monkeypatch, enabled):
    # an open builds many containers and no cyclic garbage: the collector pauses
    root = tmp_path / "chain"
    _committed(root)
    loading, started = [], []
    load = Ledger._load

    def watched_load(self, params):
        loading.append(True)
        try:
            load(self, params)
        finally:
            loading.clear()

    def on_gc(phase, info):
        if phase == "start" and loading:
            started.append(info["generation"])

    monkeypatch.setattr(Ledger, "_load", watched_load)
    found, threshold = gc.isenabled(), gc.get_threshold()
    gc.callbacks.append(on_gc)
    try:
        gc.enable() if enabled else gc.disable()
        gc.set_threshold(1)  # were it running, any allocation in the open would start a collection
        assert _open(root).height == 3
        assert started == [] and gc.isenabled() is enabled

        seen = []

        def failing_hash(raw):
            seen.append(gc.isenabled())
            raise RuntimeError("disk gone")

        monkeypatch.setattr(ledger_mod, "_file_hash", failing_hash)
        with pytest.raises(RuntimeError, match="disk gone"):
            _open(root)
        assert seen == [False] and gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*threshold)
        gc.enable() if found else gc.disable()


def test_file_bytes_reads_a_file_whole_and_nothing_else(tmp_path, monkeypatch):
    path = tmp_path / "1.json"
    assert ledger_mod._file_bytes(str(path)) is None  # missing
    assert ledger_mod._file_bytes(str(tmp_path)) is None  # a directory
    path.write_bytes(b"")
    assert ledger_mod._file_bytes(str(path)) == b""
    head, tail = b"x" * 100, b"y" * 200_000
    path.write_bytes(head)
    fstat = os.fstat

    def grow_after(fd):  # the file grows between the fstat and the read
        stat = fstat(fd)
        with open(path, "ab") as f:
            f.write(tail)
        return stat

    monkeypatch.setattr(os, "fstat", grow_after)
    assert ledger_mod._file_bytes(str(path)) == head + tail


def test_an_open_decodes_the_tip_only_and_verify_chain_parses_no_block_file(tmp_path, monkeypatch):
    # the open parses each block file once and decodes only the tip's
    # payloads; verify_chain reads each file's bytes once more and parses none
    root = tmp_path / "chain"
    _committed(root)
    calls = {"decoded": [], "parsed": [], "read": []}
    decode, read_block, file_bytes = ledger_mod._decode_payload, ledger_mod._read_block, ledger_mod._file_bytes
    monkeypatch.setattr(ledger_mod, "_decode_payload", lambda text: calls["decoded"].append(text) or decode(text))
    monkeypatch.setattr(ledger_mod, "_read_block", lambda path: calls["parsed"].append(path.name) or read_block(path))
    monkeypatch.setattr(
        ledger_mod, "_file_bytes",
        lambda path: calls["read"].append(Path(path).relative_to(root).as_posix()) or file_bytes(path),
    )
    names = ["0.json", "1.json", "2.json", "3.json"]

    reopened = _open(root)
    tip = reopened.blocks()[-1]
    assert calls["decoded"] == [tx.payload_b64 for tx in tip.transactions]
    assert calls["parsed"] == names
    assert [p for p in calls["read"] if p.startswith("blocks/")] == [f"blocks/{n}" for n in names]

    monkeypatch.setattr(ledger_mod, "_block_from_dict", lambda content: pytest.fail("verify_chain parsed a block"))
    for _ in range(2):
        calls["read"].clear()
        assert reopened.verify_chain() is None
        assert calls["parsed"] == names
        assert calls["read"] == [f"blocks/{n}" for n in names]
    assert sorted(calls["decoded"]) == sorted(tx.payload_b64 for b in reopened.blocks() for tx in b.transactions)


def test_a_payload_is_read_as_its_block_file_holds_it(tmp_path, savepoint):
    root = tmp_path / "chain"
    led = _committed(root)
    reopened = _open(root)
    for before, after in zip(led.blocks(), reopened.blocks()):
        for tx, loaded in zip(before.transactions, after.transactions):
            assert loaded.payload_size == len(tx.payload)  # from the base64 text's length
            assert loaded.payload == tx.payload and loaded.payload_b64 == tx.payload_b64
    assert reopened.state_items() == led.state_items()


def test_persistence_round_trip(tmp_path, savepoint):
    led = _open(tmp_path / "chain")
    for i in range(14):
        led.submit_tx(_payload(i), "plant-1")
    led.cut_all()
    digest_before = led.state_digest()
    tip = led.tip_hash

    reopened = _open(tmp_path / "chain")
    assert reopened.height == led.height
    assert reopened.tip_hash == tip
    assert reopened.state_digest() == digest_before
    assert reopened.verify_chain() is None
    assert "plant-1" in reopened.identities
    # sequence numbering resumes after the last committed tx
    tx = reopened.get_transaction(reopened.submit_tx(_payload(99), "plant-1"))
    assert tx.sequence == 14


def test_rebuild_state_matches_live_state(ledger):
    for i in range(25):
        ledger.submit_tx(_payload(i % 5, value=i), "plant-1")
    ledger.cut_all()
    assert ledger.rebuilt_state_digest() == ledger.state_digest()


def test_endorsement_binds_submitter_key(ledger):
    a = ledger.get_transaction(ledger.submit_tx(_payload(1), "plant-1"))
    b = ledger.get_transaction(ledger.submit_tx(_payload(1), "certifier-1"))
    assert a.payload_digest == b.payload_digest
    assert a.endorsement != b.endorsement


# -- damaged chains ------------------------------------------------------------


def _committed(root, txs=30):
    """A ledger with blocks 0..3 and their journals on disk (30 txs cut 12/12/6)."""
    led = _open(root)
    for i in range(txs):
        led.submit_tx(_payload(i), "plant-1")
    led.cut_all()
    return led


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "height, damage",
    [(0, "torn"), (1, "torn"), (3, "torn"), (0, "missing"), (1, "missing")],
)
def test_damaged_block_file_opens_but_refuses_appends(tmp_path, height, damage):
    root = tmp_path / "chain"
    _committed(root)
    path = root / "blocks" / f"{height}.json"
    if damage == "torn":
        path.write_bytes(path.read_bytes()[:100])
    else:
        path.unlink()
    files = _files(root)

    reopened = _open(root)  # opening never raises
    assert reopened.height == height - 1  # only the readable prefix is loaded
    assert len(reopened.blocks()) == height
    assert reopened.verify_chain() == height
    with pytest.raises(ChainDamaged, match=f"height {height}"):
        reopened.submit_tx(_payload(99), "plant-1")
    assert reopened.pending_count == 0 and reopened.cut_all() == []
    # a second open does not heal it, and nothing on disk was rewritten
    assert _open(root).verify_chain() == height
    assert _files(root) == files


def test_stray_temp_file_neither_loads_nor_damages(tmp_path):
    root = tmp_path / "chain"
    led = _committed(root)
    (root / "blocks" / "5.json.tmp").write_bytes(b'{"height": 5')
    reopened = _open(root)
    assert reopened.height == led.height == 3
    assert reopened.verify_chain() is None
    reopened.submit_tx(_payload(99), "plant-1")
    assert reopened.cut_block().height == 4


@pytest.mark.parametrize("name", ["007.json", "\u0663.json", "\u00b2.json"])  # 007, Arabic-Indic 3, superscript 2
def test_stray_height_like_file_neither_loads_nor_damages(tmp_path, name):
    root = tmp_path / "chain"
    led = _committed(root, txs=5)
    (root / "blocks" / name).write_bytes(b'{"height": 3')
    reopened = _open(root)
    assert reopened.height == led.height == 1
    assert reopened.verify_chain() is None
    reopened.submit_tx(_payload(99), "plant-1")
    assert reopened.cut_block().height == 2


def test_unknown_submitter_marks_damage(tmp_path):
    root = tmp_path / "chain"
    led = _committed(root)
    led.submit_tx(_payload(99), "certifier-1")
    led.cut_all()

    reopened = _open(root, members=(PLANT,))
    assert reopened.verify_chain() == 4
    with pytest.raises(ChainDamaged, match="height 4: unknown submitter 'certifier-1'"):
        reopened.submit_tx(_payload(100), "plant-1")


def test_replayed_status_mismatch_marks_damage(tmp_path):
    # the chain was written by a chaincode that accepted value 20; one that
    # rejects it cannot rebuild the recorded state, so the chain is damaged there:
    # under another version the open re-executes and finds it; under an
    # unchanged version the open applies the journals instead, and
    # verify_chain's re-execution finds it.
    def stricter(op, submitter, state):
        if op.get("value") == 20:
            return ChainResult(False, "ranges", {}, ())
        return echo_chaincode(op, submitter, state)

    for version in ("v2", "v1"):
        root = tmp_path / f"chain-{version}"
        _committed(root)
        reopened = _open(root, stricter, version)
        assert reopened.verify_chain() == 2  # tx 20 sits in the second block of 12
        with pytest.raises(ChainDamaged, match="height 2: .* replays INVALID \\(ranges\\), recorded VALID \\(None\\)"):
            reopened.submit_tx(_payload(99), "plant-1")


# -- write-set journals ----------------------------------------------------------


class Counting:
    """echo_chaincode, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, op, submitter, state):
        self.calls += 1
        return echo_chaincode(op, submitter, state)


def _rewrite_journal(path, edit):
    """Apply ``edit`` to a journal's parsed body and reseal it with the new body's digest."""
    content = json.loads(path.read_bytes())
    edit(content["body"])
    path.write_bytes(ledger_mod._journal_file(canonical_json(content["body"])))


def test_journaled_open_applies_writes_without_executing(tmp_path, savepoint):
    root = tmp_path / "chain"
    led = _committed(root)
    assert sorted(p.name for p in (root / "writes").iterdir()) == ["1.json", "2.json", "3.json"]
    files = _files(root)

    counting = Counting()
    reopened = _open(root, counting)
    assert counting.calls == 0
    assert reopened.state_digest() == led.state_digest()
    assert _histories(reopened) == _histories(led)
    assert reopened.verify_chain() is None
    assert counting.calls == 30  # verify_chain re-executes every transaction, once
    assert reopened.verify_chain() is None and counting.calls == 30
    assert _files(root) == files  # opening and verifying write nothing


@pytest.mark.parametrize("version", ["v2"])
def test_open_under_another_version_re_executes(tmp_path, version):
    root = tmp_path / "chain"
    led = _committed(root)
    counting = Counting()
    reopened = _open(root, counting, version)
    assert counting.calls == 30
    assert reopened.state_digest() == led.state_digest()
    assert reopened.verify_chain() is None


def test_genesis_params_are_hashed_kept_and_bind_the_journals(tmp_path):
    root = tmp_path / "chain"
    led = _open(root, params='{"factor": 0.4123456}')
    for i in range(5):
        led.submit_tx(_payload(i), "plant-1")
    led.cut_all()
    assert ledger_mod.read_genesis(root).params == '{"factor": 0.4123456}'
    counting = Counting()
    reopened = _open(root, counting, params="ignored: the chain keeps its own")
    assert reopened.blocks()[0].params == '{"factor": 0.4123456}'
    assert counting.calls == 0 and reopened.verify_chain() is None

    # parameters edited in place: block_hash covers them, and the journals
    # written under the old ones are not applied under the new
    genesis = root / "blocks" / "0.json"
    genesis.write_bytes(genesis.read_bytes().replace(b"0.4123456", b"0.4123457"))
    counting = Counting()
    reopened = _open(root, counting)
    assert reopened.blocks()[0].params == '{"factor": 0.4123457}'
    assert counting.calls == 5
    assert reopened.verify_chain() == 0


def test_params_outside_genesis_break_the_chain(tmp_path):
    root = tmp_path / "chain"
    _committed(root, txs=5)
    path = root / "blocks" / "1.json"
    block = ledger_mod._read_block(path)[1]
    block.params = "{}"
    path.write_bytes(ledger_mod._seal(block))
    assert _open(root).verify_chain() == 1


def test_read_genesis_without_a_chain_creates_nothing(tmp_path):
    with pytest.raises(ledger_mod.NoChain):
        ledger_mod.read_genesis(tmp_path / "chain")
    assert not (tmp_path / "chain").exists()


def test_a_block_whose_recorded_status_was_flipped_is_damaged_at_open(tmp_path):
    root = tmp_path / "chain"
    _committed(root)
    path = root / "blocks" / "2.json"
    path.write_bytes(path.read_bytes().replace(b'"status":"VALID"', b'"status":"INVALID"', 1))
    reopened = _open(root)
    with pytest.raises(ChainDamaged, match="height 2: .* replays VALID \\(None\\), recorded INVALID \\(None\\)"):
        reopened.submit_tx(_payload(99), "plant-1")
    assert reopened.verify_chain() == 2


def test_a_journal_disagreeing_with_its_block_records_is_damage_at_open(tmp_path, savepoint):
    root = tmp_path / "chain"
    _committed(root)

    def flip(body):
        body["txs"][0]["status"], body["txs"][0]["reason"] = "INVALID", "structure"

    _rewrite_journal(root / "writes" / "2.json", flip)
    reopened = _open(root)
    with pytest.raises(ChainDamaged, match="height 2: block records disagree with its write-set journal"):
        reopened.submit_tx(_payload(99), "plant-1")
    assert reopened.verify_chain() == 2


def test_a_failed_block_write_keeps_its_transactions_pending(tmp_path, monkeypatch):
    # the cut used to drop its transactions before the write, keeping their writes in the state
    root = tmp_path / "chain"
    led = _open(root)
    led.submit_tx(json.dumps({"key": "a", "value": 1}).encode(), "plant-1")
    real, calls = ledger_mod.write_new, []

    def fail_once(path, data):
        calls.append(path)
        if len(calls) == 1:
            raise OSError("no space left on device")
        real(path, data)

    monkeypatch.setattr(ledger_mod, "write_new", fail_once)
    with pytest.raises(OSError):
        led.cut_all()
    assert (led.height, led.pending_count) == (0, 1) and not (root / "blocks" / "1.json").exists()
    led.submit_tx(json.dumps({"key": "b", "value": 2}).encode(), "plant-1")
    [block] = led.cut_all()
    assert [tx.status for tx in block.transactions] == ["VALID", "VALID"] and led.pending_count == 0
    reopened = _open(root)
    assert reopened.query_state("a") == led.query_state("a") == b'{"key": "a", "value": 1}'
    digests = {led.state_digest(), led.rebuilt_state_digest(), reopened.state_digest(), reopened.rebuilt_state_digest()}
    assert len(digests) == 1
    assert led.verify_chain() is None and reopened.verify_chain() is None


def test_damage_found_by_verify_chain_refuses_the_pending_block(tmp_path, savepoint):
    root = tmp_path / "chain"
    _committed(root)

    def tamper(body):
        body["txs"][0]["writes"] = {"k0": base64.b64encode(b"tampered").decode()}

    _rewrite_journal(root / "writes" / "1.json", tamper)
    reopened = _open(root)
    reopened.submit_tx(_payload(99), "plant-1")  # the open applied the journal unseen
    files = _files(root)
    assert reopened.verify_chain() == 1
    with pytest.raises(ChainDamaged, match="height 1: .* other writes than its journal"):
        reopened.cut_block()
    assert _files(root) == files


@pytest.mark.parametrize(
    "bad",
    [
        lambda o, n: [o, n + 1],  # past the payload's end
        lambda o, n: [o + n + 1, 0],
        lambda o, n: [-1, n],
        lambda o, n: [o, -1],
        lambda o, n: [False, n],
        lambda o, n: [o, True],
        lambda o, n: [float(o), n],
        lambda o, n: [o],
        lambda o, n: [o, n, 0],
        lambda o, n: {"offset": o, "length": n},
        lambda o, n: None,
    ],
    ids=["long", "offset-past-end", "negative-offset", "negative-length", "bool-offset", "bool-length",
         "float", "one-int", "three-ints", "object", "null"],
)
def test_a_journal_slice_outside_its_payload_re_executes_the_block(tmp_path, savepoint, bad):
    root = tmp_path / "chain"
    led = _committed(root)

    def tamper(body):
        body["txs"][0]["writes"]["k12"] = bad(*body["txs"][0]["writes"]["k12"])

    _rewrite_journal(root / "writes" / "2.json", tamper)
    counting = Counting()
    reopened = _open(root, counting)
    assert counting.calls == 12  # block 2 alone, like a torn journal
    assert reopened.state_digest() == reopened.rebuilt_state_digest() == led.state_digest()
    assert reopened.verify_chain() is None


def test_a_journal_slice_to_other_bytes_of_its_payload_is_found_by_verify_chain(tmp_path, savepoint):
    root = tmp_path / "chain"
    _committed(root)

    def tamper(body):
        offset, length = body["txs"][0]["writes"]["k12"]
        body["txs"][0]["writes"]["k12"] = [offset + 1, length - 1]

    _rewrite_journal(root / "writes" / "2.json", tamper)
    counting = Counting()
    reopened = _open(root, counting)
    assert counting.calls == 0  # the open applied the slice unseen
    assert reopened.verify_chain() == 2
    with pytest.raises(ChainDamaged, match="height 2: .* other writes than its journal"):
        reopened.submit_tx(_payload(99), "plant-1")


def test_an_all_base64_journal_opens_without_executing(tmp_path, savepoint):
    # journals written before values became payload slices hold every value in base64
    root = tmp_path / "chain"
    led = _committed(root)
    for block in led.blocks()[1:]:

        def to_base64(body):
            for t, tx in zip(body["txs"], block.transactions):
                assert all(isinstance(v, list) for v in t["writes"].values())
                t["writes"] = {
                    k: base64.b64encode(tx.payload[offset:offset + length]).decode()
                    for k, (offset, length) in t["writes"].items()
                }

        _rewrite_journal(root / "writes" / f"{block.height}.json", to_base64)
    counting = Counting()
    reopened = _open(root, counting)
    assert counting.calls == 0
    assert reopened.state_digest() == led.state_digest()
    assert _histories(reopened) == _histories(led)
    assert reopened.verify_chain() is None


@pytest.mark.parametrize("height", [1, 2])
def test_a_payload_character_changed_below_the_tip_is_damage_at_open(tmp_path, height):
    # the journal is bound to the hash the file carries, so it used to be
    # applied and the chain opened clean and took appends
    root = tmp_path / "chain"
    _committed(root)
    path = root / "blocks" / f"{height}.json"
    raw = path.read_bytes()
    text = json.loads(raw)["transactions"][0]["payload_b64"]
    other = text[:4] + ("B" if text[4] == "A" else "A") + text[5:]
    path.write_bytes(raw.replace(text.encode(), other.encode(), 1))
    files = _files(root)
    reopened = _open(root)
    with pytest.raises(ChainDamaged, match=f"height {height}: block file does not hash to the block_hash it carries"):
        reopened.submit_tx(_payload(99), "plant-1")
    assert reopened.verify_chain() == height
    assert _files(root) == files


@pytest.mark.parametrize(
    "garble",
    [lambda t: "!" + t[1:], lambda t: "\u00e9" + t[1:], lambda t: t[:4] + "=" + t[5:]],
    ids=["not-in-alphabet", "not-ascii", "padding-inside"],
)
def test_a_suffix_resealed_with_a_payload_that_is_not_base64_is_damage_when_read(
    tmp_path, reseal_up_to_the_tip, garble
):
    # a run of blocks resealed up to the tip passes the open's hash and link
    # checks; the payload is not decoded there, so reading a value cut from
    # it, or verify_chain, finds it
    root = tmp_path / "chain"
    led = _committed(root)
    def garble_first(content):
        tx = content["transactions"][0]
        tx["payload_b64"] = garble(tx["payload_b64"])

    reseal_up_to_the_tip(root, 2, garble_first)
    counting = Counting()
    reopened = _open(root, counting)
    assert counting.calls == 0  # every journal applied, nothing found
    assert reopened.query_state("k0") == led.query_state("k0")  # block 1 is intact
    with pytest.raises(ChainDamaged, match="^chain damaged at height 2: tx [0-9a-f]{16} holds a payload that is not base64$"):
        reopened.query_state("k12")
    with pytest.raises(ChainDamaged, match="height 2: .* not base64; refusing to append"):
        reopened.submit_tx(_payload(99), "plant-1")
    assert reopened.verify_chain() == 2
    unread = _open(root)
    assert unread.verify_chain() == 2
    with pytest.raises(ChainDamaged, match="height 2"):
        unread.state_items()


def test_a_tip_resealed_with_a_payload_that_is_not_base64_is_damage_at_open(tmp_path, reseal_up_to_the_tip):
    root = tmp_path / "chain"
    _committed(root)

    def garble_last(content):
        tx = content["transactions"][5]
        tx["payload_b64"] = "!" + tx["payload_b64"][1:]

    reseal_up_to_the_tip(root, 3, garble_last)
    counting = Counting()
    files = _files(root)
    reopened = _open(root, counting)
    assert counting.calls == 0  # the journal's slice fits the garbled text's length: it is applied
    with pytest.raises(ChainDamaged, match="height 3: tx [0-9a-f]{16} holds a payload that is not base64"):
        reopened.submit_tx(_payload(99), "plant-1")
    assert reopened.verify_chain() == 3
    assert _files(root) == files


def test_a_block_resealed_below_the_tip_is_damage_at_open_where_its_link_breaks(tmp_path):
    root = tmp_path / "chain"
    _committed(root)
    path = root / "blocks" / "1.json"
    block = ledger_mod._read_block(path)[1]
    block.timestamp = "2025-01-01T00:02:00Z"
    path.write_bytes(ledger_mod._seal(block))
    files = _files(root)
    reopened = _open(root)
    with pytest.raises(ChainDamaged, match="height 2: prev_hash is not the hash of block 1; refusing to append"):
        reopened.submit_tx(_payload(99), "plant-1")
    assert reopened.verify_chain() == 2
    assert _files(root) == files


# -- a re-execution split over processes ---------------------------------------


@pytest.mark.parametrize("cpus, here", [(1, 30), (2, 24), (3, 12)])
def test_a_split_re_execution_runs_only_its_first_part_here(tmp_path, monkeypatch, cpus, here):
    # 30 transactions cut 12/12/6: two parts are blocks 0-2 and 3, three are 0-1, 2 and 3
    root = tmp_path / "chain"
    _committed(root)
    monkeypatch.setattr(ledger_mod, "_SPLIT_MIN_TXS", 0)
    monkeypatch.setattr(ledger_mod, "usable_cpus", lambda: cpus)
    counting = Counting()
    reopened = _open(root, counting)
    assert reopened.verify_chain() is None
    assert counting.calls == here
    assert reopened.rebuilt_state_digest() == reopened.state_digest()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("no_fork", ["below-threshold", "fork-fails"])
def test_a_re_execution_that_forks_nothing_runs_every_block_here(tmp_path, monkeypatch, no_fork):
    root = tmp_path / "chain"
    _committed(root)
    monkeypatch.setattr(ledger_mod, "usable_cpus", lambda: 2)
    if no_fork == "below-threshold":
        monkeypatch.setattr(ledger_mod, "_SPLIT_MIN_TXS", 31)
    else:
        monkeypatch.setattr(ledger_mod, "_SPLIT_MIN_TXS", 0)

        def fail(process):
            raise OSError("no more processes")

        monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", fail)
    counting = Counting()
    assert _open(root, counting).verify_chain() is None
    assert counting.calls == 30
    assert multiprocessing.active_children() == []


class Raising:
    """echo_chaincode, raising on the op of one value."""

    def __init__(self, value):
        self.value = value

    def __call__(self, op, submitter, state):
        if op.get("value") == self.value:
            raise RuntimeError(f"chaincode failed on value {self.value}")
        return echo_chaincode(op, submitter, state)


@pytest.mark.parametrize("value", [5, 20, 27], ids=["first-part", "second-part", "third-part"])
def test_a_chaincode_that_raises_raises_the_same_split_or_not_and_leaves_no_process(tmp_path, monkeypatch, value):
    # the journals are applied at open, so only verify_chain runs the chaincode
    root = tmp_path / "chain"
    _committed(root)
    monkeypatch.setattr(ledger_mod, "_SPLIT_MIN_TXS", 0)
    raised = {}
    for cpus in (1, 3):
        monkeypatch.setattr(ledger_mod, "usable_cpus", lambda cpus=cpus: cpus)
        with pytest.raises(RuntimeError) as error:
            _open(root, Raising(value)).verify_chain()
        raised[cpus] = (type(error.value), str(error.value))
        assert multiprocessing.active_children() == []
    assert raised[1] == raised[3] == (RuntimeError, f"chaincode failed on value {value}")


@pytest.mark.parametrize("tamper", ["none", "journal"])
def test_a_split_re_execution_leaves_no_process_on_a_clean_or_damaged_chain(tmp_path, split, tamper):
    root = tmp_path / "chain"
    _committed(root)
    if tamper == "journal":
        _rewrite_journal(root / "writes" / "3.json", lambda body: body["txs"][0].update(writes={}))
    assert _open(root).verify_chain() == (None if tamper == "none" else 3)
    assert multiprocessing.active_children() == []


def tally_chaincode(op, submitter, state):
    """echo_chaincode, except that an "add" op adds its value to its key's
    total, read from ``state``: a re-execution started from another state
    writes other totals."""
    if op.get("op") != "add":
        return echo_chaincode(op, submitter, state)
    total = int(state.get(op["key"]) or b"0") + op["value"]
    return ChainResult(True, None, {op["key"]: str(total).encode()}, (op["key"],))


def _tally_op(i):
    """The ``i``-th op: invalid, an "add", or an echo that writes a key of its
    own or one that others overwrite."""
    if i % 5 == 0:
        return b'{"op": "bad"}'
    if i % 2:
        return json.dumps({"op": "add", "key": f"t{i % 3}", "value": i}).encode()
    return _payload(i if i % 4 == 0 else 2, value=i)


_TALLY_TXS = 72  # blocks 1-6 of 12 transactions
_TALLY_SAVED = 3  # the height of the tally chain's full savepoint
_TALLY_DELTA = 5  # the height of the delta on it


@pytest.fixture(scope="module")
def tally_chain(tmp_path_factory):
    """The tally ops in blocks 1-6, with a full savepoint at height 3 and a
    delta on it at height 5."""
    root = tmp_path_factory.mktemp("tally") / "chain"
    led = _open(root, tally_chaincode)
    # (ops, _SAVEPOINT_MIN_TXS, _DELTA_MIN_TXS): a full savepoint, a delta, none
    for ops, full, delta in ((range(36), 0, 0), (range(36, 60), _TALLY_TXS, 0), (range(60, 72), 0, _TALLY_TXS)):
        for i in ops:
            led.submit_tx(_tally_op(i), "plant-1")
        with mock.patch.object(ledger_mod, "_SAVEPOINT_MIN_TXS", full), \
                mock.patch.object(ledger_mod, "_DELTA_MIN_TXS", delta):
            led.cut_all()
    assert json.loads(led.savepoint_path.read_bytes())["body"]["height"] == _TALLY_SAVED
    assert json.loads(led.delta_path.read_bytes())["body"]["height"] == _TALLY_DELTA
    return root


def _tally_copy(tally_chain, root, savepoint):
    """A copy of the tally chain at ``root`` with its full savepoint alone
    ("kept"), with no savepoint ("deleted") or with both ("delta")."""
    shutil.copytree(tally_chain, root)
    if savepoint != "delta":
        (root / "state" / "delta.json").unlink()
    if savepoint == "deleted":
        (root / "state" / "savepoint.json").unlink()
    return root


def _garble_payload(index):
    def garble(content):
        tx = content["transactions"][index]
        tx["payload_b64"] = "!" + tx["payload_b64"][1:]

    return garble


def _flip_status(index):
    def flip(content):
        tx = content["transactions"][index]
        tx["status"], tx["reason"] = ("INVALID", "structure") if tx["status"] == "VALID" else ("VALID", None)

    return flip


# cases resealed up to the tip whose one change a check of the block's own
# fields finds: the open applies the journal of each but "tx id" and "submitter"
_RESEALED_FIELDS = {
    "payload digest": ("payload_digest", "0" * 64),
    "tx id": ("tx_id", "0" * 64),
    "endorsement": ("endorsement", "0" * 32),
    "submitter": ("submitter", "stranger"),
}


def _tamper(root, case, height, index, reseal):
    journal = root / "writes" / f"{height}.json"
    if case in _RESEALED_FIELDS:
        field, value = _RESEALED_FIELDS[case]
        reseal(root, height, lambda content: content["transactions"][index].update({field: value}))
    elif case == "params":
        reseal(root, height, lambda content: content.update(params="{}"))
    elif case == "journal value":
        forged = {"k0": base64.b64encode(b"tampered").decode()}
        _rewrite_journal(journal, lambda body: body["txs"][index].update(writes=forged))
    elif case == "status":
        reseal(root, height, _flip_status(index))
    elif case == "payload":
        reseal(root, height, _garble_payload(index))
    elif case == "journal deleted":
        journal.unlink()
    elif case == "journal disagrees below a payload":
        # damage the open finds at height 1 and the re-execution does not,
        # under a payload no open decodes: the part that holds it is not clean
        reseal(root, height, _garble_payload(index))
        _rewrite_journal(root / "writes" / "1.json", lambda body: body["txs"][1].update(status="INVALID"))


def _outcome(root, **patches):
    """What verify_chain, the damage, the replayed state and an append say on a fresh open."""
    with contextlib.ExitStack() as stack:
        for name, value in patches.items():
            stack.enter_context(mock.patch.object(ledger_mod, name, value))
        led = _open(root, tally_chaincode)
        out = [led.verify_chain(), led.damage]
        for probe in (led.rebuilt_state_digest, led.check_appendable):
            try:
                out.append(probe())
            except ChainDamaged as error:
                out.append(str(error))
        out += [led._replayed[0], led._replayed[2], led._replayed[3]]
    assert multiprocessing.active_children() == []
    return out


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    case=st.sampled_from(
        ["none", "journal value", "status", "payload", "journal deleted", "journal disagrees below a payload",
         *_RESEALED_FIELDS, "params"]
    ),
    height=st.integers(2, _TALLY_TXS // BLOCK_TX_LIMIT),
    index=st.integers(0, BLOCK_TX_LIMIT - 1),
    parts=st.sampled_from([2, 3]),
)
# a payload no open decodes, of an op whose write nothing reads or replaces, in
# the second of two parts, below damage found at open; and a payload the open
# decodes, at the tip: damage at open at the height of that part's last block
@example(case="journal disagrees below a payload", height=5, index=4, parts=2)
@example(case="payload", height=_TALLY_TXS // BLOCK_TX_LIMIT, index=6, parts=2)
# each check of a block's own fields, in a later part than the first
@example(case="payload digest", height=5, index=3, parts=2)
@example(case="tx id", height=4, index=0, parts=2)
@example(case="endorsement", height=_TALLY_TXS // BLOCK_TX_LIMIT, index=11, parts=3)
@example(case="submitter", height=5, index=7, parts=3)
@example(case="params", height=4, index=0, parts=2)
def test_a_split_re_execution_says_what_one_in_order_says(tally_chain, savepoint, case, height, index, parts):
    with tempfile.TemporaryDirectory() as tmp:
        root = _tally_copy(tally_chain, Path(tmp) / "chain", savepoint)
        _tamper(root, case, height, index, _reseal_up_to_the_tip)
        in_order = _outcome(root, usable_cpus=lambda: 1)
        split = _outcome(root, usable_cpus=lambda: parts, _SPLIT_MIN_TXS=0)
    assert split == in_order
    if case in _RESEALED_FIELDS or case == "params":
        assert in_order[0] == height


class FailingOnce:
    """tally_chaincode, raising MemoryError the first time this process runs ``op``."""

    def __init__(self, op):
        self.op, self.raised = op, False

    def __call__(self, op, submitter, state):
        if op == self.op and not self.raised:
            self.raised = True
            raise MemoryError
        return tally_chaincode(op, submitter, state)


def test_verify_chain_after_an_exception_starts_from_a_consistent_state(tally_chain, tmp_path, split, savepoint):
    # the replay used to keep the writes of the blocks it ran before the
    # exception, under the height it started from: the next verify_chain
    # re-executed them on that state and found false damage at height 1
    root = _tally_copy(tally_chain, tmp_path / "chain", savepoint)
    led = _open(root, FailingOnce(json.loads(_tally_op(39))))  # the 40th call of a re-execution in order
    with pytest.raises(MemoryError):
        led.verify_chain()
    assert led.verify_chain() is None and led.damage is None
    assert led.rebuilt_state_digest() == led.state_digest()
    assert multiprocessing.active_children() == []


# -- savepoints ------------------------------------------------------------------


def _savepoint_path(root):
    return root / "state" / "savepoint.json"


def _rewrite_savepoint(root, edit, name="savepoint"):
    """Apply ``edit`` to the parsed body of the full savepoint, or of the
    delta for ``name`` "delta", and reseal it with the new body's digest."""
    path = root / "state" / f"{name}.json"
    content = json.loads(path.read_bytes())
    edit(content["body"])
    path.write_bytes(ledger_mod._journal_file(canonical_json(content["body"])))


def test_a_savepoint_is_written_only_past_the_threshold_and_with_nothing_pending(tmp_path, monkeypatch):
    root = tmp_path / "chain"
    monkeypatch.setattr(ledger_mod, "_SAVEPOINT_MIN_TXS", 20)
    monkeypatch.setattr(ledger_mod, "_DELTA_MIN_TXS", 20)
    led = _committed(root, txs=12)
    assert not _savepoint_path(root).exists()  # 12 transactions above none
    for i in range(12, 24):
        led.submit_tx(_payload(i), "plant-1")
    led.cut_block()
    led.submit_tx(_payload(99), "plant-1")
    led.cut_block()
    assert not _savepoint_path(root).exists()  # cut_block writes none
    led.submit_tx(_payload(100), "plant-1")
    led.cut_all()
    saved = json.loads(_savepoint_path(root).read_bytes())["body"]
    assert (saved["height"], saved["block_hash"], saved["next_sequence"]) == (led.height, led.tip_hash, 26)
    assert len(saved["journals"]) == led.height + 1 and saved["journals"][0] is None
    assert saved["members"] == [["certifier-1", "CERTIFIER", CERTIFIER.key_id], ["plant-1", "PRODUCER", PLANT.key_id]]
    # a value found in its payload is a slice of it, as in the journal
    journal = json.loads((root / "writes" / "1.json").read_bytes())["body"]
    assert saved["state"]["k0"] == [1, 0, *journal["txs"][0]["writes"]["k0"]]
    files = _files(root)
    led.submit_tx(_payload(101), "plant-1")
    led.cut_all()
    assert _files(root)[Path("state/savepoint.json")] == files[Path("state/savepoint.json")]  # 1 transaction above


def test_an_open_from_a_savepoint_parses_only_the_blocks_it_reads(tmp_path, monkeypatch):
    root = tmp_path / "chain"
    monkeypatch.setattr(ledger_mod, "_SAVEPOINT_MIN_TXS", 0)
    monkeypatch.setattr(ledger_mod, "_DELTA_MIN_TXS", 0)
    led = _committed(root)  # a savepoint at the tip, 3
    for i in range(30, 42):
        led.submit_tx(_payload(i), "plant-1")
    monkeypatch.setattr(ledger_mod, "_DELTA_MIN_TXS", 13)
    led.cut_all()  # block 4, no savepoint
    parsed = []
    parse = ledger_mod._parse_block
    monkeypatch.setattr(ledger_mod, "_parse_block", lambda raw, height: parsed.append(height) or parse(raw, height))
    counting = Counting()
    reopened = _open(root, counting)
    assert parsed == [0, 4] and counting.calls == 0  # genesis, and the tip through _read_block
    assert reopened.query_state("k12") == led.query_state("k12") and parsed == [0, 4, 2]
    assert reopened.get_transaction(led.blocks()[4].transactions[0].tx_id).sequence == 30 and parsed == [0, 4, 2]
    assert reopened.get_transaction(led.blocks()[1].transactions[0].tx_id).sequence == 0
    assert parsed == [0, 4, 2, 1, 3]
    assert reopened.state_digest() == led.state_digest() and reopened.verify_chain() is None


def test_a_savepoint_that_cannot_be_written_leaves_the_older_one_in_use(tmp_path, monkeypatch):
    # a crash between the last block and the savepoint costs only speed
    root = tmp_path / "chain"
    monkeypatch.setattr(ledger_mod, "_SAVEPOINT_MIN_TXS", 0)
    monkeypatch.setattr(ledger_mod, "_DELTA_MIN_TXS", 0)
    led = _committed(root)  # a savepoint at the tip, 3
    replace = os.replace

    def no_savepoint(src, dst):
        if Path(dst).name == "savepoint.json":
            raise OSError("no space left on device")
        replace(src, dst)

    for i in range(30, 42):
        led.submit_tx(_payload(i), "plant-1")
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", no_savepoint)
        [block] = led.cut_all()
    assert block.height == 4 and (root / "blocks" / "4.json").exists() and (root / "writes" / "4.json").exists()
    assert json.loads(_savepoint_path(root).read_bytes())["body"]["height"] == 3
    assert sorted(p.name for p in (root / "state").iterdir()) == ["savepoint.json"]  # no temp file left
    read = []
    read_block = ledger_mod._read_block
    monkeypatch.setattr(ledger_mod, "_read_block", lambda path: read.append(path.name) or read_block(path))
    counting = Counting()
    reopened = _open(root, counting)
    assert read == ["4.json"] and counting.calls == 0  # the savepoint at 3, then block 4's journal
    assert reopened.state_digest() == led.state_digest() and reopened.verify_chain() is None
    reopened.cut_all()  # the blocks above the one in use still call for a savepoint
    assert json.loads(_savepoint_path(root).read_bytes())["body"]["height"] == 4


def test_a_block_file_changed_after_an_open_from_a_savepoint_is_damage_when_read(tally_chain, tmp_path):
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    led = _open(root, tally_chaincode)  # blocks 1 and 2 checked, not parsed
    _flip_byte(root / "blocks" / "1.json", 200)
    with pytest.raises(ChainDamaged, match="^chain damaged at height 1: block file changed since the open$"):
        led.query_state("k4")  # a slice of block 1's payload
    assert led.verify_chain() == 1
    with pytest.raises(ChainDamaged, match="height 1: block file changed since the open; refusing to append"):
        led.submit_tx(_payload(0), "plant-1")


@pytest.mark.parametrize("changed", [None, 0, 1, _TALLY_SAVED, _TALLY_SAVED + 2])
def test_verify_chain_reads_each_block_file_once_and_finds_one_changed_after_the_open(tally_chain, tmp_path, changed):
    # a block up to the savepoint that verify_chain parses, from a file
    # checked as it is read, used to be read and hashed once more after it
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    led = _open(root, tally_chaincode)  # genesis and blocks above the savepoint parsed, the others checked
    if changed is not None:
        _flip_byte(root / "blocks" / f"{changed}.json", 100)
    reads = []
    file_bytes, read_bytes = ledger_mod._file_bytes, Path.read_bytes

    def counted(path):
        reads.append(Path(path).relative_to(root).as_posix())

    with mock.patch.object(ledger_mod, "_file_bytes", lambda path: counted(path) or file_bytes(path)), \
            mock.patch.object(Path, "read_bytes", lambda self: counted(self) or read_bytes(self)):
        assert led.verify_chain() == changed
    if changed is None:
        heights = range(_TALLY_TXS // BLOCK_TX_LIMIT + 1)
        assert sorted(p for p in reads if p.startswith("blocks/")) == sorted(f"blocks/{h}.json" for h in heights)
        # a file read by an earlier call is read again
        _flip_byte(root / "blocks" / "1.json", 100)
        assert led.verify_chain() == 1


def test_a_block_file_carrying_a_second_block_hash_is_damage_at_its_height(tally_chain, tmp_path):
    # verify_chain does not hash again a file it parsed after checking it, so
    # the parse must carry the hash the file's bytes hash to
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    path = root / "blocks" / "2.json"
    content = b"{" + path.read_bytes()[ledger_mod._FILE_HASH_END + 2:-1] + b',"block_hash":"' + b"0" * 64 + b'"}'
    resealed = digest_hex(content)
    path.write_bytes(b'{"block_hash":"' + resealed.encode() + b'",' + content[1:])
    _reseal_up_to_the_tip(root, _TALLY_SAVED, lambda block: block.update(prev_hash=resealed))
    saved_hash = json.loads((root / "blocks" / f"{_TALLY_SAVED}.json").read_bytes())["block_hash"]

    def rebind(body):  # as if the savepoint had been written over the resealed files
        body["block_hash"] = saved_hash
        body["journals"][_TALLY_SAVED] = digest_hex((root / "writes" / f"{_TALLY_SAVED}.json").read_bytes())

    _rewrite_savepoint(root, rebind)
    led = _open(root, tally_chaincode)
    assert led.damage is None and type(led._blocks[2]) is ledger_mod._Head  # the open checked it, parsed nothing
    assert led.verify_chain() == 2


def test_a_forged_savepoint_with_a_valid_digest_is_served_until_verify_chain_finds_it(tally_chain, tmp_path):
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    honest = _open(root, tally_chaincode).query_state("k4")  # written in block 1 only
    _rewrite_savepoint(root, lambda body: body["state"].update(k4=base64.b64encode(b"forged").decode()))
    led = _open(root, tally_chaincode)
    assert led.damage is None and led.query_state("k4") == b"forged" != honest
    assert led.verify_chain() == _TALLY_SAVED
    assert led.damage == (_TALLY_SAVED, "savepoint holds other state than its blocks replay to")
    with pytest.raises(ChainDamaged, match=f"height {_TALLY_SAVED}: savepoint holds other state"):
        led.submit_tx(_payload(0), "plant-1")


def test_a_forged_savepoint_slice_of_no_transaction_is_damage_when_read(tally_chain, tmp_path):
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    _rewrite_savepoint(root, lambda body: body["state"].update(k4=[1, BLOCK_TX_LIMIT, 0, 1]))
    led = _open(root, tally_chaincode)
    with pytest.raises(ChainDamaged, match=f"^chain damaged at height {_TALLY_SAVED}: savepoint holds a slice"):
        led.query_state("k4")
    assert led.verify_chain() == _TALLY_SAVED


@pytest.mark.parametrize(
    "edit",
    [
        lambda body: body.update(height="3"),
        lambda body: body.update(journals=body["journals"][:-1]),
        lambda body: body["state"].update(k4=[1, 0, 0]),
        lambda body: body["state"].update(k4=[1, 0, -1, 1]),
        lambda body: body["state"].update(k4=[1, 0, True, 1]),
        lambda body: body["state"].update(k4=[_TALLY_SAVED + 1, 0, 0, 1]),
        lambda body: body["state"].update(k4="not base64!"),
        lambda body: body["state"].update(k4=None),
    ],
    ids=["height-text", "short-pins", "three-ints", "negative", "bool", "above-its-height", "not-base64", "null"],
)
def test_a_savepoint_that_is_not_one_is_not_used(tally_chain, tmp_path, edit):
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    _rewrite_savepoint(root, edit)
    assert ledger_mod._read_savepoint(_savepoint_path(root)) is None
    counting = Counting()
    assert _open(root, counting).damage is None and counting.calls == 0  # every journal applied


def test_an_open_uses_the_full_savepoint_and_the_delta_on_it(tally_chain, tmp_path):
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    without = tmp_path / "without"
    shutil.copytree(root, without)
    shutil.rmtree(without / "state")
    full = json.loads(_savepoint_path(root).read_bytes())["body"]
    delta = json.loads((root / "state" / "delta.json").read_bytes())["body"]
    assert (delta["height"], len(delta["journals"])) == (_TALLY_DELTA, _TALLY_DELTA - _TALLY_SAVED)
    assert delta["base"] == digest_hex(canonical_json(full))
    loaded = _open(without, tally_chaincode)
    above = range(_TALLY_SAVED + 1, _TALLY_DELTA + 1)
    assert set(delta["state"]) == {key for height in above for writes, _ in loaded._effects[height] for key in writes}
    counting = Counting()
    led = _open(root, counting)
    assert (led._savepoint.height, led._delta.height, counting.calls) == (_TALLY_SAVED, _TALLY_DELTA, 0)
    assert [type(block).__name__ for block in led._blocks] == ["Block", *["_Head"] * _TALLY_DELTA, "Block"]
    led = _open(root, tally_chaincode)
    assert led.state_digest() == loaded.state_digest() and led.verify_chain() is None


@pytest.mark.parametrize("forgery", ["value", "key dropped", "key added"])
def test_a_forged_delta_with_a_valid_digest_is_damage_at_its_height(tally_chain, tmp_path, forgery):
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    honest = _open(root, tally_chaincode)
    assert honest._delta is not None and honest.verify_chain() is None
    forged = base64.b64encode(b"forged").decode()
    # k44 is written in block 4 only
    edit = {
        "value": lambda body: body["state"].update(k44=forged),
        "key dropped": lambda body: body["state"].pop("k44"),
        # k4 is written in block 1 only: the delta holds it at its value, but no block above the full one writes it
        "key added": lambda body: body["state"].update(k4=base64.b64encode(honest.query_state("k4")).decode()),
    }[forgery]
    _rewrite_savepoint(root, edit, "delta")
    led = _open(root, tally_chaincode)
    assert led.damage is None and led._delta is not None
    if forgery == "value":
        assert led.query_state("k44") == b"forged" != honest.query_state("k44")
    assert led.verify_chain() == _TALLY_DELTA
    assert led.damage == (_TALLY_DELTA, "savepoint holds other state than its blocks replay to")
    with pytest.raises(ChainDamaged, match=f"height {_TALLY_DELTA}: savepoint holds other state"):
        led.submit_tx(_payload(0), "plant-1")


def test_a_forged_delta_slice_of_no_transaction_is_damage_at_its_height(tally_chain, tmp_path):
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    _rewrite_savepoint(root, lambda body: body["state"].update(k44=[_TALLY_DELTA, BLOCK_TX_LIMIT, 0, 1]), "delta")
    led = _open(root, tally_chaincode)
    with pytest.raises(ChainDamaged, match=f"^chain damaged at height {_TALLY_DELTA}: savepoint holds a slice"):
        led.query_state("k44")
    assert led.verify_chain() == _TALLY_DELTA


def _rebound(root):
    # the full savepoint, rewritten with one slice value in base64: the same
    # state under another body digest, so the delta is bound to an older one
    led = _open(root, tally_chaincode)
    value = base64.b64encode(led.query_state("k4")).decode()
    _rewrite_savepoint(root, lambda body: body["state"].update(k4=value))


@pytest.mark.parametrize(
    "change",
    [
        _rebound,
        lambda root: (root / "state" / "delta.json").write_bytes((root / "state" / "delta.json").read_bytes()[:-9]),
        lambda root: (root / "writes" / f"{_TALLY_DELTA}.json").unlink(),
        lambda root: _flip_byte(root / "writes" / f"{_TALLY_SAVED + 1}.json", 40),
        lambda root: _rewrite_savepoint(root, lambda body: body.update(height=_TALLY_DELTA + 2), "delta"),
        lambda root: _rewrite_savepoint(root, lambda body: body.update(height=_TALLY_SAVED), "delta"),
        lambda root: _rewrite_savepoint(root, lambda body: body["state"].update(t0=[_TALLY_SAVED, 0, 0, 1]), "delta"),
        lambda root: _rewrite_savepoint(root, lambda body: body.update(block_hash="0" * 64), "delta"),
        lambda root: _rewrite_savepoint(root, lambda body: body.update(members=[]), "delta"),
    ],
    ids=[
        "bound-to-an-older-full-one", "torn", "journal-deleted", "journal-changed", "above-the-tip",
        "at-the-full-height", "slice-below-the-full-one", "other-block-hash", "unknown-field",
    ],
)
def test_a_delta_the_open_cannot_use_is_ignored(tally_chain, tmp_path, change):
    root = tmp_path / "chain"
    shutil.copytree(tally_chain, root)
    change(root)
    without = tmp_path / "without"
    shutil.copytree(root, without)
    (without / "state" / "delta.json").unlink()
    led = _open(root, tally_chaincode)
    assert led._delta is None and led._savepoint.height == _TALLY_SAVED
    assert type(led._blocks[_TALLY_SAVED + 1]) is ledger_mod.Block  # loaded above the full savepoint
    assert _answers(root) == _answers(without)


_OPS = st.one_of(
    st.builds(lambda key, value: {"op": "set", "key": f"k{key}", "value": value}, st.integers(0, 5), st.integers()),
    st.builds(lambda key, value: {"op": "add", "key": f"t{key}", "value": value}, st.integers(0, 2), st.integers(0, 9)),
    st.just({"op": "bad"}),
)


@settings(max_examples=25, deadline=None)
@given(
    commits=st.lists(st.lists(_OPS, min_size=1, max_size=30), min_size=2, max_size=8),
    full_every=st.integers(1, 120),
    above=st.lists(_OPS, max_size=30),
)
def test_an_open_from_a_full_savepoint_and_a_delta_equals_one_that_loads_every_block_file(commits, full_every, above):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "chain"
        led = _open(root, tally_chaincode)
        tx_ids = []
        # a savepoint at every commit: a full one every ``full_every`` transactions, else a delta;
        # the last commit writes a delta, and the transactions ``above`` are cut above it without one
        for i, ops in enumerate([*commits, above]):
            for op in ops:
                tx_ids.append(led.submit_tx(json.dumps(op).encode(), "plant-1"))
            full = 10**9 if i >= len(commits) - 1 else full_every
            with mock.patch.object(ledger_mod, "_SAVEPOINT_MIN_TXS", full), \
                    mock.patch.object(ledger_mod, "_DELTA_MIN_TXS", 10**9 if i == len(commits) else 0):
                led.cut_all()
        without = Path(tmp) / "without"
        shutil.copytree(root, without)
        shutil.rmtree(without / "state")
        opened, loaded = _open(root, tally_chaincode), _open(without, tally_chaincode)
        assert opened._delta is not None and loaded._savepoint is None
        for probe in (
            lambda led: (led.height, led.tip_hash, led._next_sequence, led.state_digest(), led.state_items()),
            lambda led: [_tx_fields(led.get_transaction(tx_id)) for tx_id in tx_ids],
            lambda led: [[tx.tx_id for tx in led.get_history(key)] for key in [*(f"k{i}" for i in range(6)), "t0"]],
            lambda led: (led.verify_chain(), led.rebuilt_state_digest(), led.damage),
        ):
            assert probe(opened) == probe(loaded)
        assert opened.verify_chain() is None


def test_a_days_commit_writes_a_savepoint_bounded_by_the_keys_written_since_the_full_one(tmp_path, monkeypatch):
    # 30 days of 288 batches, each its own key, and four credit steps of one
    # transaction, at the thresholds the ledger ships with
    written = []
    publish = ledger_mod._publish
    monkeypatch.setattr(
        ledger_mod, "_publish",
        lambda path, data: (path.parent.name == "state" and written.append((path.name, len(data)))) or publish(path, data),
    )
    led = _open(tmp_path / "chain")
    commits, steps = {}, {}
    for day in range(1, 31):
        for window in range(288):
            op = {"op": "set", "key": f"batch/{day:02d}/{window:03d}", "value": window}
            led.submit_tx(json.dumps(op).encode(), "plant-1")
        written.clear()
        led.cut_all()
        commits[day] = list(written)
        written.clear()
        for step in range(4):
            led.submit_tx(json.dumps({"op": "set", "key": f"credit/{day:02d}", "value": step}).encode(), "plant-1")
            led.cut_all()
        steps[day] = list(written)
    assert all(len(commits[day]) == 1 for day in commits) and not any(steps.values())
    assert commits[1][0][0] == "savepoint.json" and commits[2][0][0] == "delta.json"
    assert commits[30][0][0] == "delta.json" and commits[30][0][1] <= 2 * commits[2][0][1]
    deltas = {day: size for day, [(name, size)] in commits.items() if name == "delta.json"}
    # the deltas written after the first full rewrites are no larger than those before them
    assert max(deltas[day] for day in deltas if day > 5) <= 1.1 * max(deltas[day] for day in deltas if day <= 5)
    fulls = [size for [(name, size)] in commits.values() if name == "savepoint.json"]
    assert len(fulls) == 8 and fulls == sorted(fulls)  # the full rewrite still grows with the chain
    assert _open(tmp_path / "chain")._delta.height == led.height - 4


def _tx_fields(tx):
    return tx.sequence, tx.tx_id, tx.payload_b64, tx.payload_digest, tx.submitter, tx.endorsement, tx.status, tx.reason


_TALLY_KEYS = sorted({"t0", "t1", "t2", "k2", "k99"} | {f"k{i}" for i in range(0, _TALLY_TXS, 4)})


def _answers(root):
    """What a fresh open of ``root`` answers, asked in one order: a
    ChainDamaged or KeyError raised is an answer too."""
    led = _open(root, tally_chaincode)

    def ask(probe):
        try:
            return probe()
        except (ChainDamaged, KeyError) as error:
            return f"{type(error).__name__}: {error}"

    tx_ids = [ledger_mod._tx_id(_tally_op(i), "plant-1", i) for i in range(_TALLY_TXS)] + ["0" * 64]
    out = [led.height, led.tip_hash, led.damage, led._next_sequence, ask(led.state_digest)]
    out += [ask(lambda key=key: led.query_state(key)) for key in _TALLY_KEYS]
    out.append(ask(led.state_items))
    out += [ask(lambda tx_id=tx_id: _tx_fields(led.get_transaction(tx_id))) for tx_id in tx_ids]
    out += [ask(lambda key=key: [tx.tx_id for tx in led.get_history(key)]) for key in _TALLY_KEYS]
    out.append(ask(lambda: [(b.height, b.block_hash, b.prev_hash, *map(_tx_fields, b.transactions)) for b in led.blocks()]))
    out += [ask(led.verify_chain), ask(led.rebuilt_state_digest), led.damage, ask(led.check_appendable)]
    assert multiprocessing.active_children() == []
    return out


def _flip_byte(path, at):
    raw = bytearray(path.read_bytes())
    raw[at % len(raw)] ^= 0x01
    path.write_bytes(bytes(raw))


def _changed(root, case, height, at):
    """Change the tally chain at ``root``: a block or journal at ``height``
    (past the genesis, which holds no transaction, where one is changed), or
    its full savepoint or delta."""
    block, journal = root / "blocks" / f"{height}.json", root / "writes" / f"{height}.json"
    saved = root / "state" / f"{case.split()[0]}.json"
    if case == "block byte":
        _flip_byte(block, at)
    elif case == "status resealed":
        _reseal_up_to_the_tip(root, max(height, 1), _flip_status(at % BLOCK_TX_LIMIT))
    elif case == "payload resealed":
        _reseal_up_to_the_tip(root, max(height, 1), _garble_payload(at % BLOCK_TX_LIMIT))
    elif case == "journal value":
        forged = {"k0": base64.b64encode(b"tampered").decode()}
        journal = root / "writes" / f"{max(height, 1)}.json"
        _rewrite_journal(journal, lambda body: body["txs"][at % BLOCK_TX_LIMIT].update(writes=forged))
    elif case == "journal deleted":
        journal.unlink(missing_ok=True)
    elif case == "journal deleted before the savepoint":
        # the savepoint, rewritten at the tip, pins the journal as missing
        journal.unlink(missing_ok=True)
        with mock.patch.object(ledger_mod, "_SAVEPOINT_MIN_TXS", 0), mock.patch.object(ledger_mod, "_DELTA_MIN_TXS", 0):
            _open(root, tally_chaincode).cut_all()
    elif case.endswith(" byte"):
        _flip_byte(saved, at)
    elif case.endswith(" truncated"):
        saved.write_bytes(saved.read_bytes()[:at % saved.stat().st_size])
    elif case.endswith(" deleted"):
        saved.unlink()


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from([
        "none", "block byte", "status resealed", "payload resealed", "journal value", "journal deleted",
        "journal deleted before the savepoint", "savepoint byte", "savepoint truncated", "savepoint deleted",
        "delta byte", "delta truncated", "delta deleted",
    ]),
    height=st.integers(0, _TALLY_TXS // BLOCK_TX_LIMIT),
    at=st.integers(0, 2**16),
)
# a garbled payload above the savepoint, of a value the open reads from below it
@example(case="payload resealed", height=_TALLY_SAVED + 1, at=0)
@example(case="journal deleted before the savepoint", height=2, at=0)
@example(case="journal deleted before the savepoint", height=_TALLY_DELTA, at=0)
# a value of the delta, and a pin of it
@example(case="delta byte", height=0, at=200)
@example(case="journal value", height=_TALLY_DELTA, at=0)
def test_an_open_from_a_savepoint_answers_as_one_that_loads_every_block_file(tally_chain, case, height, at):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "chain"
        shutil.copytree(tally_chain, root)
        _changed(root, case, height, at)
        without = Path(tmp) / "without"
        shutil.copytree(root, without)
        shutil.rmtree(without / "state")
        assert _answers(root) == _answers(without)


# -- state machine: live, rebuilt and reopened state agree ----------------------

KEYS = 4


def _histories(led):
    """Each key's history as tx ids, without the pending transactions."""
    committed = {tx.tx_id for block in led.blocks() for tx in block.transactions}
    return {k: [t.tx_id for t in led.get_history(f"k{k}") if t.tx_id in committed] for k in range(KEYS)}


def _parses(path):
    try:
        json.loads(path.read_bytes())
    except ValueError:
        return False
    return True


class LedgerMachine(RuleBasedStateMachine):
    """Random submits, cuts, reopens and tip truncations on the echo chaincode."""

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp())
        self.root = self.tmp / "chain"
        self.led = _open(self.root)
        self.damaged = None  # height of the truncated tip block or the rewritten journal
        self.files = None  # every file under the chain root when it was damaged

    def teardown(self):
        shutil.rmtree(self.tmp)

    @precondition(lambda self: self.damaged is None)
    @rule(key=st.integers(0, KEYS - 1), value=st.integers(0, 9))
    def submit_valid(self, key, value):
        tx = self.led.get_transaction(self.led.submit_tx(_payload(key, value=value), "plant-1"))
        assert tx.status == "VALID"

    @precondition(lambda self: self.damaged is None)
    @rule(payload=st.sampled_from([b'{"op": "bad"}', b"not json", b"[1,2]", b"\xff\x00"]))
    def submit_rejected(self, payload):
        tx = self.led.get_transaction(self.led.submit_tx(payload, "plant-1"))
        assert (tx.status, tx.reason) == ("INVALID", "structure")

    @precondition(lambda self: self.damaged is None)
    @rule(drain=st.booleans())
    def cut(self, drain):
        if drain:
            self.led.cut_all()
        else:
            self.led.cut_block()

    @precondition(lambda self: self.damaged is None)
    @rule()
    def reopen(self):
        # pending transactions were never committed, so a reopen drops them
        committed = self.led.rebuilt_state_digest()
        live = self.led.state_digest() if self.led.pending_count == 0 else None
        histories = _histories(self.led)
        self.led = _open(self.root)
        assert self.led.state_digest() == committed and _histories(self.led) == histories
        if live is not None:
            assert self.led.state_digest() == live
        assert self.led.verify_chain() is None

    @precondition(lambda self: self.damaged is None)
    @rule(data=st.data())
    def truncate_tip(self, data):
        path = self.root / "blocks" / f"{self.led.height}.json"
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
        self.damaged = self.led.height
        self.files = _files(self.root)
        self.reopen_damaged()

    @precondition(lambda self: self.damaged is not None)
    @rule()
    def reopen_damaged(self):
        self.led = _open(self.root)
        assert self.led.verify_chain() == self.damaged
        with pytest.raises(ChainDamaged):
            self.led.submit_tx(_payload(0), "plant-1")
        assert self.led.cut_all() == []
        assert _files(self.root) == self.files

    @invariant()
    def live_state_is_replayable(self):
        if self.damaged is None and self.led.pending_count == 0:
            assert self.led.state_digest() == self.led.rebuilt_state_digest()


class JournaledLedgerMachine(LedgerMachine):
    """The same, with deletions, truncations and rewrites of journals."""

    def _journals(self):
        """The journal files not yet truncated."""
        return [p for p in sorted((self.root / "writes").glob("*.json"), key=lambda p: int(p.stem)) if _parses(p)]

    @precondition(lambda self: self.damaged is None)
    @rule(data=st.data(), delete=st.booleans())
    def drop_journal(self, data, delete):
        # a journal is a cache: without it the open re-executes that block
        journals = self._journals()
        if not journals:
            return
        path = data.draw(st.sampled_from(journals), label="journal")
        if delete:
            path.unlink()
        else:
            raw = path.read_bytes()
            path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
        self.reopen()

    @precondition(lambda self: self.damaged is None)
    @rule(data=st.data())
    def rewrite_journal(self, data):
        # a resealed journal with other writes is applied by the open, and only
        # verify_chain's re-execution finds it
        journals = self._journals()
        if not journals:
            return
        path = data.draw(st.sampled_from(journals), label="journal")

        def tamper(body):
            body["txs"][0]["writes"] = {"k0": base64.b64encode(b"tampered").decode()}

        _rewrite_journal(path, tamper)
        self.damaged = int(path.stem)
        self.files = _files(self.root)
        self.led = _open(self.root)
        assert self.led.verify_chain() == self.damaged
        with pytest.raises(ChainDamaged, match=f"height {self.damaged}: .* other writes than its journal"):
            self.led.submit_tx(_payload(0), "plant-1")


LedgerMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
JournaledLedgerMachine.TestCase.settings = LedgerMachine.TestCase.settings
test_ledger_state_machine = LedgerMachine.TestCase
test_journaled_ledger_state_machine = JournaledLedgerMachine.TestCase


def test_a_failed_publish_leaves_no_temp_file(tmp_path):
    (tmp_path / "savepoint.json").mkdir()
    assert ledger_mod._publish(tmp_path / "savepoint.json", b"{}") is False
    assert ledger_mod._publish(tmp_path / "delta.json", b"{}") is True
    assert sorted(p.name for p in tmp_path.iterdir()) == ["delta.json", "savepoint.json"]
