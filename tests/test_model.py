import hashlib
import json
import os
import random
import stat
from datetime import date, datetime, timezone

import pytest
from hypothesis import example, given, strategies as st

from carboncert import audit, model
from carboncert.aggregator import make_batches
from carboncert.model import (
    NonAligned,
    Quality,
    canonical_json,
    digest_hex,
    format_ts,
    parse_date,
    parse_ts,
    window_index,
    write_atomic,
    write_new,
)


def test_timestamp_round_trip():
    assert format_ts(parse_ts("2025-06-01T10:15:37Z")) == "2025-06-01T10:15:37Z"


def _outcome(fn, *args):
    """fn's result, or the exception type it raised."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc)


def _strptime_epoch(text, fmt="%Y-%m-%dT%H:%M:%SZ"):
    dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _fixed_width(text, template):
    """Whether text spells template with each "d" an ASCII digit."""
    return len(text) == len(template) and all(
        c in "0123456789" if t == "d" else c == t for c, t in zip(text, template)
    )


def _arabic_indic(text):
    """The same text with Arabic-Indic digits, which \\d, int() and strptime take."""
    return text.translate({ord(c): 0x660 + int(c) for c in "0123456789"})


@st.composite
def timestamp_texts(draw):
    """Timestamp-like strings: the fixed-width form, half of them with one field
    out of range, some unpadded, with other separators or with non-ASCII digits."""
    dt = draw(st.datetimes(min_value=datetime(1, 1, 1)))
    fields = [dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second]
    if draw(st.booleans()):
        i = draw(st.integers(0, 5))
        fields[i] = draw(st.integers(0, 9999 if i == 0 else 99))
    widths = [4, 2, 2, 2, 2, 2]
    if draw(st.integers(0, 3)) == 0:  # unpadded
        widths = [draw(st.sampled_from([1, w])) for w in widths]
    y, mo, d, h, mi, s = (f"{v:0{w}d}" for v, w in zip(fields, widths))
    t, z = draw(st.sampled_from([("T", "Z"), ("T", "Z"), ("t", "z"), ("T", "z"), (" ", "Z"), ("T", "")]))
    text = f"{y}-{mo}-{d}{t}{h}:{mi}:{s}{z}"
    if draw(st.integers(0, 9)) == 0:
        text = _arabic_indic(text)
    return text


@given(text=timestamp_texts())
@example(text="2025-06-01T00:00:60Z")
@example(text="2025-06-01T00:00:61Z")
@example(text="2025-06-01T24:00:00Z")
@example(text="2025-02-30T00:00:00Z")
@example(text="2024-02-29T00:00:00Z")
@example(text="2025-02-29T00:00:00Z")
@example(text="0000-01-01T00:00:00Z")
@example(text="0001-01-01T00:00:00Z")
@example(text="2025-06-01T00:00:00Z\n")
@example(text="2025-6-1T0:0:0Z")
@example(text="2025-06-01t00:00:00z")
@pytest.mark.parametrize("parse", [parse_ts, audit._epoch], ids=["parse_ts", "audit_epoch"])
def test_timestamp_parsers_match_strptime(parse, text):
    expected = _outcome(_strptime_epoch, text)
    if not _fixed_width(text, "dddd-dd-ddTdd:dd:ddZ"):
        expected = ValueError  # the pipeline and the audit take the canonical spelling only
    assert _outcome(parse, text) == expected


def _datetime_epoch(text):
    """parse_ts as it was before it cached dates: one datetime() per call."""
    if not _fixed_width(text, "dddd-dd-ddTdd:dd:ddZ"):
        raise ValueError(text)
    fields = (text[0:4], text[5:7], text[8:10], text[11:13], text[14:16], text[17:19])
    return int(datetime(*map(int, fields), tzinfo=timezone.utc).timestamp())


_DATES = ["2025-06-01", "2024-02-29", "2025-02-29", "2025-02-30", "0000-01-01", "0001-01-01",
          "9999-12-31", "2025-13-01", "2025-00-10", _arabic_indic("2025-06-01")]


@given(
    texts=st.lists(
        st.tuples(st.sampled_from(_DATES), st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)).map(
            lambda t: "%sT%02d:%02d:%02dZ" % t
        ),
        max_size=30,
    )
)
@example(texts=["2025-06-01T23:59:59Z", "2025-06-01T23:59:60Z", "2025-06-01T24:00:00Z", "2025-06-01T00:60:00Z"])
@example(texts=["2025-02-30T00:00:00Z", "2025-02-30T00:00:00Z", "0000-01-01T00:00:00Z", "2025-02-28T12:00:00Z"])
@example(texts=[_arabic_indic("2025-06-01T00:00:00Z"), "2025-06-01T00:00:00Z", "2025-06-01T00:00:0\u0660Z"])
def test_parse_ts_agrees_with_the_datetime_reference_on_repeated_dates(texts):
    # parse_ts takes a date's midnight from a cache, the audit's _epoch from the
    # dict its caller passes; times on a date already parsed, valid or not,
    # must still give the reference's epoch or ValueError
    midnights = {}
    for text in texts:
        expected = _outcome(_datetime_epoch, text)
        assert _outcome(parse_ts, text) == expected
        assert _outcome(audit._epoch, text, midnights) == expected


@st.composite
def date_texts(draw):
    """Date-like strings: YYYY-MM-DD, half of them with one field out of range,
    some unpadded, some with non-ASCII digits or trailing whitespace."""
    day = draw(st.dates(min_value=date(1, 1, 1)))
    fields = [day.year, day.month, day.day]
    if draw(st.booleans()):
        i = draw(st.integers(0, 2))
        fields[i] = draw(st.integers(0, 9999 if i == 0 else 99))
    widths = [4, 2, 2]
    if draw(st.integers(0, 3)) == 0:  # unpadded
        widths = [draw(st.sampled_from([1, w])) for w in widths]
    text = "-".join(f"{v:0{w}d}" for v, w in zip(fields, widths))
    if draw(st.integers(0, 9)) == 0:
        text = _arabic_indic(text)
    return text + draw(st.sampled_from(["", "", "", "\n", " "]))


@given(text=date_texts())
@example(text="2025-06-01")
@example(text="2025-6-1")
@example(text="2025-06-1")
@example(text="2025-06-01\n")
@example(text="2025-02-30")
@example(text="2024-02-29")
@example(text="0000-01-01")
@example(text="\u0662\u0660\u0662\u0665-\u0660\u0666-\u0660\u0661")
def test_parse_date_takes_the_canonical_spelling_only(text):
    expected = _outcome(_strptime_epoch, text, "%Y-%m-%d")
    if not _fixed_width(text, "dddd-dd-dd"):
        expected = ValueError
    assert _outcome(parse_date, text) == expected


def test_timestamp_ordering_matches_chronology():
    a = parse_ts("2025-06-01T10:15:37Z")
    b = parse_ts("2025-06-01T10:15:38Z")
    assert a < b


def test_window_index_origin():
    assert window_index(parse_ts("2025-06-01T00:00:00Z")) == 0


def test_window_index_floor():
    assert window_index(parse_ts("2025-06-01T00:07:00Z")) == 1  # floor(7/5)


def test_window_index_last_minute():
    assert window_index(parse_ts("2025-06-01T23:59:00Z")) == 287  # floor(1439/5)


def test_window_index_rejects_nonaligned():
    with pytest.raises(NonAligned):
        window_index(parse_ts("2025-06-01T00:07:30Z"))


def test_window_index_partitions_day_into_288_classes_of_5():
    day0 = parse_ts("2025-06-01T00:00:00Z")
    buckets = {}
    for m in range(1440):
        buckets.setdefault(window_index(day0 + 60 * m), []).append(m)
    assert len(buckets) == 288
    assert all(len(v) == 5 for v in buckets.values())


def _agg(minute, power=24000.0, voltage=230.0, freq=50.0, n=24, quality=Quality.OK, flags=()):
    return {
        "minute_start": format_ts(minute),
        "total_power": power,
        "avg_voltage": voltage,
        "avg_frequency": freq,
        "phase_count": n,
        "quality": quality.value,
        "flags": list(flags),
    }


def _batch(minutes_powers, producer="plant-1"):
    start = min(m for m, _ in minutes_powers)
    start -= start % 300
    return {
        "batch_id": model.batch_id_for(producer, start),
        "window_start": format_ts(start),
        "window_end": format_ts(start + 300),
        "producer_id": producer,
        "schema_version": 1,
        "aggregates": [_agg(m, p) for m, p in minutes_powers],
    }


def test_canonical_serialize_deterministic():
    b = _batch([(parse_ts("2025-06-01T10:15:00Z") + 60 * i, 1000.0 * i) for i in range(5)])
    assert canonical_json(b) == canonical_json(b)


def test_canonical_serialize_sorts_aggregates():
    # make_batches puts a window's aggregates in minute order, whatever order they come in
    minutes = [(parse_ts("2025-06-01T10:15:00Z") + 60 * i, 100.0 * i) for i in range(3)]
    aggs = _batch(minutes)["aggregates"]
    (b1,), _ = make_batches(aggs, "plant-1")
    (b2,), _ = make_batches(aggs[::-1], "plant-1")
    assert canonical_json(b1) == canonical_json(b2) == canonical_json(_batch(minutes))


def test_canonical_serialize_three_decimal_reals():
    b = _batch([(parse_ts("2025-06-01T10:15:00Z"), 24000.0)])
    assert b'"total_power":24000.000' in canonical_json(b)


def test_canonical_serialize_null_for_absent_averages():
    b = _batch([(parse_ts("2025-06-01T10:15:00Z"), 0.0)])
    b["aggregates"][0]["avg_voltage"] = None
    b["aggregates"][0]["phase_count"] = 0
    assert b'"avg_voltage":null' in canonical_json(b)


def test_canonical_serialize_injective_over_field_changes():
    rng = random.Random(42)
    base_minute = parse_ts("2025-06-01T10:15:00Z")
    for _ in range(200):
        b1 = _batch([(base_minute + 60 * i, rng.uniform(0, 90000)) for i in range(5)])
        b2 = _batch([(base_minute + 60 * i, rng.uniform(0, 90000)) for i in range(5)])
        if canonical_json(b1) == canonical_json(b2):
            # equal bytes must mean equal (3-decimal) content
            assert [round(a["total_power"], 3) for a in b1["aggregates"]] == [
                round(a["total_power"], 3) for a in b2["aggregates"]
            ]


def test_canonical_json_normalizes_negative_zero():
    assert canonical_json(-0.0) == b"0.000"


def _emit_oracle(value) -> str:
    """The recursive emitter canonical_json had before its exact-type fast paths."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        return format(value + 0.0, ".3f")  # +0.0 normalizes -0.0
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit_oracle(v) for v in value) + "]"
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            items.append(json.dumps(key) + ":" + _emit_oracle(value[key]))
        return "{" + ",".join(items) + "}"
    raise TypeError(f"not canonically serializable: {type(value)!r}")


_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, -0.0004, 0.0005, 1e300]),
    st.text(),
    st.text("aé\u2603\U0001f600\"\\\n\x00"),
    st.sampled_from(Quality),
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
        st.dictionaries(st.sampled_from(Quality), children, max_size=3),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    ),
    max_leaves=30,
)


@given(_json_values)
@example({"a": [1, 2.5, None, True, False], "b": {"nested": -0.0, "s": 'quote"inside'}})
@example({Quality.OK: 1, "OK": 2.0})
@example([float("nan"), float("inf"), float("-inf"), -0.0])
@example({"x": {1, 2}})
@example({1: "a", "b": 2})
def test_canonical_json_matches_recursive_oracle(value):
    expected = _outcome(_emit_oracle, value)
    expected = expected.encode("utf-8") if isinstance(expected, str) else expected
    assert _outcome(canonical_json, value) == expected


def test_digest_deterministic():
    assert digest_hex(b"abc") == digest_hex(b"abc")


def test_digest_is_sha256_reference_vector():
    # published SHA-256 empty-input digest
    assert (
        digest_hex(b"")
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert digest_hex(b"") == hashlib.sha256(b"").hexdigest()


def test_digest_bit_flip_changes_output():
    rng = random.Random(1)
    for _ in range(100):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 64)))
        i = rng.randrange(len(data))
        flipped = bytes(
            b ^ (1 << rng.randrange(8)) if j == i else b for j, b in enumerate(data)
        )
        assert digest_hex(data) != digest_hex(flipped)


def test_hash_hex_is_64_lowercase_chars():
    h = digest_hex(b"payload")
    assert len(h) == 64 and h == h.lower()


def test_emission_config_bounds():
    model.EmissionConfig(factor_kg_per_kwh=0.25)
    model.EmissionConfig(factor_kg_per_kwh=1.06)
    with pytest.raises(ValueError):
        model.EmissionConfig(factor_kg_per_kwh=0.2)
    with pytest.raises(ValueError):
        model.EmissionConfig(factor_kg_per_kwh=1.2)
    with pytest.raises(ValueError):
        model.EmissionConfig(plant_capacity_watts=0)


def test_batch_id_embeds_producer_date_window():
    start = parse_ts("2025-06-01T10:15:00Z")
    assert model.batch_id_for("plant-1", start) == "plant-1-20250601-123"


def test_write_atomic_replaces_whole_file_and_leaves_no_temp(tmp_path, monkeypatch):
    synced = []  # per fsync call: whether it synced a directory
    fsync = os.fsync

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    path = tmp_path / "3.json"
    path.write_bytes(b"old contents, longer than the new ones")
    write_atomic(path, b"new")
    assert path.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["3.json"]
    assert synced == [False, True]  # the file, then the directory holding the rename


def test_write_new_publishes_whole_and_never_over_a_file(tmp_path, monkeypatch):
    synced = []  # per fsync call: whether it synced a directory
    fsync = os.fsync

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    path = tmp_path / "3.json"
    write_new(path, b"first")
    assert path.read_bytes() == b"first" and synced == [False, True]  # the file, then the directory
    with pytest.raises(FileExistsError):
        write_new(path, b"second")
    assert path.read_bytes() == b"first"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["3.json"]  # no temp file left either way


def test_two_writers_of_one_path_race_to_no_error_and_a_whole_file(tmp_path):
    # a shared temp name used to let one writer rename the other's temp file
    # away (FileNotFoundError) or truncate it just before it was published
    path = tmp_path / "audit-2025-06-01.json"
    payloads = (b"A" * 4096, b"B" * 8192)

    def publish_many(data):
        for _ in range(200):
            write_atomic(path, data)

    writers = [model.Forked(publish_many, data) for data in payloads]
    assert [writer.join() for writer in writers] == [(True, None), (True, None)]
    assert path.read_bytes() in payloads
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    (tmp_path / "target.json").mkdir()
    with pytest.raises(IsADirectoryError):
        write_atomic(tmp_path / "target.json", b"{}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target.json"]
