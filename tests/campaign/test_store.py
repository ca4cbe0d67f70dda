"""Result store: run keys, schema versioning, record round-trips."""

import json
import logging

import pytest

from repro.campaign.store import SCHEMA_VERSION, ResultStore, run_key
from repro.errors import ConfigurationError


def test_run_key_depends_on_scenario_and_params():
    base = run_key("table1", {"seed": 0})
    assert base == run_key("table1", {"seed": 0})
    assert base != run_key("table1", {"seed": 1})
    assert base != run_key("fig4", {"seed": 0})


def test_run_key_ignores_param_order():
    assert run_key("x", {"a": 1, "b": 2}) == run_key("x", {"b": 2, "a": 1})


def test_run_key_rejects_unserialisable_params():
    with pytest.raises(ConfigurationError, match="JSON"):
        run_key("x", {"rng": object()})


def test_save_load_roundtrip(tmp_path):
    store = ResultStore(tmp_path)
    params = {"seed": 3}
    path = store.save("demo", params, {"value": 1.5})
    record = store.load("demo", params)
    assert path.exists()
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["scenario"] == "demo"
    assert record["result"] == {"value": 1.5}
    assert store.load("demo", {"seed": 4}) is None


def test_stale_schema_treated_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    params = {"seed": 0}
    path = store.save("demo", params, {"value": 1})
    record = json.loads(path.read_text())
    record["schema_version"] = SCHEMA_VERSION - 1
    path.write_text(json.dumps(record))
    assert store.load("demo", params) is None
    assert list(store.iter_records()) == []


def test_corrupt_record_treated_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    params = {"seed": 0}
    path = store.save("demo", params, {"value": 1})
    path.write_text("{not json")
    assert store.load("demo", params) is None


def test_iter_records_filters_by_scenario(tmp_path):
    store = ResultStore(tmp_path)
    store.save("a", {"seed": 0}, {"v": 1})
    store.save("a", {"seed": 1}, {"v": 2})
    store.save("b", {"seed": 0}, {"v": 3})
    assert len(list(store.iter_records())) == 3
    assert len(list(store.iter_records("a"))) == 2
    assert [r["scenario"] for r in store.iter_records("b")] == ["b"]


def test_records_written_deterministically(tmp_path):
    first = ResultStore(tmp_path / "one")
    second = ResultStore(tmp_path / "two")
    payload = {"z": 1, "a": [1.5, 2.25], "nested": {"k": True}}
    path_one = first.save("demo", {"seed": 5}, payload)
    path_two = second.save("demo", {"seed": 5}, payload)
    assert path_one.read_bytes() == path_two.read_bytes()


def test_failed_write_keeps_previous_record(tmp_path, monkeypatch):
    """A save that dies mid-write leaves the previous record
    byte-identical and no temporary file behind."""
    store = ResultStore(tmp_path)
    params = {"seed": 0}
    path = store.save("demo", params, {"value": 1})
    before = path.read_bytes()

    class _DiskFull:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(
        "repro.campaign.store.open",
        lambda *args, **kwargs: _DiskFull(open(*args, **kwargs)),
        raising=False,
    )
    with pytest.raises(OSError, match="no space"):
        store.save("demo", params, {"value": 2, "padding": "x" * 4096})
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    assert store.load("demo", params)["result"] == {"value": 1}


def _store_warnings(caplog):
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "repro.campaign.store" and record.levelno == logging.WARNING
    ]


def test_iter_records_warns_and_skips_corrupt_files(tmp_path, caplog):
    # A partially-written (truncated) record must not crash `campaign
    # report`: the damaged file is skipped with a warning naming it,
    # and every healthy record still comes through.
    store = ResultStore(tmp_path)
    store.save("demo", {"seed": 0}, {"value": 1})
    truncated = store.save("demo", {"seed": 1}, {"value": 2})
    truncated.write_text(truncated.read_text()[:20])
    with caplog.at_level(logging.WARNING):
        records = list(store.iter_records())
    assert [r["params"]["seed"] for r in records] == [0]
    [message] = _store_warnings(caplog)
    assert "corrupt" in message and truncated.name in message


def test_iter_records_warns_on_non_object_json(tmp_path, caplog):
    # Valid JSON that is not a record object (e.g. a file truncated to
    # `null`) used to crash on `.get`; now it is skipped with a warning.
    store = ResultStore(tmp_path)
    store.save("demo", {"seed": 0}, {"value": 1})
    rogue = tmp_path / "demo" / "rogue.json"
    rogue.write_text("null\n")
    with caplog.at_level(logging.WARNING):
        records = list(store.iter_records("demo"))
    assert len(records) == 1
    [message] = _store_warnings(caplog)
    assert "malformed" in message and "rogue.json" in message
    assert store.load("demo", {"seed": 0})["result"] == {"value": 1}


def test_load_treats_non_object_json_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    params = {"seed": 0}
    path = store.save("demo", params, {"value": 1})
    path.write_text("[1, 2, 3]\n")
    assert store.load("demo", params) is None


def test_schema_mismatch_skipped_silently_not_warned(tmp_path, caplog):
    # A stale schema version is a cache miss, not damage: no warning.
    store = ResultStore(tmp_path)
    path = store.save("demo", {"seed": 0}, {"value": 1})
    record = json.loads(path.read_text())
    record["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(record))
    with caplog.at_level(logging.DEBUG):
        assert list(store.iter_records()) == []
    assert caplog.records == []


def test_campaign_report_survives_corrupt_store(tmp_path, capsys, caplog):
    # End to end: the CLI report over a store with one damaged file
    # still renders the healthy records and exits zero.
    from repro.cli import main

    store = ResultStore(tmp_path)
    store.save("demo", {"seed": 0}, {"value": 1})
    broken = store.save("demo", {"seed": 1}, {"value": 2})
    broken.write_text('{"schema_version": 1, "trunc')
    with caplog.at_level(logging.WARNING):
        code = main(["campaign", "report", "--results-dir", str(tmp_path)])
    assert code == 0
    [message] = _store_warnings(caplog)
    assert broken.name in message
    out = capsys.readouterr().out
    assert "1 stored record(s)" in out
