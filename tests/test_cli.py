"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "SwitchV2P" in out
    assert "hadoop" in out
    assert "fig5a" in out


def test_run_small_experiment(capsys):
    code = main(["run", "--trace", "hadoop", "--scheme", "SwitchV2P",
                 "--cache-ratio", "4", "--vms", "64", "--flows", "100",
                 "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "hit rate" in out
    assert "avg FCT [us]" in out


def test_run_nocache(capsys):
    code = main(["run", "--trace", "hadoop", "--scheme", "NoCache",
                 "--vms", "64", "--flows", "50"])
    assert code == 0
    assert "NoCache" in capsys.readouterr().out


def test_reproduce_table6(capsys):
    assert main(["reproduce", "table6"]) == 0
    out = capsys.readouterr().out
    assert "SRAM" in out
    assert "Hash Bits" in out


def test_reproduce_fig5a_tiny(capsys):
    code = main(["reproduce", "fig5a", "--vms", "64", "--flows", "80",
                 "--ratios", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SwitchV2P" in out
    assert "hit rate" in out


def test_migrate_tiny(capsys):
    assert main(["migrate", "--senders", "4", "--packets", "50"]) == 0
    out = capsys.readouterr().out
    assert "timestamp vector" in out


def test_workers_flag_does_not_touch_environment(monkeypatch, capsys):
    """--workers threads through call arguments, never the environment.

    Mutating REPRO_PARALLEL from the CLI leaked parallelism into the
    calling process (and any later sequential run in the same process);
    the flag must leave the environment exactly as it found it.
    """
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    code = main(["--workers", "2", "reproduce", "fig5a", "--vms", "64",
                 "--flows", "80", "--ratios", "4"])
    assert code == 0
    assert "REPRO_PARALLEL" not in os.environ
    assert "SwitchV2P" in capsys.readouterr().out


def test_cache_info(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert "entries" in out
    assert "no (REPRO_RUNCACHE=0)" in out  # conftest disables the default


def test_cache_clear(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    from repro.experiments.runcache import RunCache
    from repro.experiments.runner import run_experiment
    from repro.transport.flow import FlowSpec

    from conftest import tiny_spec

    flows = [FlowSpec(src_vip=i % 8, dst_vip=(i + 1) % 8,
                      size_bytes=2_000, start_ns=i * 10_000)
             for i in range(8)]
    store = RunCache(tmp_path)
    run_experiment(tiny_spec(), "SwitchV2P", flows, 8, 4.0, 0, cache=store)
    assert len(store.entries()) == 1
    assert main(["cache", "clear"]) == 0
    assert "removed 1 cached run(s)" in capsys.readouterr().out
    assert store.entries() == []


def test_parser_rejects_unknown_scheme():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--scheme", "Nonsense"])


def test_parser_rejects_unknown_artifact():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["reproduce", "fig99"])
