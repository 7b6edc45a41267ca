"""Tests for the command-line interface."""

import argparse
import os

import pytest

from repro.cli import build_parser, main
from repro.experiments.artifacts import ARTIFACTS, simulate
from repro.experiments.figures import FigureScale
from repro.experiments.parallel import ExperimentJob, parallel_run_experiments
from repro.experiments.runcache import RunCache

SUBCOMMANDS = ("list", "run", "reproduce", "chaos", "cache", "trace")


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "SwitchV2P" in out
    assert "hadoop" in out
    assert "fig5a" in out


def test_run_small_experiment(capsys):
    code = main(["run", "--trace", "hadoop", "--scheme", "SwitchV2P",
                 "--cache-ratio", "4", "--num-vms", "64", "--hadoop-flows",
                 "100", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "hit rate" in out
    assert "avg FCT [us]" in out
    # Under the table: wall clock and full collector passes per phase.
    assert any(line.startswith("phase build") and "full gc" in line
               for line in out.splitlines())


def test_run_nocache(capsys):
    code = main(["run", "--trace", "hadoop", "--scheme", "NoCache",
                 "--num-vms", "64", "--hadoop-flows", "50"])
    assert code == 0
    assert "NoCache" in capsys.readouterr().out


def test_reproduce_table6(capsys):
    assert main(["reproduce", "table6"]) == 0
    out = capsys.readouterr().out
    assert "SRAM" in out
    assert "Hash Bits" in out


@pytest.mark.parametrize("trace, scheme, size", [
    ("websearch", "SwitchV2P", ["--websearch-flows", "20"]),
    ("hadoop", "Bluebird", ["--hadoop-flows", "200"])])
def test_run_is_one_point_of_its_sweep(trace, scheme, size, monkeypatch,
                                       capsys):
    """``run`` used to leave out the jumbo-MSS transport and Bluebird's
    channel sizing the sweep applies, and got another result."""
    scale = FigureScale(num_vms=64, websearch_flows=20, hadoop_flows=200,
                        ratios=(4.0,))
    stem = {"websearch": "fig5c_websearch", "hadoop": "fig5a_hadoop"}[trace]
    [row] = [row for row in simulate([ARTIFACTS[stem]], scale)[stem]
             if row.scheme == scheme]
    runs = []
    run = ExperimentJob.run
    monkeypatch.setattr(ExperimentJob, "run", lambda job, **options: (
        runs.append(run(job, **options)) or runs[-1]))
    assert main(["run", "--trace", trace, "--scheme", scheme,
                 "--cache-ratio", "4", "--num-vms", "64", *size]) == 0
    assert runs == [row.result]


def test_run_memory_bypasses_the_run_cache(monkeypatch, tmp_path, capsys):
    """``run`` simulates on every call, ``--memory`` or not: a stored
    result has no phases to time."""
    monkeypatch.setenv("REPRO_RUNCACHE", "1")
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    assert main(["run", "--num-vms", "32", "--hadoop-flows", "20"]) == 0
    assert "phase run " in capsys.readouterr().out
    assert main(["run", "--num-vms", "32", "--hadoop-flows", "20",
                 "--memory"]) == 0
    out = capsys.readouterr().out
    assert "phase run-warmup" in out
    assert "mem   build" in out
    assert RunCache(tmp_path).entries() == []


def test_reproduce_fig5a_tiny(capsys):
    code = main(["reproduce", "fig5a", "--num-vms", "64", "--hadoop-flows",
                 "80", "--ratios", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SwitchV2P" in out
    assert "hit rate" in out


def test_migrate_tiny(capsys):
    assert main(["reproduce", "table4_migration", "--num-senders", "4",
                 "--packets-per-sender", "50"]) == 0
    out = capsys.readouterr().out
    assert "timestamp vector" in out


@pytest.mark.parametrize("vip", ["99", "2"])
def test_an_incast_destination_no_vm_can_be_exits_2_naming_it(vip, capsys):
    """99 is placed nowhere and used to end in a MappingError traceback;
    2 is a sender, which sent to itself while the table printed."""
    with pytest.raises(SystemExit) as exit_:
        main(["reproduce", "table4_migration", "--num-senders", "4",
              "--packets-per-sender", "20", "--destination-vip", vip])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "destination_vip must be 0 or num_senders + 1 (5)" in err
    assert f"got {vip}" in err


@pytest.mark.parametrize("vip", ["0", "5"])
def test_an_incast_destination_outside_the_senders_runs(vip, capsys):
    assert main(["reproduce", "table4_migration", "--num-senders", "4",
                 "--packets-per-sender", "20", "--destination-vip", vip]) == 0
    assert "timestamp vector" in capsys.readouterr().out


def test_workers_flag_does_not_touch_environment(monkeypatch, capsys):
    """--workers threads through call arguments, never the environment.

    Mutating REPRO_PARALLEL from the CLI leaked parallelism into the
    calling process (and any later sequential run in the same process);
    the flag must leave the environment exactly as it found it.
    """
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    code = main(["--workers", "2", "reproduce", "fig5a", "--num-vms", "64",
                 "--hadoop-flows", "80", "--ratios", "4"])
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
    from repro.transport.flow import FlowSpec

    from conftest import tiny_spec

    flows = [FlowSpec(src_vip=i % 8, dst_vip=(i + 1) % 8,
                      size_bytes=2_000, start_ns=i * 10_000)
             for i in range(8)]
    store = RunCache(tmp_path)
    parallel_run_experiments([ExperimentJob(tiny_spec(), "SwitchV2P", flows,
                                            8, 4.0)], workers=0, cache=store)
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


def test_the_subcommands_are_the_six_and_each_help_renders(capsys):
    """A generated flag whose annotation argparse cannot take fails the
    ``--help`` of its command here, not a run."""
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert tuple(commands.choices) == SUBCOMMANDS
    for name in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exit_:
            main([name, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {name}")


#: A known failure: a switch that keeps its cache across a power cycle.
_FAILING_CHAOS = ["chaos", "--trials", "4", "--seed", "6",
                  "--bug", "skip-cache-flush", "--num-vms", "16",
                  "--num-flows", "24"]


def test_a_failing_chaos_run_is_reproduced_by_its_command_line(capsys):
    """The same command fails the same way and prints the same shrunk
    events, byte for byte: the command line is the reproducer."""
    outputs = []
    for _ in range(2):
        assert main(_FAILING_CHAOS) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    out = outputs[0]
    assert "[structural]" in out
    assert "3940242 ns switch-fail ('tor', 3, 0)" in out
    assert ("reproduces trial 0 and shrinks to the same 1 event(s)"
            in out)


@pytest.mark.parametrize("argv, flag, config", [
    (["reproduce", "table6", "--num-vms", "8"], "--num-vms", "none"),
    (["reproduce", "fig5a", "--num-senders", "4"], "--num-senders",
     "FigureScale"),
    (["reproduce", "faults_resilience", "--ratios", "1"], "--ratios",
     "ChaosParams")])
def test_a_flag_for_another_config_exits_2_naming_both(argv, flag, config,
                                                       capsys):
    """These ran unsized before: no sizing flag is dropped silently."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert f"({config})" in err


@pytest.mark.parametrize("argv, flag", [
    (["reproduce", "fig5a", "--websearch-flows", "40"], "--websearch-flows"),
    (["reproduce", "fig7", "--ratios", "1"], "--ratios"),
    (["reproduce", "robustness_seeds", "--seed", "4"], "--seed")])
def test_a_flag_no_run_reads_exits_2_naming_it(argv, flag, capsys):
    """``fig5a --websearch-flows 40`` used to run Figure 5a unchanged."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag}: no run of {argv[1]} reads FigureScale." in err


def test_a_flag_at_its_default_is_accepted_where_no_run_reads_it(capsys):
    assert main(["reproduce", "fig5a", "--num-vms", "32", "--hadoop-flows",
                 "40", "--ratios", "4", "--websearch-flows", "150"]) == 0
    assert "SwitchV2P" in capsys.readouterr().out


def test_a_flag_for_a_field_the_artifact_fixes_exits_2_naming_it(capsys):
    """The gray experiment runs SwitchV2P only; ``--schemes`` used to
    end in a ValueError traceback and exit 1."""
    with pytest.raises(SystemExit) as exit_:
        main(["reproduce", "gray_degradation", "--schemes", "NoCache"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--schemes" in err and "ChaosParams.schemes" in err


@pytest.mark.parametrize("flag, value, says", [
    ("--max-rto-ns", "-1000", "max_rto_ns (-1000) must be >= initial_rto_ns"),
    ("--max-rto-ns", "0", "max_rto_ns (0) must be >= initial_rto_ns"),
    ("--max-retransmits", "0", "max_retransmits must be >= 1")])
def test_a_transport_chaos_cannot_build_exits_2_naming_the_field(flag, value,
                                                                 says, capsys):
    """``--max-rto-ns -1000`` used to die in trial 1 with a
    SimulationError traceback, and ``0`` to run with zero-delay RTOs."""
    with pytest.raises(SystemExit) as exit_:
        main(["chaos", "--trials", "1", flag, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "chaos: " in err and says in err


def test_negative_workers_exit_2_naming_the_value(capsys):
    """-3 used to run sequentially without a word."""
    with pytest.raises(SystemExit) as exit_:
        main(["--workers", "-3", "list"])
    assert exit_.value.code == 2
    assert "--workers -3" in capsys.readouterr().err
