"""Tests for the CLI trace subcommands and heatmap rendering."""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.figures import FigureScale, build_trace
from repro.experiments.parallel import ExperimentJob
from repro.metrics.reporting import render_heatmap

#: The FigureScale field each trace's size is counted in.
COUNT_FIELDS = {"hadoop": "hadoop_flows", "websearch": "websearch_flows",
                "microbursts": "microburst_bursts", "video": "video_streams",
                "alibaba": "alibaba_rpcs"}
SMALL = FigureScale(num_vms=32, alibaba_services=4)


def test_trace_generate_and_inspect(tmp_path, capsys):
    path = tmp_path / "hadoop.jsonl"
    code = main(["trace", "generate", "hadoop", str(path),
                 "--num-vms", "64", "--hadoop-flows", "80", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote 80 flows" in out
    assert path.exists()

    code = main(["trace", "inspect", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "flows" in out
    assert "80" in out


def test_trace_generate_microbursts(tmp_path, capsys):
    path = tmp_path / "bursts.jsonl"
    assert main(["trace", "generate", "microbursts", str(path),
                 "--num-vms", "64"]) == 0
    assert main(["trace", "inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "udp_flows" in out


@pytest.mark.parametrize("content, says", [
    pytest.param(None, "No such file", id="missing"),
    pytest.param("\nnot json\n", ":2: invalid JSON", id="not-json"),
    pytest.param("5\n", ":1: expected a JSON object, got int",
                 id="not-an-object")])
def test_trace_inspect_of_a_bad_file_exits_2_naming_it(content, says,
                                                       tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    if content is not None:
        path.write_text(content)
    assert main(["trace", "inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert str(path) in err and says in err


def test_render_heatmap_shades_by_magnitude():
    text = render_heatmap(["a", "b"], ["c1", "c2"],
                          [[0.0, 100.0], [50.0, 25.0]], title="H")
    lines = text.splitlines()
    assert lines[0] == "H"
    row_a = next(line for line in lines if line.startswith("a"))
    assert "@" in row_a  # 100 is the peak shade
    assert " " in row_a.split("|", 1)[1]  # 0 is the lightest


def test_render_heatmap_all_zero():
    text = render_heatmap(["a"], ["c"], [[0.0]])
    assert "@" not in text


@pytest.mark.parametrize("trace", sorted(COUNT_FIELDS))
def test_every_trace_is_sized_by_its_count_flag(trace, tmp_path, monkeypatch,
                                                capsys):
    """``--flows`` used to set the Hadoop count whatever the trace."""
    field = COUNT_FIELDS[trace]
    size = ["--num-vms", "32", "--alibaba-services", "4",
            f"--{field.replace('_', '-')}"]
    played = []
    simulate = ExperimentJob.run
    monkeypatch.setattr(ExperimentJob, "run", lambda job, **options: (
        played.append(len(job.flows)) or simulate(job, **options)))
    counts = []
    for count in (3, 6):
        flows, _ = build_trace(trace, replace(SMALL, **{field: count}))
        counts.append(len(flows))
        path = tmp_path / f"{trace}-{count}.jsonl"
        assert main(["trace", "generate", trace, str(path), *size,
                     str(count)]) == 0
        assert f"wrote {len(flows)} flows" in capsys.readouterr().out
        assert main(["run", "--trace", trace, "--scheme", "NoCache", *size,
                     str(count)]) == 0
    assert counts[0] < counts[1]
    assert played == counts
