"""Tests for trace persistence (JSON-lines save/load)."""

import numpy as np
import pytest

from repro.traces.hadoop import HadoopTraceParams, generate
from repro.traces.io import load_flows, save_flows, trace_stats
from repro.transport.flow import FlowSpec


def sample_flows():
    return [
        FlowSpec(src_vip=1, dst_vip=2, size_bytes=1000, start_ns=0),
        FlowSpec(src_vip=3, dst_vip=4, size_bytes=2000, start_ns=50,
                 transport="udp", udp_rate_bps=1e8, response_bytes=500,
                 flow_id=77),
    ]


def test_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    flows = sample_flows()
    assert save_flows(path, flows) == 2
    assert load_flows(path) == flows


def test_roundtrip_generated_trace(tmp_path):
    params = HadoopTraceParams(num_vms=32, num_flows=50)
    flows = generate(params, np.random.default_rng(1))
    path = tmp_path / "hadoop.jsonl"
    save_flows(path, flows)
    assert load_flows(path) == flows


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "trace.jsonl"
    save_flows(path, sample_flows())
    path.write_text(path.read_text() + "\n\n")
    assert len(load_flows(path)) == 2


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"src_vip": 1, "dst_vip": 2, "size_bytes": 10, '
                    '"start_ns": 0}\nnot-json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        load_flows(path)


def test_incomplete_record_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"src_vip": 1}\n')
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_flows(path)


@pytest.mark.parametrize("line, kind", [
    ("5", "int"), ('"ab"', "str"), ("[1, 2]", "list"), ("null", "NoneType")])
def test_a_line_that_is_not_an_object_reports_line(tmp_path, line, kind):
    """Not a crash in ``set(record)``, nor "unknown fields ['a', 'b']"."""
    path = tmp_path / "bad.jsonl"
    save_flows(path, sample_flows())
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(ValueError, match=f"bad.jsonl:3: expected a JSON "
                                         f"object, got {kind}"):
        load_flows(path)


def test_unknown_fields_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"src_vip": 1, "dst_vip": 2, "size_bytes": 10, '
                    '"start_ns": 0, "surprise": true}\n')
    with pytest.raises(ValueError, match="surprise"):
        load_flows(path)


def test_trace_stats():
    stats = trace_stats(sample_flows())
    assert stats["flows"] == 2
    assert stats["total_bytes"] == 3000
    assert stats["tcp_flows"] == 1
    assert stats["udp_flows"] == 1
    assert stats["distinct_destinations"] == 2
    assert trace_stats([]) == {"flows": 0}
