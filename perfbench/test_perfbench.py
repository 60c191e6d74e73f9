"""Tests of the benchmark's checkers, child runner and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import deltasets  # noqa: E402
from deltasets import cli  # noqa: E402


def _cli_stdout(capsys, argv: list[str]) -> bytes:
    assert cli.main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.fixture(scope="module")
def oracles():
    return check.load_oracles(run.ROOT)


def test_exhaustive_degrees_follow_the_cli_order():
    expected = [tuple(g.degrees) for g in deltasets.enumerate_graphs(4)]
    assert check.exhaustive_degrees(4) == expected


def test_gnp_degrees_follow_the_cli_generator():
    assert check.gnp_degrees(9, 0.5, 123) == deltasets.gen_gnp(9, 0.5, 123).degrees


def test_scan_checker_accepts_real_output_and_rejects_a_corrupted_line(capsys, oracles):
    degs = check.exhaustive_degrees(4)
    table = check.scan_oracle(oracles, degs)
    out = _cli_stdout(capsys, ["scan", "--exhaustive", "4", "--jobs", "1"])
    assert check.scan_failures(out, 4, degs, table) == 0
    lines = out.splitlines()
    lines[5] = lines[5].replace(b'"matched_k":1', b'"matched_k":2')
    assert check.scan_failures(b"\n".join(lines), 4, degs, table) == 1
    lines[7] = lines[7][:20]
    assert check.scan_failures(b"\n".join(lines), 4, degs, table) == 2
    assert check.scan_failures(b"\n".join(lines[:-3]), 4, degs, table) == 5


def test_scan_checker_rejects_a_value_the_oracle_disagrees_with(capsys, oracles):
    degs = check.exhaustive_degrees(4)
    table = check.scan_oracle(oracles, degs)
    out = _cli_stdout(capsys, ["scan", "--exhaustive", "4", "--jobs", "1"])
    prof = (1, 1, 2, 2)  # the path on four vertices
    alpha, small, curve = table[prof]
    table[prof] = (alpha + 1, small, curve)
    assert check.scan_failures(out, 4, degs, table) == sum(
        tuple(sorted(d)) == prof for d in degs)


def test_verify_checker(capsys):
    out = _cli_stdout(capsys, ["verify", "--gnp", "n=7,p=0.5,count=4,seed=3",
                               "--emit", "json", "--jobs", "1"])
    assert check.verify_failures(out, 4) == 0
    assert check.verify_failures(out, 5) == 5
    d = json.loads(out)
    d["passed"] -= 1
    assert check.verify_failures(json.dumps(d).encode(), 4) == 4
    d["findings"] = [{"graph": "gnp-n7-p0.5-s3-0001", "suite": "x", "detail": "", "edges": []}]
    assert check.verify_failures(json.dumps(d).encode(), 4) == 1
    assert check.verify_failures(b"not json", 4) == 4


def test_analyze_checker(capsys):
    out = _cli_stdout(capsys, ["analyze", "--gnp", "n=8,p=0.5,count=3,seed=5",
                               "--emit", "json", "--jobs", "1"])
    ids = [f"gnp-n8-p0.5-s5-{j:04d}" for j in range(3)]
    degs = [check.gnp_degrees(8, 0.5, 5 + j) for j in range(3)]
    assert check.analyze_failures(out, ids, degs) == 0
    lines = out.splitlines()
    d = json.loads(lines[1])
    d["exact"]["min_parts_alpha"] = d["exact"]["min_parts_small"] + 1
    lines[1] = json.dumps(d).encode()
    assert check.analyze_failures(b"\n".join(lines), ids, degs) == 1
    assert check.analyze_failures(out, ids, degs, digest="0" * 64) == 3


def test_an_exit_3_run_fails_every_graph():
    w = run.WORKLOADS["verify-gnp10"]
    exp = run.Expected(w, 1)
    p = run.run_child([sys.executable, "-c", "import sys; print('{}'); sys.exit(3)"], 30)
    assert p.code == 3
    tally = run.Tally()
    tally.check(exp, 0, p, "invocation 0")
    assert tally.failed == tally.attempted == w.count


def test_a_killed_run_is_reported_and_its_group_ended():
    p = run.run_child([sys.executable, "-c", "import time; print('x', flush=True); "
                       "time.sleep(60)"], 1.0)
    assert p.code is None and not p.ok
    assert p.first_output_s is not None and p.wall_s < 30


def test_child_env_is_hermetic(monkeypatch):
    monkeypatch.setenv("DELTASETS_EXACT_LIMIT", "12")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = run.child_env()
    assert "DELTASETS_EXACT_LIMIT" not in env
    assert env["PYTHONPATH"] == str(run.ROOT / "src")


def test_every_command_line_names_its_jobs():
    for w in run.WORKLOADS.values():
        for argv in (w.argv(7, 0), w.argv(7, 2, jobs=1), w.setup_argv()):
            assert argv[argv.index("--jobs") + 1] in ("1", "2")


def test_setup_runs_on_the_one_vertex_input():
    g = deltasets.parse_edge_list((run.ROOT / run.ONE_VERTEX).read_text())
    assert g.n == 1
    for w in run.WORKLOADS.values():
        argv = w.setup_argv()
        assert argv[0] == w.command
        assert argv[argv.index("--input") + 1] == run.ONE_VERTEX
        assert not {"--gnp", "--exhaustive"} & set(argv)


def test_end_to_end_runs_never_import_the_tracer():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "print('tracer' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
    assert "tracer" not in run.RSS_SHIM


def test_traced_spans_nest_inside_their_parent(tmp_path):
    spans = tmp_path / "spans.bin"
    argv = ["analyze", "--gnp", "n=7,p=0.5,count=3,seed=2", "--emit", "json", "--jobs", "1"]
    p = run.run_child([sys.executable, str(HERE / "tracer.py"), "--", *argv], 60,
                      env={"PERFBENCH_SPANS": str(spans)})
    assert p.ok, p.stderr
    result = json.loads(p.result)
    assert result["absent"] == []
    assert result["spans"]["bounds.build_report"]["calls"] == 3
    names, cols = tracer.load_spans(str(spans))
    assert names[cols["name"][0]] == "cli.main" and cols["parent"][0] == -1
    assert len(cols["name"]) > 10
    for i in range(1, len(cols["name"])):
        par = cols["parent"][i]
        assert 0 <= par < i
        assert cols["start"][par] <= cols["start"][i] <= cols["end"][i] <= cols["end"][par]


def test_tracer_marks_a_missing_target_absent_and_restores_wrappers():
    from deltasets import bounds, partition

    original = partition.min_partition
    t = tracer.Tracer()
    t.install(tracer.TARGETS + (("partition", "no_such_solver"),))
    try:
        assert t.absent == ["partition.no_such_solver"]
        assert bounds.min_partition is partition.min_partition is not original
        assert deltasets.min_partition is partition.min_partition
    finally:
        t.restore()
    assert bounds.min_partition is partition.min_partition is deltasets.min_partition is original


def test_span_metrics_report_absent_layers_as_none():
    spans = {"cli.main": {"calls": 1, "total_s": 2.0, "self_s": 0.5},
             "partition.min_partition": {"calls": 4, "total_s": 1.0, "self_s": 1.0}}
    m = run._span_metrics(spans, {}, None)
    assert m["cli.self_s"] == 0.5
    assert m["partition.min_partition_calls"] == 4
    assert m["partition.make_partition_s"] is None
    assert m["partition.dp_hit_ratio"] is None
    assert m["bounds.scan_record_us_p50"] is None


def test_latency_reports_the_highest_percentile_with_ten_samples_beyond():
    assert run.latency([], 1.0) == (0.0, 0.0, 0.0, 0)
    vals = [float(i) for i in range(1, 32769)]
    p50, tail, pct, n = run.latency(vals, 1.0)
    assert (p50, pct, n) == (16384.0, 99.9, 32768)
    assert tail == vals[-(-9990 * 32768 // 10000) - 1]
    assert run.latency(vals[:100], 1.0)[2] == 90.0
    assert run.latency(vals[:99], 1.0)[2] == 50.0


def test_spec_lists_exactly_the_metrics_the_runs_produce():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    produced = set(run._span_metrics({}, {}, None))
    produced |= {f"corpus.{k}" for k in check.corpus_properties([(0,)])}
    produced |= {"bounds.verify_checks", "trace.wall_s", "trace.overhead_pct"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
