import hashlib
import json
import os
import subprocess
import sys

import pytest


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "deltasets", *args],
        capture_output=True,
        text=True,
        timeout=300,
        **kwargs,
    )


def test_analyze_c5_human(tmp_path):
    path = tmp_path / "c5.col"
    path.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    result = run_cli("analyze", "--input", str(path), "--kmax", "3")
    assert result.returncode == 0
    assert "min_parts_small: 2" in result.stdout
    assert "chromatic: 3" in result.stdout
    assert "✗" not in result.stdout  # no violated bound


def test_analyze_malformed_file_exit_1(tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("p edge 3 1\ne 1 9\n")
    result = run_cli("analyze", "--input", str(path))
    assert result.returncode == 1
    assert "line 2" in result.stderr


def test_analyze_size_limit_marks_skipped():
    result = run_cli(
        "analyze", "--gnp", "n=10,p=0.3,seed=1", "--chromatic-limit", "8", "--emit", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout.splitlines()[0])
    assert "chromatic" in payload["skipped"]
    assert payload["findings"] == []


def test_analyze_csv_bytes_pinned():
    # two reports with "p/q" caro-wei values, None values and inapplicable
    # rows with an empty satisfied field; the digest is of the output of the
    # CSV writer the CLI used to carry alongside bounds.report_csv_rows
    result = run_cli("analyze", "--gnp", "n=7,p=0.4,count=2,seed=1", "--emit", "csv", "--kmax", "3")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 77
    assert "gnp-n7-p0.4-s1-0000,7,caro-wei-lb,clique,47/30,true,true," in result.stdout
    assert ",size-window,size:delta[*],None,true,true," in result.stdout
    assert sum(",false,," in line for line in lines) == 6
    assert (
        hashlib.sha256(result.stdout.encode()).hexdigest()
        == "0300d9a0e52081c700a7a43ff647bf69762825dc2ad3cbaad6849ee748a879c8"
    )


def test_analyze_csv_shape():
    result = run_cli("analyze", "--gnp", "n=6,p=0.5,seed=2", "--emit", "csv", "--kmax", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].startswith("graph,n,name,target")
    assert len(lines) > 5


def test_verify_exhaustive_small():
    result = run_cli("verify", "--exhaustive", "4", "--kmax", "4", "--emit", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["graphs"] == 64
    assert payload["passed"] == payload["checks"]
    assert payload["findings"] == []


def test_verify_empty_corpus_exit_0():
    result = run_cli("verify", "--gnp", "n=6,p=0.5,count=0,seed=1", "--emit", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["graphs"] == 0 and payload["checks"] == 0


def test_verify_rejects_two_sources():
    result = run_cli("verify", "--exhaustive", "3", "--gnp", "n=4,p=0.5")
    assert result.returncode == 1


def test_scan_single_graph(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("# n=5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
    result = run_cli("scan", "--input", str(path), "--format", "edgelist")
    assert result.returncode == 0
    rec = json.loads(result.stdout.splitlines()[0])
    assert rec["matched_k"] == 1
    assert rec["alpha_parts"] == 2


def test_scan_oversize_graph_skipped():
    result = run_cli("scan", "--gnp", "n=25,p=0.2,seed=1", "--exact-limit", "18")
    assert result.returncode == 0
    rec = json.loads(result.stdout.splitlines()[0])
    assert rec["skipped"] is not None


def test_scan_resume_from():
    full = run_cli("scan", "--exhaustive", "3")
    tail = run_cli("scan", "--exhaustive", "3", "--resume-from", "5")
    assert len(full.stdout.splitlines()) == 8
    assert full.stdout.splitlines()[5:] == tail.stdout.splitlines()


def test_fuzz_lemma_rejects_k_above_r():
    result = run_cli("fuzz-lemma", "--r-min", "3", "--r-max", "3", "--k", "5", "--trials", "5")
    assert result.returncode == 1


def test_fuzz_lemma_zero_trials_ok():
    result = run_cli("fuzz-lemma", "--r-min", "2", "--r-max", "3", "--trials", "0", "--emit", "json")
    assert result.returncode == 0
    for line in result.stdout.splitlines():
        assert json.loads(line)["violations"] == 0


def test_fuzz_lemma_small_campaign():
    result = run_cli(
        "fuzz-lemma", "--r-min", "2", "--r-max", "4", "--trials", "300", "--emit", "json"
    )
    assert result.returncode == 0
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(rows) == 2 + 3 + 4
    assert all(r["violations"] == 0 for r in rows)
    assert all(abs(r["hill_climb_gap"]) <= 1e-6 for r in rows)


def test_gen_writes_files(tmp_path):
    outdir = tmp_path / "graphs"
    result = run_cli(
        "gen", "--gnp", "n=6,p=0.5,count=3,seed=5", "--out", str(outdir), "--format", "dimacs"
    )
    assert result.returncode == 0
    files = sorted(outdir.glob("*.col"))
    assert len(files) == 3
    check = run_cli("analyze", "--input", str(files[0]), "--emit", "json")
    assert check.returncode == 0


def test_gen_single_to_stdout():
    result = run_cli("gen", "--regular", "n=6,r=2,seed=1", "--format", "edgelist")
    assert result.returncode == 0
    assert result.stdout.startswith("# n=6")


def test_jobs_flag_gives_identical_output():
    args = ("analyze", "--gnp", "n=6,p=0.5,count=6,seed=9", "--emit", "json", "--kmax", "3")
    seq = run_cli(*args, "--jobs", "1")
    par = run_cli(*args, "--jobs", "2")
    assert seq.returncode == par.returncode == 0
    assert seq.stdout == par.stdout


def test_jobs_flag_verify_and_scan_identical():
    vargs = ("verify", "--gnp", "n=7,p=0.5,count=6,seed=3", "--emit", "json", "--kmax", "3")
    assert run_cli(*vargs, "--jobs", "1").stdout == run_cli(*vargs, "--jobs", "2").stdout
    sargs = ("scan", "--exhaustive", "4")
    assert run_cli(*sargs, "--jobs", "1").stdout == run_cli(*sargs, "--jobs", "2").stdout


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--gnp", "n=7,p=0.5,count=3,seed=2", "--kmax", "3", "--emit", "json"),
        ("analyze", "--gnp", "n=7,p=0.5,count=3,seed=2", "--kmax", "3", "--emit", "csv"),
        ("analyze", "--gnp", "n=7,p=0.5,count=3,seed=2", "--kmax", "3", "--emit", "human"),
        ("verify", "--gnp", "n=7,p=0.5,count=3,seed=2", "--kmax", "3", "--emit", "json"),
        ("scan", "--exhaustive", "4"),
    ],
)
def test_out_file_matches_stdout(tmp_path, args):
    path = tmp_path / "out.txt"
    to_stdout = subprocess.run(
        [sys.executable, "-m", "deltasets", *args], capture_output=True, timeout=300
    )
    to_file = run_cli(*args, "--out", str(path))
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_file.stdout == ""
    assert path.read_bytes() == to_stdout.stdout != b""


def test_bad_spec_with_out_creates_no_file(tmp_path):
    path = tmp_path / "out.txt"
    for spec in ("n=5,p=2", "n=5", "n=5,p=x"):
        result = run_cli("analyze", "--gnp", spec, "--out", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith("deltasets: error:")
        assert not path.exists()


def test_exact_limit_env_override(tmp_path):
    env = dict(os.environ)
    env["DELTASETS_EXACT_LIMIT"] = "4"
    result = run_cli("analyze", "--gnp", "n=6,p=0.5,seed=1", "--emit", "json", env=env)
    assert result.returncode == 0
    payload = json.loads(result.stdout.splitlines()[0])
    assert "min_parts" in payload["skipped"]


def test_bad_exact_limit_env_exit_1():
    env = dict(os.environ, DELTASETS_EXACT_LIMIT="abc")
    result = run_cli("fuzz-lemma", "--trials", "1", env=env)
    assert result.returncode == 1
    assert result.stderr == "deltasets: error: DELTASETS_EXACT_LIMIT must be an integer, got 'abc'\n"


def test_negative_exact_limit_env_exit_1():
    env = dict(os.environ, DELTASETS_EXACT_LIMIT="-2")
    result = run_cli("analyze", "--gnp", "n=5,p=0.5", env=env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "deltasets: error: DELTASETS_EXACT_LIMIT must be at least 0, got -2\n"


@pytest.mark.parametrize(
    "args, flag",
    [
        (("scan", "--exhaustive", "3", "--resume-from", "-3"), "--resume-from"),
        (("analyze", "--gnp", "n=5,p=0.5", "--kmax", "0"), "--kmax"),
        (("verify", "--gnp", "n=5,p=0.5", "--jobs", "0"), "--jobs"),
        (("verify", "--gnp", "n=5,p=0.5", "--jobs", "-4"), "--jobs"),
        (("analyze", "--gnp", "n=5,p=0.5", "--exact-limit", "-3"), "--exact-limit"),
        (("analyze", "--gnp", "n=5,p=0.5", "--clique-limit", "-1"), "--clique-limit"),
        (("verify", "--gnp", "n=5,p=0.5", "--chromatic-limit", "-1"), "--chromatic-limit"),
        (("scan", "--gnp", "n=5,p=0.5", "--stabilization-limit", "-2"), "--stabilization-limit"),
        (("fuzz-lemma", "--denominator", "0", "--trials", "1"), "--denominator"),
        (("fuzz-lemma", "--trials", "-3"), "--trials"),
        (("fuzz-lemma", "--k", "0", "--trials", "1"), "--k"),
        (("fuzz-lemma", "--r-min", "1", "--trials", "1"), "--r-min"),
        (("scan", "--exhaustive", "-3"), "--exhaustive"),
    ],
)
def test_out_of_range_flag_exit_1(args, flag):
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if line.startswith("deltasets: error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"deltasets: error: argument {flag}: must be at least")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("scan", "--gnp", "n=-4,p=0.5"),
        ("analyze", "--gnp", "n=5,p=0.5,count=-2"),
        ("verify", "--gnp", "n=5,p=0.5,count=-2"),
        ("verify", "--regular", "n=6,r=2,count=-1"),
    ],
)
def test_negative_corpus_size_exit_1(tmp_path, args):
    path = tmp_path / "out.txt"
    result = run_cli(*args, "--out", str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if line.startswith("deltasets: error:")]
    assert len(errors) == 1
    assert "Traceback" not in result.stderr
    assert not path.exists()


@pytest.mark.parametrize("persistent, code", [(True, 3), (False, 0)])
def test_analyze_finding_needs_recomputation(monkeypatch, capsys, persistent, code):
    from deltasets import bounds, cli

    real = bounds.build_report
    calls = []

    def faulty(g, graph_id, **limits):
        report = real(g, graph_id, **limits)
        calls.append(graph_id)
        if graph_id.endswith("-0001") and (persistent or calls.count(graph_id) == 1):
            report.bounds.append(bounds.BoundRow("planted", "x", 1, True, False, "test"))
        return report

    monkeypatch.setattr(bounds, "build_report", faulty)
    argv = ["analyze", "--gnp", "n=5,p=0.5,count=3,seed=1", "--kmax", "2", "--emit", "json"]
    assert cli.main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["findings"] for line in lines] == [[], ["planted"], []]
    assert calls.count("gnp-n5-p0.5-s1-0001") == 2
