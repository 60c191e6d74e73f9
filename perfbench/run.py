"""Repository benchmark: the deltasets CLI end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it needs ``src/deltasets`` and
``tests/oracles.py`` there and exits 2 without a result when they are
missing.

With ``--trace 0`` each workload is a closed loop of CLI processes, one at a
time, until ``--seconds`` of measured wall time have passed. Invocation i
of a generated workload uses its own ``--gnp`` seed, ``seed * 10**6 + i *
count``, so a run averages over several corpora and the same ``--seed``
gives the same inputs. Every process is ``deltasets/__main__`` run by the
same interpreter as ``python -m deltasets`` would run it, with
``PYTHONPATH=src``, no ``DELTASETS_*`` variables and an explicit
``--jobs``; a few lines around it only report the process's own peak RSS.
Outputs are checked after each process exits, outside the timed region.

Times are reported at a fixed reference speed. On a shared host the same
CLI run can take 2.0 s or 3.4 s a minute apart, and a short fixed Python
kernel slows down with it. A burst of that kernel runs between
invocations, and each invocation's times are scaled by CALIBRATION_REF_S
over the mean of the bursts on either side. The kernel is part of this
file, so no change to the package can move it. The unscaled figures are
printed too; perfbench/README.md has the spreads with and without scaling.

With ``--trace 1`` each step is a pair of fresh interpreters on the same
corpus, one through ``tracer.py`` with spans on every layer boundary and one
with no wrappers, both with ``--jobs 1``; their wall times give the tracing
overhead. The end-to-end path never imports the tracer.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (graphs) and ``metrics``; the lines before it name every metric
with its unit and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
ONE_VERTEX = "perfbench/data/one-vertex.txt"
SPANS_DIR = ".perfbench"
GNP_P = 0.5
SETUP_PER_STEP = 2
CALIBRATION_ROUNDS = 20000
# the calibration burst's time on an idle core of the reference host (2-core
# x86-64 VM, CPython 3.11.7); times are reported at that speed
CALIBRATION_REF_S = 0.0630
MIN_INVOCATIONS = 3
RUN_BUDGET_S = 170.0  # the whole run, setup and checks included
DEFAULT_SEED = 1
# sha256 of analyze-gnp12's first invocation at the default seed, recorded
# from the commit that introduced this benchmark
ANALYZE_DIGEST = "1046dd446de81eac1939368e89a5a4be6f4199323a0c6007597f66edb5cd9eb3"

RSS_SHIM = (  # VmHWM: the CLI's own peak, not the benchmark's pages copied by fork
    "import os, runpy\n"
    "fd = int(os.environ.pop('PERFBENCH_RESULT_FD'))\n"
    "try:\n"
    "    runpy.run_module('deltasets', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    with open('/proc/self/status', 'rb') as f:\n"
    "        os.write(fd, next(x for x in f if x.startswith(b'VmHWM:')).split()[1])\n")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n: int
    jobs: int
    count: int | None = None  # graphs per --gnp invocation; None means --exhaustive n
    emit_json: bool = True

    def gnp_seed(self, seed: int, i: int) -> int:
        return seed * 10**6 + i * self.count

    def _tail(self, jobs: int | None) -> list[str]:
        emit = ["--emit", "json"] if self.emit_json else []
        return [*emit, "--jobs", str(jobs or self.jobs)]

    def argv(self, seed: int, i: int, jobs: int | None = None) -> list[str]:
        if self.count is None:
            corpus = ["--exhaustive", str(self.n)]
        else:
            spec = f"n={self.n},p={GNP_P},count={self.count},seed={self.gnp_seed(seed, i)}"
            corpus = ["--gnp", spec]
        return [self.command, *corpus, *self._tail(jobs)]

    def setup_argv(self) -> list[str]:
        return [self.command, "--input", ONE_VERTEX, *self._tail(None)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-all6", "scan", n=6, jobs=1, emit_json=False),
        Workload("verify-gnp10", "verify", n=10, jobs=2, count=100),
        Workload("analyze-gnp12", "analyze", n=12, jobs=1, count=100),
    )
}


class Expected:
    """The corpus each invocation should see, and how to check its output."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self._scan: tuple[list, dict] | None = None

    def corpus(self, i: int) -> tuple[list[str], list[tuple[int, ...]]]:
        w = self.w
        if w.count is None:
            degs = check.exhaustive_degrees(w.n)
            return [f"all-n{w.n}-{j}" for j in range(len(degs))], degs
        s = w.gnp_seed(self.seed, i)
        ids = [f"gnp-n{w.n}-p{GNP_P}-s{s}-{j:04d}" for j in range(w.count)]
        return ids, [check.gnp_degrees(w.n, GNP_P, s + j) for j in range(w.count)]

    def prepare(self) -> None:
        """Brute-force oracle values for the scan corpus, outside any timing."""
        if self.w.command == "scan":
            _, degs = self.corpus(0)
            self._scan = (degs, check.scan_oracle(check.load_oracles(ROOT), degs))

    def failures(self, i: int, stdout: bytes) -> int:
        w = self.w
        if w.command == "scan":
            degs, oracle = self._scan
            return check.scan_failures(stdout, w.n, degs, oracle)
        if w.command == "verify":
            return check.verify_failures(stdout, w.count)
        ids, degs = self.corpus(i)
        digest = ANALYZE_DIGEST if (self.seed, i) == (DEFAULT_SEED, 0) else None
        return check.analyze_failures(stdout, ids, degs, digest)

    def graphs(self) -> int:
        return 2 ** (self.w.n * (self.w.n - 1) // 2) if self.w.count is None else self.w.count


@dataclass
class Proc:
    """One finished child process."""

    code: int | None  # None: killed at its deadline
    wall_s: float
    first_output_s: float | None
    cpu_s: float
    stdout: bytes
    stderr: bytes
    result: bytes = b""

    @property
    def ok(self) -> bool:
        return self.code == 0


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DELTASETS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra or {})
    return env


def _end_group(pgid: int) -> None:
    """Kill whatever is left in the child's process group and wait until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(1000):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(cmd: list[str], timeout: float, env: dict[str, str] | None = None) -> Proc:
    """Run cmd in its own session; time launch to exit, the first stdout
    byte, and user+sys CPU of it and its reaped workers. The child may write
    a result to the descriptor named by PERFBENCH_RESULT_FD."""
    rfd, wfd = os.pipe()
    try:
        env = child_env({**(env or {}), "PERFBENCH_RESULT_FD": str(wfd)})
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, pass_fds=(wfd,), start_new_session=True,
        )
        os.close(wfd)
        wfd = -1
        with proc.stdout, proc.stderr, selectors.DefaultSelector() as sel:
            out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
            chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: [], rfd: []}
            first = None
            killed = False
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - time.perf_counter()
                if left <= 0:
                    killed = True
                    os.killpg(proc.pid, signal.SIGKILL)
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fd)
                        continue
                    if first is None and key.fd == out_fd:
                        first = time.perf_counter() - t0
                    chunks[key.fd].append(data)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            _end_group(proc.pid)
    finally:
        os.close(rfd)
        if wfd >= 0:
            os.close(wfd)
    return Proc(
        code=None if killed else proc.returncode,
        wall_s=wall,
        first_output_s=first,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
        result=b"".join(chunks[rfd]),
    )


def run_cli(argv: list[str], timeout: float) -> Proc:
    return run_child([sys.executable, "-c", RSS_SHIM, *argv], timeout)


def _setup_ok(p: Proc) -> bool:
    """The one-vertex run exits 0 and prints JSON about a 1-vertex graph."""
    if not p.ok:
        return False
    try:
        lines = [json.loads(line) for line in p.stdout.splitlines()]
    except ValueError:
        return False
    return len(lines) == 1 and lines[0].get("n", lines[0].get("graphs")) == 1


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, graphs: int, failed: int, what: str, p: Proc) -> None:
        self.attempted += graphs
        self.failed += failed
        if failed:
            tail = p.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            self.notes.append(f"{what}: {failed}/{graphs} graphs failed "
                              f"(exit {p.code}) {tail[0]}")

    def check(self, exp: Expected, i: int, p: Proc, what: str) -> None:
        graphs = exp.graphs()
        self.add(graphs, exp.failures(i, p.stdout) if p.ok else graphs, what, p)


def _left(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def calibration_kernel(rounds: int = CALIBRATION_ROUNDS) -> int:
    """Fixed interpreter work (integer arithmetic, list indexing, dict
    updates) whose duration tracks how fast this host runs Python right now.
    It shares no code with the package, so no change there can move it."""
    table = [0] * 256
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for r in range(rounds):
        row = (r * 2654435761) & 0xFFFF
        for j in range(1, 24):
            v = table[(row + j) & 255] + (row >> (j & 7)) % 13
            if v > table[j]:
                table[j] = v % 1000
            acc += v
        key = (r & 511, acc & 1023)
        seen[key] = seen.get(key, 0) + 1
    return acc + len(seen)


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def end_to_end(w: Workload, seed: int, seconds: float, deadline: float) -> tuple[dict, Tally]:
    """Closed loop of CLI processes. Each step runs the one-vertex set-up
    command SETUP_PER_STEP times, then one corpus invocation, between two
    calibration bursts; every time of the step is scaled by
    CALIBRATION_REF_S over the mean of its two bursts."""
    exp = Expected(w, seed)
    exp.prepare()
    tally = Tally()
    setup: list[float] = []
    runs: list[tuple[float, float, float, int | None]] = []  # scaled wall, first, cpu; KB
    measured = last = 0.0
    burst = calibrate()
    i = 0
    while i < MIN_INVOCATIONS or measured < seconds:
        if time.perf_counter() + 1.5 * last > deadline:
            break
        setups = []
        for _ in range(SETUP_PER_STEP):
            p = run_cli(w.setup_argv(), _left(deadline))
            tally.add(1, 0 if _setup_ok(p) else 1, "setup", p)
            setups.append(p.wall_s)
        p = run_cli(w.argv(seed, i), _left(deadline))
        after = calibrate()
        scale = CALIBRATION_REF_S / ((burst + after) / 2)
        burst = after
        setup.extend(s * scale for s in setups)
        maxrss = int(p.result) if p.ok and p.result.isdigit() else None
        first = p.wall_s if p.first_output_s is None else p.first_output_s
        tally.check(exp, i, p, f"invocation {i}")
        tally.notes.append(f"invocation {i}: wall {p.wall_s:.4f} s, first output {first:.4f} s, "
                           f"cpu {p.cpu_s:.4f} s, maxrss {maxrss} KB, scale {scale:.4f}")
        runs.append((p.wall_s * scale, first * scale, p.cpu_s * scale, maxrss))
        last = p.wall_s
        measured += last
        i += 1
    per = exp.graphs()
    rss = [r / 1024 for *_, r in runs if r is not None]
    values = {
        "graphs_per_s": statistics.median(per / wall for wall, *_ in runs),
        "cpu_ms_per_graph": statistics.median(1000 * cpu / per for _, _, cpu, _ in runs),
        "first_output_s": statistics.median(first for _, first, *_ in runs),
        "peak_rss_mb": statistics.median(rss) if rss else None,
        "setup_s": statistics.median(setup),
    }
    tally.notes.append(f"{len(runs)} invocations, {per * len(runs)} graphs, {measured:.2f} s "
                       f"measured (unscaled), {len(setup)} setup runs")
    return values, tally


# ---------------------------------------------------------------------------
# traced run

LADDER = (9000, 9900, 9990, 9999)  # percentiles in hundredths of a percent


def latency(samples: list[float], scale: float) -> tuple[float, float, float, int]:
    """Median, the highest ladder percentile with at least ten samples beyond
    it, that percentile, and the sample count (all zero without samples)."""
    n = len(samples)
    if not n:
        return 0.0, 0.0, 0.0, 0
    s = sorted(samples)
    tail = max((q for q in LADDER if n * (10000 - q) >= 100000), default=None)
    if tail is None:
        tail = 5000 if n >= 20 else 10000

    def pct(q: int) -> float:
        return s[max(0, -(-q * n // 10000) - 1)] * scale

    return pct(5000), pct(tail), tail / 100, n


def _span_metrics(spans: dict, samples: dict, dp: dict | None) -> dict[str, float | None]:
    def total(label):
        return spans[label]["total_s"] if label in spans else None

    def calls(label):
        return spans[label]["calls"] if label in spans else None

    def self_s(label):
        return spans[label]["self_s"] if label in spans else None

    def add(*labels, get=total):
        vals = [get(label) for label in labels]
        return None if None in vals else sum(vals)

    out: dict[str, float | None] = {
        "cli.self_s": self_s("cli.main"),
        "graphs.corpus_s": add("graphs.enumerate_graphs", "graphs.gen_gnp"),
    }
    for label, prefix, unit, scale in (("bounds.scan_records", "bounds.scan_record", "us", 1e6),
                                       ("bounds.build_report", "bounds.build_report", "ms", 1e3)):
        stats = latency(samples[label], scale) if label in samples else (None,) * 4
        out.update({f"{prefix}_{unit}_p50": stats[0], f"{prefix}_{unit}_tail": stats[1],
                    f"{prefix}_tail_pct": stats[2], f"{prefix}_samples": stats[3]})
    out["bounds.build_report_self_s"] = self_s("bounds.build_report")
    out["bounds.verify_corpus_self_s"] = self_s("bounds.verify_corpus")
    out["bounds.brute_min_parts_calls"] = calls("bounds.brute_min_parts")
    for label in ("partition.min_partition", "partition.partition_curve",
                  "partition.make_partition", "extremal.stabilization_index"):
        out[f"{label}_s"] = total(label)
        out[f"{label}_calls"] = calls(label)
    hits = dp and dp["hits"]
    misses = dp and dp["misses"]
    out["partition.dp_cache_hits"] = hits
    out["partition.dp_cache_misses"] = misses
    out["partition.dp_hit_ratio"] = None if dp is None else hits / max(1, hits + misses)
    for label in ("partition.clique_number", "partition.independence_number",
                  "partition.chromatic_number", "extremal.size_curve"):
        out[f"{label}_s"] = total(label)
    for label in ("smallness.is_small", "smallness.is_delta_small", "smallness.is_alpha_small"):
        out[f"{label}_calls"] = calls(label)
    out["smallness.predicate_s"] = add("smallness.is_small", "smallness.is_delta_small",
                                       "smallness.is_alpha_small")
    return out


def _merge(into: dict, summary: dict) -> None:
    """Add one traced child's summary to the running totals of a run."""
    for label, entry in summary["spans"].items():
        acc = into["spans"].setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += entry[key]
    for label, vals in summary["samples"].items():
        into["samples"].setdefault(label, []).extend(vals)
    into["absent"].update(summary["absent"])
    dp = summary["dp_memo"]
    if dp is None or into["dp_memo"] is None:
        into["dp_memo"] = None
    else:
        for key in dp:
            into["dp_memo"][key] += dp[key]


def traced(w: Workload, seed: int, seconds: float, deadline: float) -> tuple[dict, Tally]:
    exp = Expected(w, seed)
    exp.prepare()
    tally = Tally()
    tracer = str(ROOT / "perfbench" / "tracer.py")
    spans_path = ROOT / SPANS_DIR / f"spans-{w.name}.bin"
    spans_path.parent.mkdir(exist_ok=True)
    acc = {"spans": {}, "samples": {}, "absent": set(), "dp_memo": {"hits": 0, "misses": 0}}
    traced_wall = plain_wall = 0.0
    verify_checks = 0
    i = 0
    while i == 0 or (traced_wall + plain_wall < seconds
                     and time.perf_counter() + 3 * traced_wall / i < deadline):
        argv = w.argv(seed, i, jobs=1)
        plain = run_child([sys.executable, tracer, "--plain", "--", *argv], _left(deadline))
        tally.check(exp, i, plain, f"plain pass {i}")
        p = run_child([sys.executable, tracer, "--", *argv], _left(deadline),
                      env={"PERFBENCH_SPANS": str(spans_path)})
        tally.check(exp, i, p, f"traced pass {i}")
        if not (p.ok and plain.ok and p.result and plain.result):
            break
        summary = json.loads(p.result)
        _merge(acc, summary)
        traced_wall += summary["wall_s"]
        plain_wall += json.loads(plain.result)["wall_s"]
        if w.command == "verify":
            verify_checks += json.loads(p.stdout)["checks"]
        i += 1
    values = _span_metrics(acc["spans"], acc["samples"], acc["dp_memo"]) if i else {}
    props = check.corpus_properties(exp.corpus(0)[1])
    values.update({f"corpus.{k}": v for k, v in props.items()})
    values["bounds.verify_checks"] = verify_checks
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_pct"] = 100 * (traced_wall / plain_wall - 1) if plain_wall else None
    for label in sorted(acc["absent"]):
        tally.notes.append(f"absent: {label} is not in the package")
    tally.notes.append(f"{i} traced/plain pairs, spans of the last in {spans_path.name}")
    return values, tally


# ---------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(workload: str, values: dict, metrics: list[dict], tally: Tally) -> dict:
    """Print one line per metric; return the metrics object, in spec order."""
    out = {}
    for m in metrics:
        value = values.get(m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{workload}  {m['name']:<36} {shown:>14} {m['unit']}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{workload}  {'error_rate':<36} {rate:>14.6g} ratio "
          f"({tally.failed} of {tally.attempted} graphs failed)")
    for note in tally.notes:
        print(f"{workload}  {note}")
    return out


def preflight() -> str | None:
    for rel in ("src/deltasets/__main__.py", "tests/oracles.py", ONE_VERTEX, "BENCHMARK.json"):
        if not (ROOT / rel).is_file():
            return f"{rel} not found under {ROOT}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = traced if args.trace else end_to_end
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.perf_counter() + RUN_BUDGET_S
        values, tally = measure(WORKLOADS[name], args.seed, seconds, deadline)
        out = report(name, values, metrics, tally)
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in out.items()})
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
