"""Command-line front door.

Subcommands: analyze (per-graph invariant and bound tables), verify (run the
inequality suites over a corpus), scan (stream staircase-gap records as JSON
lines), fuzz-lemma (rational simplex-inequality search), gen (write generated
graphs to files).

Exit codes: 0 success, 1 usage or parse error, 2 size-limit refusal,
3 re-verified finding (an inequality that should always hold was violated).
All output is deterministic for a fixed command line and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import bounds as bounds_mod
from .errors import DeltaSetsError, ParseError, SizeLimitError
from .extremal import _part_arithmetic
from .graphs import (
    Graph,
    emit_dimacs,
    emit_edge_list,
    enumerate_graphs,
    gen_gnp,
    gen_regular,
    parse_dimacs,
    parse_edge_list,
)
from .partition import (
    CHROMATIC_LIMIT,
    CLIQUE_LIMIT,
    DEFAULT_EXACT_LIMIT,
    REPORT_STABILIZATION_LIMIT,
    _min_parts_by_degrees,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIZE_LIMIT = 2
EXIT_FINDING = 3

ENV_EXACT_LIMIT = "DELTASETS_EXACT_LIMIT"


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this tool reserves 2 for
    size-limit refusals, so remap usage problems to exit 1."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"deltasets: error: {message}", file=sys.stderr)
    return code


def _parse_kv_spec(spec: str, fields: dict[str, type], where: str) -> dict:
    out: dict = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"{where}: expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in fields:
            raise ValueError(f"{where}: unknown key {key!r}")
        try:
            out[key] = fields[key](raw.strip())
        except ValueError:
            raise ValueError(f"{where}: bad value for {key}: {raw!r}") from None
    return out


def _read_graph_file(path: str, fmt: str) -> Graph:
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "auto":
        fmt = "dimacs" if path.endswith((".col", ".dimacs", ".clq")) else "edgelist"
    if fmt == "dimacs":
        return parse_dimacs(text)
    return parse_edge_list(text)


def _build_corpus(args: argparse.Namespace) -> tuple[str, str, Iterator[tuple[str, Graph]]]:
    """Resolve the single input source into a lazy stream of id-tagged graphs.

    The source, its spec and the first graph are checked here, so a bad
    command line fails before any output is opened.
    """
    sources = [
        s for s in ("input", "gnp", "regular", "exhaustive") if getattr(args, s, None) is not None
    ]
    if len(sources) != 1:
        raise ValueError("exactly one of --input/--gnp/--regular/--exhaustive is required")
    source = sources[0]
    if source == "input":
        g = _read_graph_file(args.input, args.format)
        return source, args.input, iter([(Path(args.input).stem, g)])
    if source == "exhaustive":
        n = args.exhaustive
        spec_text = str(n)
        graphs = ((f"all-n{n}-{i}", g) for i, g in enumerate(enumerate_graphs(n)))
    else:
        spec_text = getattr(args, source)
        key, kind, gen, prefix = (
            ("p", float, gen_gnp, "gnp") if source == "gnp" else ("r", int, gen_regular, "reg")
        )
        spec = _parse_kv_spec(
            spec_text, {"n": int, key: kind, "count": int, "seed": int}, f"--{source}"
        )
        if "n" not in spec or key not in spec:
            raise ValueError(f"--{source} needs at least n=<int>,{key}=<{kind.__name__}>")
        n, x, seed, count = spec["n"], spec[key], spec.get("seed", args.seed), spec.get("count", 1)
        if count < 0:
            raise ValueError(f"--{source}: count must be at least 0, got {count}")
        graphs = (
            (f"{prefix}-n{n}-{key}{x}-s{seed}-{i:04d}", gen(n, x, seed + i)) for i in range(count)
        )
    # the generators check their spec when they build a graph: building the
    # first one here surfaces a bad spec before any output is opened
    first = list(itertools.islice(graphs, 1))
    return source, spec_text, itertools.chain(first, graphs)


def _add_corpus_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="PATH", help="read one graph from PATH")
    p.add_argument(
        "--format",
        choices=("auto", "dimacs", "edgelist"),
        default="auto",
        help="file format for --input and gen output (default: by extension)",
    )
    p.add_argument("--gnp", metavar="SPEC", help="n=..,p=..[,count=..][,seed=..]")
    p.add_argument("--regular", metavar="SPEC", help="n=..,r=..[,count=..][,seed=..]")
    p.add_argument(
        "--exhaustive", metavar="N", type=_int_at_least(0), help="every labeled graph on N vertices"
    )
    p.add_argument("--seed", type=int, default=0, help="default seed for generator specs")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _env_exact_limit() -> int:
    raw = os.environ.get(ENV_EXACT_LIMIT)
    if not raw:
        return DEFAULT_EXACT_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(_fail(f"{ENV_EXACT_LIMIT} must be an integer, got {raw!r}")) from None
    if value < 0:
        raise SystemExit(_fail(f"{ENV_EXACT_LIMIT} must be at least 0, got {value}"))
    return value


def _add_limit_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kmax",
        type=_int_at_least(1),
        default=8,
        help="largest exponent in curves and bound tables",
    )
    p.add_argument(
        "--exact-limit",
        type=_int_at_least(0),
        default=_env_exact_limit(),
        help=f"largest n solved exactly (env {ENV_EXACT_LIMIT} overrides the default)",
    )
    p.add_argument("--clique-limit", type=_int_at_least(0), default=CLIQUE_LIMIT)
    p.add_argument("--chromatic-limit", type=_int_at_least(0), default=CHROMATIC_LIMIT)
    p.add_argument(
        "--stabilization-limit", type=_int_at_least(0), default=REPORT_STABILIZATION_LIMIT
    )
    p.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="worker processes for per-graph work"
    )
    p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _limits(args: argparse.Namespace) -> dict:
    """The per-graph size guards and exponent range, as keyword arguments."""
    return dict(
        k_max=args.kmax,
        exact_limit=args.exact_limit,
        clique_limit=args.clique_limit,
        chromatic_limit=args.chromatic_limit,
        stabilization_limit=args.stabilization_limit,
    )


# pieces joined into one write: fewer write calls, and output still starts early
_WRITE_BATCH = 64


def _write(out: str | None, pieces: Iterable[str]) -> None:
    """Write ``pieces`` to PATH ``out`` or stdout in order as they are produced."""
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        it = iter(pieces)
        while batch := list(itertools.islice(it, _WRITE_BATCH)):
            fh.write("".join(batch))


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# analyze


def _human_report(d: dict) -> str:
    lines = [f"graph {d['graph']}  n={d['n']} edges={d['edges']}"]
    lines.append("  degrees: " + ",".join(str(x) for x in d["degrees"]))
    for key in sorted(d["exact"]):
        lines.append(f"  {key}: {d['exact'][key]}")
    for key in sorted(d["skipped"]):
        lines.append(f"  {key}: skipped ({d['skipped'][key]})")
    lines.append("  bounds:")
    for row in d["bounds"]:
        if not row["applicable"]:
            mark = "n/a"
        elif row["satisfied"] is None:
            mark = " ? "
        elif row["satisfied"]:
            mark = " ✓ "
        else:
            mark = " ✗ "
        value = "" if row["value"] is None else f" value={row['value']}"
        lines.append(
            f"    [{mark}] {row['name']} -> {row['target']}{value}  ({row['justification']})"
        )
    if d["findings"]:
        lines.append("  FINDINGS: " + ", ".join(d["findings"]))
    return "\n".join(lines) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    _, _, graphs = _build_corpus(args)
    limits = _limits(args)
    flagged = False

    def pieces() -> Iterator[str]:
        nonlocal flagged
        if args.emit == "csv":
            yield bounds_mod.CSV_HEADER + "\n"
        for r in bounds_mod.per_graph(bounds_mod.build_report, graphs, args.jobs, **limits):
            flagged = flagged or bool(r.findings())
            if args.emit == "json":
                yield _json_line(bounds_mod.report_to_dict(r)) + "\n"
            elif args.emit == "csv":
                yield "".join(row + "\n" for row in bounds_mod.report_csv_rows(r))
            else:
                yield _human_report(bounds_mod.report_to_dict(r))

    _write(args.out, pieces())
    if flagged:
        # a finding only sets the exit code after a from-scratch recomputation
        _min_parts_by_degrees.cache_clear()
        _part_arithmetic.cache_clear()
        _, _, graphs = _build_corpus(args)
        again = bounds_mod.per_graph(bounds_mod.build_report, graphs, args.jobs, **limits)
        if any(r.findings() for r in again):
            return EXIT_FINDING
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    source, spec, graphs = _build_corpus(args)
    summary = bounds_mod.verify_corpus(graphs, jobs=args.jobs, **_limits(args))
    payload = {
        "command": "verify",
        "source": {"kind": source, "spec": spec},
        "graphs": summary.graphs,
        "checks": summary.checks,
        "passed": summary.passed,
        "suites": {name: {"run": run, "passed": ok} for name, (run, ok) in sorted(summary.suites.items())},
        "findings": [
            {
                "graph": f.graph_id,
                "suite": f.suite,
                "detail": f.detail,
                "edges": [list(e) for e in f.edges],
            }
            for f in summary.findings
        ],
    }
    if args.emit == "json":
        text = _json_line(payload) + "\n"
    else:
        lines = [f"graphs checked: {summary.graphs}"]
        for name in sorted(summary.suites):
            run, ok = summary.suites[name]
            lines.append(f"suite {name}: {ok}/{run}")
        if summary.findings:
            lines.append("FINDINGS:")
            for f in summary.findings:
                lines.append(f"  {f.graph_id} [{f.suite}] {f.detail}")
                lines.append(f"    edges: {f.edges}")
        else:
            lines.append(f"all {summary.checks} checks passed")
        text = "\n".join(lines) + "\n"
    _write(args.out, [text])
    return EXIT_FINDING if summary.findings else EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _cmd_scan(args: argparse.Namespace) -> int:
    _, _, graphs = _build_corpus(args)
    graphs = itertools.islice(graphs, args.resume_from, None)
    total = gaps = skipped = 0

    def lines() -> Iterator[str]:
        nonlocal total, gaps, skipped
        for rec in bounds_mod.scan_records(graphs, exact_limit=args.exact_limit, jobs=args.jobs):
            total += 1
            if rec.skipped:
                skipped += 1
            elif rec.matched_k is None:
                gaps += 1
            yield _json_line(bounds_mod.scan_record_to_dict(rec)) + "\n"

    _write(args.out, lines())
    print(
        f"scan: {total} graphs, {gaps} gap candidate(s), {skipped} skipped",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuzz-lemma


def _cmd_fuzz_lemma(args: argparse.Namespace) -> int:
    if args.r_max < args.r_min:
        return _fail("--r-max must be at least --r-min")
    results = []
    violations = 0
    for r in range(args.r_min, args.r_max + 1):
        ks: Sequence[int]
        if args.k is not None:
            if args.k > r:
                return _fail(f"exponent k={args.k} exceeds r={r}")
            ks = [args.k]
        else:
            ks = range(1, r + 1)
        for k in ks:
            res = bounds_mod.simplex_fuzz(
                r, k, args.trials, seed=args.seed, denominator=args.denominator
            )
            start = None
            if res.max_point is not None:
                start = [float(b) for b in res.max_point.betas]
            climbed = bounds_mod.simplex_hill_climb(r, k, start=start, seed=args.seed)
            bound_f = float(res.bound)
            results.append(
                {
                    "r": r,
                    "k": k,
                    "trials": res.trials,
                    "bound": f"{res.bound.numerator}/{res.bound.denominator}",
                    "max_lhs": None
                    if res.max_lhs is None
                    else f"{res.max_lhs.numerator}/{res.max_lhs.denominator}",
                    "hill_climb": round(climbed, 12),
                    "hill_climb_gap": round(bound_f - climbed, 12),
                    "violations": len(res.violations),
                }
            )
            violations += len(res.violations)
    if args.emit == "json":
        text = "".join(_json_line(r) + "\n" for r in results)
    else:
        lines = []
        for r in results:
            lines.append(
                f"r={r['r']} k={r['k']} trials={r['trials']} max={r['max_lhs']} "
                f"bound={r['bound']} climb_gap={r['hill_climb_gap']} "
                f"violations={r['violations']}"
            )
        lines.append(f"total violations: {violations}")
        text = "\n".join(lines) + "\n"
    _write(args.out, [text])
    return EXIT_FINDING if violations else EXIT_OK


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args: argparse.Namespace) -> int:
    _, _, graphs = _build_corpus(args)
    fmt = args.format
    if fmt == "auto":
        fmt = "edgelist"
    render = emit_dimacs if fmt == "dimacs" else emit_edge_list
    ext = "col" if fmt == "dimacs" else "txt"
    if args.out is None:
        head = list(itertools.islice(graphs, 2))
        if len(head) != 1:
            return _fail("--out DIR is required when generating more than one graph")
        sys.stdout.write(render(head[0][1]))
        return EXIT_OK
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = 0
    for gid, g in graphs:
        (outdir / f"{gid}.{ext}").write_text(render(g), encoding="utf-8")
        written += 1
    print(f"gen: wrote {written} file(s) to {outdir}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deltasets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="invariant and bound table per graph")
    _add_corpus_options(p_analyze)
    _add_limit_options(p_analyze)
    p_analyze.add_argument("--emit", choices=("json", "csv", "human"), default="human")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run the inequality suites over a corpus")
    _add_corpus_options(p_verify)
    _add_limit_options(p_verify)
    p_verify.add_argument("--emit", choices=("json", "human"), default="human")
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="stream staircase-gap records as JSON lines")
    _add_corpus_options(p_scan)
    _add_limit_options(p_scan)
    p_scan.add_argument("--resume-from", type=_int_at_least(0), default=0, metavar="N",
                        help="skip the first N graphs (JSON lines already emitted)")
    p_scan.set_defaults(func=_cmd_scan)

    p_fuzz = sub.add_parser("fuzz-lemma", help="rational simplex-inequality search")
    p_fuzz.add_argument("--r-min", type=_int_at_least(2), default=2)
    p_fuzz.add_argument("--r-max", type=int, default=8)
    p_fuzz.add_argument(
        "--k", type=_int_at_least(1), default=None, help="single exponent (default: all k <= r)"
    )
    p_fuzz.add_argument("--trials", type=_int_at_least(0), default=10000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--denominator", type=_int_at_least(1), default=bounds_mod.DEFAULT_DENOMINATOR
    )
    p_fuzz.add_argument("--emit", choices=("json", "human"), default="human")
    p_fuzz.add_argument("--out", metavar="PATH")
    p_fuzz.set_defaults(func=_cmd_fuzz_lemma)

    p_gen = sub.add_parser("gen", help="generate graphs and write them to files")
    _add_corpus_options(p_gen)
    p_gen.add_argument("--out", metavar="DIR")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(str(exc))
    except SizeLimitError as exc:
        return _fail(str(exc), EXIT_SIZE_LIMIT)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    except DeltaSetsError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
