"""Output checkers: how many graphs of one CLI run came back wrong.

A graph fails when its output is missing, malformed or wrong. A run that
exits non-zero or times out fails every graph it was given. The expected
corpora are rebuilt here from the generators' documented rules (Gray-code
edge flips for ``--exhaustive``, lexicographic pair draws for ``--gnp``), so
the checker's idea of each graph's degrees does not come from the program.
Brute-force values come from ``tests/oracles.py``, which shares no code with
the package's solvers.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path

SCAN_KEYS = {"alpha_parts", "curve", "graph", "matched_k", "n", "skipped",
             "small_parts", "stable_k", "verified"}


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` of the checkout by path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    if spec is None or spec.loader is None or not path.is_file():
        raise FileNotFoundError(f"{path} not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# expected corpora


def exhaustive_degrees(n: int) -> list[tuple[int, ...]]:
    """Degree tuples of every labeled graph on n vertices, in the CLI's order:
    the empty graph first, then step i flips pair number (lowest set bit of i)
    of the lexicographic pair list."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = [False] * len(pairs)
    degs = [0] * n
    out = [tuple(degs)]
    for i in range(1, 1 << len(pairs)):
        j = (i & -i).bit_length() - 1
        u, v = pairs[j]
        step = -1 if present[j] else 1
        present[j] = not present[j]
        degs[u] += step
        degs[v] += step
        out.append(tuple(degs))
    return out


def gnp_degrees(n: int, p: float, seed: int) -> tuple[int, ...]:
    """Degrees of G(n, p) drawn as the CLI draws it: one random() per pair in
    lexicographic order from random.Random(seed)."""
    rng = random.Random(seed)
    degs = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                degs[u] += 1
                degs[v] += 1
    return tuple(degs)


def corpus_properties(corpus: list[tuple[int, ...]]) -> dict[str, float]:
    """Input properties the DP memo depends on: how many graphs share a
    degree profile, and the largest DP state count prod(c_i + 1)."""
    profiles = {tuple(sorted(d)) for d in corpus}
    states = 0
    for prof in profiles:
        counts: dict[int, int] = {}
        for d in prof:
            counts[d] = counts.get(d, 0) + 1
        states = max(states, math.prod(c + 1 for c in counts.values()))
    return {
        "graphs": len(corpus),
        "distinct_profiles": len(profiles),
        "repeat_share": 1 - len(profiles) / len(corpus),
        "dp_states_max": states,
    }


# ---------------------------------------------------------------------------
# scan


def scan_oracle(oracles, corpus: list[tuple[int, ...]]) -> dict[tuple[int, ...], tuple]:
    """Brute-force (alpha, small, delta curve up to where it reaches small)
    for every degree profile in the corpus."""
    table = {}
    for prof in {tuple(sorted(d)) for d in corpus}:
        small = oracles.brute_min_parts(prof, "small")
        curve = [oracles.brute_min_parts(prof, "delta", 1)]
        while curve[-1] != small:
            curve.append(oracles.brute_min_parts(prof, "delta", len(curve) + 1))
        table[prof] = (oracles.brute_min_parts(prof, "alpha"), small, curve)
    return table


def _scan_line_ok(line: bytes, gid: str, n: int, expected: tuple) -> bool:
    try:
        d = json.loads(line)
    except ValueError:
        return False
    if not isinstance(d, dict) or set(d) != SCAN_KEYS:
        return False
    if d["graph"] != gid or d["n"] != n or d["skipped"] is not None:
        return False
    curve, alpha, small = d["curve"], d["alpha_parts"], d["small_parts"]
    if not isinstance(curve, list) or not curve:
        return False
    if any(a > b for a, b in zip(curve, curve[1:])) or curve[-1] != small:
        return False
    if d["stable_k"] != curve.index(small) + 1:
        return False
    if not curve[0] <= alpha <= small:
        return False
    matched = curve.index(alpha) + 1 if alpha in curve else None
    if d["matched_k"] != matched:
        return False
    if matched is None and d["verified"] is not True:
        return False
    return (alpha, small, curve) == expected


def scan_failures(stdout: bytes, n: int, corpus: list[tuple[int, ...]], oracle: dict) -> int:
    """Graphs whose scan line is missing, out of order, internally
    inconsistent, or disagrees with the brute-force values of its profile."""
    lines = stdout.splitlines()
    failed = abs(len(lines) - len(corpus))
    for i, (line, degs) in enumerate(zip(lines, corpus)):
        if not _scan_line_ok(line, f"all-n{n}-{i}", n, oracle[tuple(sorted(degs))]):
            failed += 1
    return min(failed, len(corpus))


# ---------------------------------------------------------------------------
# verify


def verify_failures(stdout: bytes, count: int) -> int:
    """All graphs fail unless the summary covers ``count`` graphs with every
    check passed; otherwise each graph named by a finding fails."""
    try:
        d = json.loads(stdout)
        graphs, checks, passed = d["graphs"], d["checks"], d["passed"]
        findings, suites = d["findings"], d["suites"]
    except (ValueError, TypeError, KeyError):
        return count
    if graphs != count or checks < 1 or not isinstance(findings, list):
        return count
    if findings:
        return len({f.get("graph") for f in findings if isinstance(f, dict)}) or count
    if passed != checks or any(s["run"] != s["passed"] for s in suites.values()):
        return count
    return 0


# ---------------------------------------------------------------------------
# analyze


def _exact_chain_ok(exact: dict) -> bool:
    """The partition and size chains the package promises for every graph."""
    curve = exact["min_parts_delta"]
    small = exact["min_parts_small"]
    alpha = exact["min_parts_alpha"]
    sizes = exact["max_size_delta"]
    plateau = exact["max_size_small"]
    return (
        all(a <= b for a, b in zip(curve, curve[1:]))
        and curve[-1] <= small
        and curve[exact["parts_stable_k"] - 1] == small
        and curve[0] <= alpha <= small
        and small <= exact["clique"] <= exact["chromatic"]
        and all(a >= b for a, b in zip(sizes, sizes[1:]))
        and sizes[exact["size_stable_k"] - 1] == plateau
        and plateau >= exact["independence"]
    )


def _analyze_line_ok(line: bytes, gid: str, degs: tuple[int, ...]) -> bool:
    try:
        d = json.loads(line)
        return (
            d["graph"] == gid
            and d["n"] == len(degs)
            and tuple(d["degrees"]) == degs
            and d["edges"] * 2 == sum(degs)
            and d["findings"] == []
            and _exact_chain_ok(d["exact"])
        )
    except (ValueError, TypeError, KeyError, IndexError):
        return False


def analyze_failures(stdout: bytes, ids: list[str], corpus: list[tuple[int, ...]],
                     digest: str | None = None) -> int:
    """Graphs whose report line is missing, malformed, names a finding or
    breaks a chain invariant; with ``digest``, any byte difference from the
    recorded output fails every graph."""
    if digest is not None and hashlib.sha256(stdout).hexdigest() != digest:
        return len(corpus)
    lines = stdout.splitlines()
    failed = abs(len(lines) - len(corpus))
    for line, gid, degs in zip(lines, ids, corpus):
        if not _analyze_line_ok(line, gid, degs):
            failed += 1
    return min(failed, len(corpus))
