"""Degree-based bounds on the decomposition numbers and classical invariants,
executable inequality checks, a rational simplex fuzzer, per-graph bound
reports, the staircase-gap scanner, and the corpus verification driver.

Every ceiling, floor, and comparison is carried out in exact integer or
rational arithmetic (integer square roots for the quadratic bounds); floating
point only ever reaches display fields. Tight cases are exactly the
interesting ones, and float ties cannot be trusted there.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from . import smallness
from .extremal import _degree_pools, degree_order, size_curve, stabilization_index
from .graphs import Graph, VertexSet
from .partition import (
    BRUTE_LIMIT,
    CHROMATIC_LIMIT,
    CLIQUE_LIMIT,
    DEFAULT_EXACT_LIMIT,
    REPORT_STABILIZATION_LIMIT,
    Partition,
    _min_parts_by_degrees,
    brute_min_parts,
    chromatic_number,
    clique_number,
    greedy_partition,
    independence_number,
    min_partition,
    partition_curve,
)

DEFAULT_DENOMINATOR = 10**6


# ---------------------------------------------------------------------------
# elementary bounds


def avg_degree_lower_bound(g: Graph) -> int:
    """ceil(n / (n - mean degree)), computed as ceil(n^2 / (n^2 - 2e))."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    n2 = g.n * g.n
    den = n2 - 2 * g.edge_count  # positive: mean degree is at most n - 1
    return -(-n2 // den)


def max_degree_upper_bound(g: Graph) -> int:
    """ceil(n / (n - max degree)); max degree <= n - 1 keeps this finite."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    return -(-g.n // (g.n - g.max_degree))


def power_mean_lower_bound(g: Graph, k: int) -> int:
    """Least r >= 1 with r**k * sum(d**k) <= n**(k+1) * (r-1)**k.

    This is ceil(n / (n - Dk)) where Dk is the k-th power mean of all degrees,
    evaluated without extracting any root: the defining inequality is raised
    to the k-th power and searched over integer r (r never exceeds n).
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if k < 1:
        raise ValueError("exponent must be >= 1")
    total = sum(d**k for d in g.degrees)
    if total == 0:
        return 1
    n = g.n
    rhs_scale = n ** (k + 1)
    r = 1
    while r**k * total > rhs_scale * (r - 1) ** k:
        r += 1
    return r


def caro_wei_bound(g: Graph) -> Fraction:
    """Exact rational sum of 1 / (n - d(v)) over all vertices: a clique-number
    lower bound, tight on complete and edgeless graphs."""
    n = g.n
    return sum((Fraction(1, n - d) for d in g.degrees), Fraction(0))


def bound_applicability(
    k: int,
    target_kind: str,
    target_index: int | None = None,
    *,
    value_at_4: int | None = None,
    target_value: int | None = None,
) -> tuple[bool, str]:
    """Whether the exponent-k power-mean bound may be asserted against a target.

    Targets are the partition numbers: ("delta", s) for the exponent-s value
    or ("small", None) for the plain-small value. The rules are data, so
    reports can print why each row applies:

    * k = 1 is unconditional.
    * k = 2 needs a target index of at least 2 (the plain-small target counts
      as unbounded index).
    * k = 3 needs a target index of at least 3.
    * k = 4 additionally requires the exponent-4 partition number to differ
      from 2, and needs index at least 4.
    * Any other k applies when k is at most the target's exact value AND, for
      exponent-indexed targets, at most the index itself. Both are needed: a
      part feasible at exponent s can stop being feasible at a larger
      exponent (dense 10-vertex graphs give k=5 counterexamples against the
      exponent-1 target when the index condition is dropped), and the
      partition-mean inequality needs at least k parts. Such rows exist only
      where exact solving ran.
    """
    if target_kind not in ("delta", "small"):
        raise ValueError("bound targets are partition numbers: 'delta' or 'small'")
    idx = math.inf if target_kind == "small" else target_index
    if idx is None:
        raise ValueError("target kind 'delta' requires an index")
    if k == 1:
        return True, "k=1: unconditional"
    if k == 2:
        if idx >= 2:
            return True, "k=2: target index >= 2"
        return False, "k=2 needs target index >= 2"
    if k == 3:
        if idx >= 3:
            return True, "k=3: target index >= 3"
        return False, "k=3 needs target index >= 3"
    if k == 4:
        if idx < 4:
            return False, "k=4 needs target index >= 4"
        if value_at_4 is None:
            return False, "k=4 needs the exponent-4 partition number, which was not solved"
        if value_at_4 == 2:
            return False, "k=4 excluded: exponent-4 partition number equals 2"
        return True, "k=4: exponent-4 partition number differs from 2"
    if k > idx:
        return False, f"k={k} exceeds the target index {target_index}"
    if target_value is None:
        return False, f"k={k} needs the target's exact value, which was not solved"
    if k <= target_value:
        if target_kind == "small":
            return True, f"k={k} is at most the exact target value {target_value}"
        return True, (
            f"k={k} is at most the target index {target_index} "
            f"and the exact value {target_value}"
        )
    return False, f"k={k} exceeds the exact target value {target_value}"


# ---------------------------------------------------------------------------
# simplex inequality: sum (1 - b_i) * b_i**k <= ((r-1)/r)**k on the slice
# b in [0,1]^r with sum(b) = r - 1, for exponents k <= r


@dataclass(frozen=True)
class SimplexPoint:
    r: int
    betas: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.r < 1 or len(self.betas) != self.r:
            raise ValueError("need exactly r coordinates")
        if any(b < 0 or b > 1 for b in self.betas):
            raise ValueError("coordinates must lie in [0, 1]")
        if sum(self.betas) != self.r - 1:
            raise ValueError("coordinates must sum to exactly r - 1")

    @classmethod
    def uniform(cls, r: int) -> "SimplexPoint":
        return cls(r, tuple([Fraction(r - 1, r)] * r))


@dataclass(frozen=True)
class SimplexCheck:
    lhs: Fraction
    rhs: Fraction
    holds: bool


def simplex_check(point: SimplexPoint, k: int) -> SimplexCheck:
    """Exact evaluation of sum((1-b) * b**k) against ((r-1)/r)**k.

    Refuses k > r: outside that range the right side is not the maximum.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if k > point.r:
        raise ValueError(f"exponent k={k} exceeds r={point.r}")
    lhs = sum(((1 - b) * b**k for b in point.betas), Fraction(0))
    rhs = Fraction(point.r - 1, point.r) ** k
    return SimplexCheck(lhs, rhs, lhs <= rhs)


def _sample_numerators(rng: random.Random, r: int, denominator: int) -> list[int]:
    """Uniform (Dirichlet) simplex point snapped to a common denominator.

    Returns g_1..g_r with sum g_i = denominator, 0 <= g_i <= denominator; the
    coordinates are b_i = (denominator - g_i) / denominator, which sum to
    exactly r - 1.
    """
    raw = [-math.log(1.0 - rng.random()) for _ in range(r)]
    total = sum(raw)
    scaled = [x * denominator / total for x in raw]
    nums = [int(x) for x in scaled]
    deficit = denominator - sum(nums)
    order = sorted(range(r), key=lambda i: (nums[i] - scaled[i], i))
    for i in range(deficit):
        nums[order[i]] += 1
    return nums


def _point_from_numerators(r: int, nums: list[int], denominator: int) -> SimplexPoint:
    return SimplexPoint(r, tuple(Fraction(denominator - gi, denominator) for gi in nums))


@dataclass
class SimplexFuzzResult:
    r: int
    k: int
    trials: int
    bound: Fraction
    max_lhs: Fraction | None
    max_point: SimplexPoint | None
    violations: list[SimplexPoint] = field(default_factory=list)


def simplex_scan(
    r: int,
    k: int,
    trials: int,
    seed: int = 0,
    denominator: int = DEFAULT_DENOMINATOR,
    bound: Fraction | None = None,
) -> SimplexFuzzResult:
    """Sample exact-rational simplex points and compare against ``bound``.

    No k <= r restriction here; callers wanting the guarded form use
    simplex_fuzz. The sampling itself is float (Dirichlet), but every sampled
    point is snapped to denominator ``denominator`` and the comparison is pure
    integer arithmetic: with g_i = (1 - b_i) * D, the term value is
    sum(g_i * (D - g_i)**k) / D**(k+1).
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if bound is None:
        bound = Fraction(r - 1, r) ** k
    rng = random.Random(seed)
    d = denominator
    scale = d ** (k + 1)
    exact_cut = bound * scale  # violation iff lhs_num > bound * D**(k+1)
    best_num = -1
    best_point: list[int] | None = None
    violations: list[SimplexPoint] = []
    for _ in range(trials):
        nums = _sample_numerators(rng, r, d)
        lhs_num = sum(gi * (d - gi) ** k for gi in nums)
        if lhs_num > best_num:
            best_num = lhs_num
            best_point = nums
        if lhs_num > exact_cut:
            violations.append(_point_from_numerators(r, nums, d))
    max_lhs = Fraction(best_num, scale) if best_point is not None else None
    max_point = _point_from_numerators(r, best_point, d) if best_point is not None else None
    confirmed = []
    for p in violations:
        lhs = sum(((1 - b) * b**k for b in p.betas), Fraction(0))
        if lhs > bound:
            confirmed.append(p)
    return SimplexFuzzResult(r, k, trials, bound, max_lhs, max_point, confirmed)


def simplex_fuzz(
    r: int,
    k: int,
    trials: int,
    seed: int = 0,
    denominator: int = DEFAULT_DENOMINATOR,
) -> SimplexFuzzResult:
    """Randomized search for violations of the simplex inequality (k <= r)."""
    if k > r:
        raise ValueError(f"exponent k={k} exceeds r={r}")
    return simplex_scan(r, k, trials, seed=seed, denominator=denominator)


def simplex_hill_climb(
    r: int,
    k: int,
    start: Iterable[float] | None = None,
    seed: int = 0,
) -> float:
    """Float pairwise-transfer ascent of sum((1-b) * b**k) on the constraint
    slice; a diagnostic for locating the maximum, never a correctness check.
    """
    if r < 2 or k < 1:
        raise ValueError("need r >= 2 and k >= 1")
    rng = random.Random(seed)
    if start is None:
        base = (r - 1) / r
        betas = [min(1.0, max(0.0, base + (rng.random() - 0.5) * 0.05)) for _ in range(r)]
        excess = sum(betas) - (r - 1)
        betas = [min(1.0, max(0.0, b - excess / r)) for b in betas]
    else:
        betas = [float(b) for b in start]

    def term(x: float) -> float:
        return (1.0 - x) * x**k

    step = 0.25
    while step > 1e-10:
        improved = False
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                t = min(step, 1.0 - betas[i], betas[j])
                if t <= 0:
                    continue
                gain = (
                    term(betas[i] + t)
                    + term(betas[j] - t)
                    - term(betas[i])
                    - term(betas[j])
                )
                if gain > 1e-15:
                    betas[i] += t
                    betas[j] -= t
                    improved = True
        if not improved:
            step /= 2
    return sum(term(b) for b in betas)


# ---------------------------------------------------------------------------
# partition and set-size inequalities


def partition_power_mean_check(g: Graph, partition: Partition, k: int) -> bool:
    """Exact check that a certified power-mean partition with r parts forces
    r**k * sum(d**k) <= n**(k+1) * (r-1)**k, for exponents k <= r.

    A False return is a finding, not an expected outcome.
    """
    if partition.kind != "delta" or partition.k != k:
        raise ValueError("partition must be certified for the same power-mean exponent")
    if not partition.certified:
        raise ValueError("partition is not certified")
    r = len(partition)
    if k > r:
        raise ValueError(f"exponent k={k} exceeds the part count r={r}")
    total = sum(d**k for d in g.degrees)
    return r**k * total <= g.n ** (k + 1) * (r - 1) ** k


def delta_small_size_bound(g: Graph, a: VertexSet | Iterable[int]) -> int:
    """Quadratic size bound for a mean-small set A:

        |A| <= floor((n-s)/2 + sqrt((n-s)^2/4 + n*s - 2e)),

    where s is the mean degree outside A (0 when A covers everything, which
    only an edgeless graph allows). Exact: the discriminant is scaled to an
    integer and floored via the integer square root.
    """
    aset = smallness.coerce_set(g, a)
    if not smallness.is_delta_small(g, aset, 1).holds:
        raise ValueError("set is not mean-small (exponent 1)")
    rest = aset.complement()
    if len(rest) == 0:
        s = Fraction(0)
    else:
        s = Fraction(sum(rest.degrees()), len(rest))
    num, den = s.numerator, s.denominator
    c = g.n * den - num
    disc = c * c + 4 * g.n * num * den - 8 * g.edge_count * den * den
    return (c + math.isqrt(disc)) // (2 * den)


def size_upper_bounds(g: Graph) -> tuple[int, int]:
    """Two ceilings on the largest mean-small set size (hence on the whole
    size curve): the max-degree form and its degree-free relaxation.

    Returns (tight, weak) with tight <= weak.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    n, e, top = g.n, g.edge_count, g.max_degree
    c = n - top
    disc = c * c + 4 * n * top - 8 * e
    tight = (c + math.isqrt(disc)) // 2
    weak = (1 + math.isqrt(1 + 4 * (n * n - n - 2 * e))) // 2
    return tight, weak


# ---------------------------------------------------------------------------
# per-graph report


@dataclass(frozen=True)
class BoundRow:
    name: str
    target: str
    value: int | Fraction | None
    applicable: bool
    satisfied: bool | None
    justification: str


@dataclass
class BoundReport:
    graph_id: str
    n: int
    edge_count: int
    degrees: tuple[int, ...]
    exact: dict
    skipped: dict
    bounds: list[BoundRow]

    def findings(self) -> list[BoundRow]:
        return [row for row in self.bounds if row.applicable and row.satisfied is False]


def _frac_json(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def report_to_dict(report: BoundReport) -> dict:
    return {
        "graph": report.graph_id,
        "n": report.n,
        "edges": report.edge_count,
        "degrees": list(report.degrees),
        "exact": {k: _frac_json(v) if not isinstance(v, (list, dict)) else v
                  for k, v in report.exact.items()},
        "skipped": dict(report.skipped),
        "bounds": [
            {
                "name": row.name,
                "target": row.target,
                "value": _frac_json(row.value),
                "applicable": row.applicable,
                "satisfied": row.satisfied,
                "justification": row.justification,
            }
            for row in report.bounds
        ],
        "findings": [row.name for row in report.findings()],
    }


CSV_HEADER = "graph,n,name,target,value,applicable,satisfied,justification"


def report_csv_rows(report: BoundReport) -> Iterator[str]:
    for row in report.bounds:
        value = _frac_json(row.value)
        sat = "" if row.satisfied is None else str(row.satisfied).lower()
        just = row.justification.replace('"', "'")
        yield (
            f"{report.graph_id},{report.n},{row.name},{row.target},"
            f"{value},{str(row.applicable).lower()},{sat},\"{just}\""
        )


def build_report(
    g: Graph,
    graph_id: str = "graph",
    k_max: int = 8,
    exact_limit: int | None = None,
    clique_limit: int = CLIQUE_LIMIT,
    chromatic_limit: int = CHROMATIC_LIMIT,
    stabilization_limit: int = REPORT_STABILIZATION_LIMIT,
) -> BoundReport:
    """Full invariant-and-bound table for one graph.

    Computes whatever fits the size guards, marks the rest skipped, and emits
    one row per bound with its applicability verdict and justification.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if exact_limit is None:
        exact_limit = DEFAULT_EXACT_LIMIT
    exact: dict = {}
    skipped: dict = {}

    sizes = size_curve(g, k_max)
    exact["max_size_delta"] = list(sizes.values)
    exact["max_size_small"] = sizes.plateau
    exact["size_stable_k"] = sizes.stable_k
    exact["power_means"] = [
        round(smallness.degree_power_mean(g, range(g.n), k), 9) for k in range(1, k_max + 1)
    ]

    curve = None
    alpha_parts = None
    small_parts = None
    if g.n <= exact_limit:
        curve = partition_curve(g, k_max, limit=exact_limit)
        small_parts = curve.small_value
        alpha_parts = min_partition(g, "alpha", limit=exact_limit).value
        exact["min_parts_delta"] = list(curve.values)
        exact["min_parts_small"] = small_parts
        exact["min_parts_alpha"] = alpha_parts
        exact["parts_stable_k"] = curve.stable_k
    else:
        skipped["min_parts"] = f"n={g.n} exceeds exact limit {exact_limit}"
        # greedy upper bounds still exist at any size; they never feed the
        # lower-bound rows below, which need exact values
        exact["min_parts_greedy"] = {
            "small": greedy_partition(g, "small").value,
            "alpha": greedy_partition(g, "alpha").value,
            "delta": [greedy_partition(g, "delta", k).value for k in range(1, k_max + 1)],
        }

    omega = chi = alpha = None
    if g.n <= clique_limit:
        omega = clique_number(g, limit=clique_limit)
        alpha = independence_number(g, limit=clique_limit)
        exact["clique"] = omega
        exact["independence"] = alpha
    else:
        skipped["clique"] = f"n={g.n} exceeds limit {clique_limit}"
        skipped["independence"] = f"n={g.n} exceeds limit {clique_limit}"
    if g.n <= chromatic_limit:
        chi = chromatic_number(g, limit=chromatic_limit)
        exact["chromatic"] = chi
    else:
        skipped["chromatic"] = f"n={g.n} exceeds limit {chromatic_limit}"
    if g.n <= stabilization_limit:
        exact["stabilization_index"] = stabilization_index(g, limit=stabilization_limit)
    else:
        skipped["stabilization_index"] = f"n={g.n} exceeds limit {stabilization_limit}"

    rows: list[BoundRow] = []
    lb_avg = avg_degree_lower_bound(g)
    ub_max = max_degree_upper_bound(g)

    targets: list[tuple[str, int | None, int | None]] = []
    if curve is not None:
        for s in range(1, k_max + 1):
            targets.append((f"parts:delta[{s}]", s, curve.at(s)))
        targets.append(("parts:small", None, small_parts))
    value_at_4 = curve.at(4) if curve is not None else None

    for tname, _, tvalue in targets:
        rows.append(BoundRow("avg-degree-lb", tname, lb_avg, True,
                             None if tvalue is None else lb_avg <= tvalue,
                             "mean degree lower-bounds every partition number"))
        rows.append(BoundRow("max-degree-ub", tname, ub_max, True,
                             None if tvalue is None else tvalue <= ub_max,
                             "ceil(n/(n-max degree)) parts always suffice"))

    for kb in range(1, k_max + 1):
        val = power_mean_lower_bound(g, kb)
        for tname, tindex, tvalue in targets:
            tkind = "small" if tindex is None else "delta"
            ok, why = bound_applicability(
                kb, tkind, tindex, value_at_4=value_at_4, target_value=tvalue
            )
            rows.append(BoundRow(f"power-mean-lb[k={kb}]", tname, val, ok,
                                 (val <= tvalue) if ok and tvalue is not None else None,
                                 why))
        # the same bound transfers to clique and chromatic numbers whenever it
        # applies to any partition target they dominate
        if small_parts is not None:
            ok, why = bound_applicability(
                kb, "small", None, value_at_4=value_at_4, target_value=small_parts
            )
            for big_name, big_value in (("clique", omega), ("chromatic", chi)):
                rows.append(BoundRow(f"power-mean-lb[k={kb}]", big_name, val, ok,
                                     (val <= big_value) if ok and big_value is not None else None,
                                     why + "; dominating invariant"))

    cw = caro_wei_bound(g)
    rows.append(BoundRow("caro-wei-lb", "clique", cw, True,
                         None if omega is None else cw <= omega,
                         "reciprocal degree sum never exceeds the clique number"))

    tight, weak = size_upper_bounds(g)
    alpha1 = sizes.at(1)
    rows.append(BoundRow("size-quadratic-ub", "size:delta[1]", tight, True,
                         alpha1 <= tight, "max-degree quadratic ceiling"))
    rows.append(BoundRow("size-quadratic-ub-weak", "size:delta[1]", weak, True,
                         alpha1 <= weak and tight <= weak,
                         "degree-free relaxation of the quadratic ceiling"))
    prefix_bound = delta_small_size_bound(g, degree_order(g)[:alpha1])
    rows.append(BoundRow("size-rest-mean-ub", "size:delta[1]", prefix_bound, True,
                         alpha1 <= prefix_bound,
                         "quadratic ceiling from the mean degree outside the set"))

    wmin, wmax = g.n - g.max_degree, g.n - g.min_degree
    rows.append(BoundRow("size-window", "size:delta[*]", None, True,
                         all(wmin <= v <= wmax for v in sizes.values),
                         "sizes sit between n - max degree and n - min degree"))
    rows.append(BoundRow("size-curve-non-increasing", "size:delta[*]", None, True,
                         all(a >= b for a, b in zip(sizes.values, sizes.values[1:])),
                         "power mean grows with the exponent"))
    rows.append(BoundRow("size-plateau", "size:small", None, True,
                         sizes.values[sizes.stable_k - 1] == sizes.plateau
                         and all(v == sizes.plateau
                                 for v in sizes.values[sizes.stable_k - 1:]),
                         "curve sits at the small maximum past its stabilization"))
    if alpha is not None:
        rows.append(BoundRow("size-vs-independence", "independence", sizes.plateau, True,
                             sizes.plateau >= alpha,
                             "independent sets are small sets"))

    if curve is not None:
        rows.append(BoundRow("parts-curve-non-decreasing", "parts:delta[*]", None, True,
                             all(a <= b for a, b in zip(curve.values, curve.values[1:]))
                             and curve.values[-1] <= small_parts,
                             "feasible families shrink as the exponent grows"))
        rows.append(BoundRow("alpha-parts-between", "parts:alpha", alpha_parts, True,
                             curve.at(1) <= alpha_parts <= small_parts,
                             "reciprocal-sum parts sit between the exponent-1 "
                             "and plain-small part counts"))
        if omega is not None:
            rows.append(BoundRow("parts-vs-clique", "clique", small_parts, True,
                                 small_parts <= omega,
                                 "a maximum clique forces one part per member"))
    if omega is not None and chi is not None:
        rows.append(BoundRow("clique-vs-chromatic", "chromatic", omega, True,
                             omega <= chi, "coloring classes meet every clique"))

    return BoundReport(graph_id, g.n, g.edge_count, g.degrees, exact, skipped, rows)


# ---------------------------------------------------------------------------
# ordered per-graph map


# graphs handed to the process pool per round: bounds what the parent holds
# (one batch of graphs and results) while keeping the workers busy
_BATCH = 4096


def _per_graph_worker(fn, params: dict, item: tuple[str, Graph]):
    gid, g = item
    return fn(g, gid, **params)


def per_graph(fn, graphs: Iterable[tuple[str, Graph]], jobs: int = 1, **params) -> Iterator:
    """Yield ``fn(g, gid, **params)`` for each ``(gid, g)``, in input order.

    Runs in process when ``jobs <= 1`` or the corpus is a single graph, else
    in one pool of ``jobs`` processes, ``_BATCH`` graphs at a time in about 8
    chunks per worker. ``fn`` must be module-level: workers get it by name.
    """
    it = iter(graphs)
    batch = list(itertools.islice(it, _BATCH)) if jobs > 1 else []
    if len(batch) <= 1:
        for gid, g in itertools.chain(batch, it):
            yield fn(g, gid, **params)
        return
    work = functools.partial(_per_graph_worker, fn, params)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while batch:
            yield from pool.map(work, batch, chunksize=-(-len(batch) // (8 * jobs)))
            batch = list(itertools.islice(it, _BATCH))


# ---------------------------------------------------------------------------
# staircase-gap scanner


@dataclass
class ScanRecord:
    graph_id: str
    n: int
    alpha_parts: int | None
    curve: tuple[int, ...] | None
    small_parts: int | None
    stable_k: int | None
    matched_k: int | None
    verified: bool | None
    skipped: str | None = None


def scan_record_to_dict(rec: ScanRecord) -> dict:
    return {
        "graph": rec.graph_id,
        "n": rec.n,
        "alpha_parts": rec.alpha_parts,
        "curve": list(rec.curve) if rec.curve is not None else None,
        "small_parts": rec.small_parts,
        "stable_k": rec.stable_k,
        "matched_k": rec.matched_k,
        "verified": rec.verified,
        "skipped": rec.skipped,
    }


def _gap_reverify(g: Graph, alpha_parts: int, curve_values: tuple[int, ...]) -> bool:
    """Independently recompute a candidate gap with the brute-force minimizer.

    Returns True when the recomputation confirms the reciprocal-sum partition
    number misses every power-mean value.
    """
    if g.n > BRUTE_LIMIT:
        return False
    brute_alpha = brute_min_parts(g, "alpha")
    brute_curve = [brute_min_parts(g, "delta", k) for k in range(1, len(curve_values) + 1)]
    if brute_alpha != alpha_parts or tuple(brute_curve) != curve_values:
        return False
    return brute_alpha not in brute_curve


def _scan_one(g: Graph, gid: str, exact_limit: int) -> ScanRecord:
    if g.n < 1 or g.n > exact_limit:
        return ScanRecord(gid, g.n, None, None, None, None, None, None,
                          skipped=f"n={g.n} outside 1..{exact_limit}")
    curve = partition_curve(g, 1, limit=exact_limit)
    alpha_parts = min_partition(g, "alpha", limit=exact_limit).value
    matched = None
    for i, v in enumerate(curve.values, start=1):
        if v == alpha_parts:
            matched = i
            break
    verified = None
    if matched is None:
        verified = _gap_reverify(g, alpha_parts, curve.values)
    return ScanRecord(gid, g.n, alpha_parts, curve.values, curve.small_value,
                      curve.stable_k, matched, verified)


def scan_records(
    graphs: Iterable[tuple[str, Graph]],
    exact_limit: int | None = None,
    jobs: int = 1,
) -> Iterator[ScanRecord]:
    """Stream one record per graph: the reciprocal-sum partition number, the
    power-mean staircase to its stabilization, and the least exponent whose
    value matches (None marks a gap candidate, re-verified before emission).

    Records come in input order for any ``jobs`` (see ``per_graph``).
    """
    if exact_limit is None:
        exact_limit = DEFAULT_EXACT_LIMIT
    yield from per_graph(_scan_one, graphs, jobs, exact_limit=exact_limit)


# ---------------------------------------------------------------------------
# corpus verification


@dataclass
class Finding:
    graph_id: str
    suite: str
    detail: str
    edges: list[tuple[int, int]]


@dataclass
class VerifySummary:
    graphs: int
    checks: int
    passed: int
    suites: dict[str, list[int]]  # suite -> [run, passed]
    findings: list[Finding]

    @property
    def ok(self) -> bool:
        return not self.findings


# degree-class count vectors the predicate sweep of ``_verify_graph`` visits
# exhaustively; graphs with more vectors get seeded random masks instead
_SWEEP_BUDGET = 1 << 10


def _class_representatives(pools: list[list[int]]) -> list[int]:
    """One vertex mask per degree-class count vector, built from the
    lowest-id members of each class in ``pools``."""
    prefixes = []
    for pool in pools:
        masks = [0]
        for v in pool:
            masks.append(masks[-1] | 1 << v)
        prefixes.append(masks)
    return [sum(combo) for combo in itertools.product(*prefixes)]  # disjoint classes


def _verify_graph(
    g: Graph, gid: str, k_max: int, exact_limit: int | None, **limits
) -> list[tuple[str, bool, str]]:
    """All per-graph checks as (suite, ok, detail) triples; ``limits`` are the
    other size guards of ``build_report``."""
    checks: list[tuple[str, bool, str]] = []
    report = build_report(g, gid, k_max=k_max, exact_limit=exact_limit, **limits)
    for row in report.bounds:
        if row.applicable and row.satisfied is not None:
            checks.append(("bound-table", row.satisfied, f"{row.name} vs {row.target}"))

    # predicate implications and the stabilization index, in one sweep. Both
    # predicates read only a set's size and degree multiset, so one
    # representative per degree-class count vector stands for every subset:
    # the sweep is exhaustive while there are at most _SWEEP_BUDGET vectors,
    # and only then confirms build_report's index k0.
    n = g.n
    pools = _degree_pools(g)
    masks: Iterable[int]
    k0 = None
    if math.prod(len(pool) + 1 for pool in pools) <= _SWEEP_BUDGET:
        masks = _class_representatives(pools)
        k0 = report.exact.get("stabilization_index")
    else:
        rng = random.Random(0xD5)
        masks = [rng.randrange(1 << n) for _ in range(256)]
    regular = g.max_degree == g.min_degree
    ok_impl = True
    ok_chain = True
    ok_reg = True
    confirm = True
    witness = False
    for mask in masks:
        vs = VertexSet(g, mask)
        small = smallness.is_small(g, vs).holds
        dk = {k: smallness.is_delta_small(g, vs, k).holds for k in range(1, 5)}
        for k in range(1, 5):
            if small and not dk[k]:
                ok_impl = False
            if k > 1 and dk[k] and not dk[k - 1]:
                ok_chain = False  # passing at k must imply passing at k - 1
            if regular and dk[k] != small:
                ok_reg = False
        if k0 is not None and not small:  # no such set passes at k0, one at k0 - 1
            for k in (k0 - 1, k0):
                if k > 4:
                    dk[k] = smallness.is_delta_small(g, vs, k).holds
            confirm = confirm and not dk[k0]
            witness = witness or k0 > 1 and dk[k0 - 1]
    checks.append(("predicates", ok_impl, "small sets pass every power-mean exponent"))
    checks.append(("predicates", ok_chain, "power-mean feasibility shrinks with the exponent"))
    if regular:
        checks.append(("predicates", ok_reg, "regular graphs: power-mean equals pointwise"))

    # power-mean partition inequality on the curve witnesses
    curve = report.exact.get("min_parts_delta")  # present iff n <= exact_limit
    if curve is not None:
        for k in range(1, min(k_max, len(curve)) + 1):
            res = min_partition(g, "delta", k, limit=exact_limit)
            if k <= res.value:
                ok = partition_power_mean_check(g, res.witness, k)
                checks.append(("partition-mean", ok, f"exponent {k}, {res.value} parts"))

    if k0 is not None:
        checks.append(("stabilization", confirm, f"all power-mean sets small at k={k0}"))
        if k0 > 1:
            checks.append(("stabilization", witness, f"violator exists at k={k0 - 1}"))
    return checks


def _checked_graph(g: Graph, gid: str, **params) -> tuple[list[tuple[str, bool, str]], list[Finding]]:
    """Per-graph checks with failures re-verified before they count.

    A failed check is re-run from scratch (solver caches cleared, and
    cross-checked against the brute-force partition minimizer where size
    permits); only re-verified failures come back as findings.
    """
    checks = _verify_graph(g, gid, **params)
    out: list[tuple[str, bool, str]] = []
    findings: list[Finding] = []
    for suite, ok, detail in checks:
        if ok:
            out.append((suite, True, detail))
            continue
        _min_parts_by_degrees.cache_clear()
        recheck = _verify_graph(g, gid, **params)
        still = [d for s, ok2, d in recheck if s == suite and d == detail and not ok2]
        brute_note = ""
        if still and g.n <= 8:
            exact_small = min_partition(g, "small", limit=params["exact_limit"]).value
            brute_small = brute_min_parts(g, "small")
            if exact_small != brute_small:
                brute_note = f"; brute minimizer disagrees ({brute_small} vs {exact_small})"
        if still:
            out.append((suite, False, detail))
            findings.append(Finding(gid, suite, detail + brute_note, list(g.edges())))
        else:
            out.append((suite, True, detail))
    return out, findings


def verify_corpus(
    graphs: Iterable[tuple[str, Graph]],
    k_max: int = 8,
    exact_limit: int | None = None,
    clique_limit: int = CLIQUE_LIMIT,
    chromatic_limit: int = CHROMATIC_LIMIT,
    stabilization_limit: int = REPORT_STABILIZATION_LIMIT,
    jobs: int = 1,
) -> VerifySummary:
    """Run every inequality suite over a corpus, aggregating as it streams.

    Results are merged in input order (see ``per_graph``), so the summary
    does not depend on jobs.
    """
    params = dict(
        k_max=k_max,
        exact_limit=exact_limit,
        clique_limit=clique_limit,
        chromatic_limit=chromatic_limit,
        stabilization_limit=stabilization_limit,
    )
    suites: dict[str, list[int]] = {}
    findings: list[Finding] = []
    count = total = passed = 0
    for checks, graph_findings in per_graph(_checked_graph, graphs, jobs, **params):
        count += 1
        for suite, ok, _ in checks:
            total += 1
            stats = suites.setdefault(suite, [0, 0])
            stats[0] += 1
            if ok:
                stats[1] += 1
                passed += 1
        findings.extend(graph_findings)
    return VerifySummary(count, total, passed, suites, findings)
