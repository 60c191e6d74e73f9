"""Minimum decompositions of the vertex set into small / delta-k-small /
alpha-small parts, plus exact clique, independence, and chromatic numbers.

Whether a part is feasible depends only on its degree multiset, its size, and
n, never on the induced subgraph. The minimizer therefore works on vectors of
per-degree-class counts rather than raw vertex subsets, with the exact integer
weight-and-threshold test of ``extremal._part_arithmetic``. Typical answers
are 2 or 3, so the solve is bounded by the answer:

1. the whole vertex set is checked as a single part;
2. the ascending-degree prefix greedy runs in count space, stripping
   ``extremal._longest_prefix`` parts; 2 greedy parts are optimal once a
   single part has failed;
3. every sub-vector holding a lowest-class vertex is tried as one of two
   parts, its complement as the other (one sweep over the count vectors);
4. if no 2-part split exists and the greedy used 3 parts, its parts are the
   witness that 3 is exact;
5. otherwise the full dynamic program decides.

The dynamic program has states "remaining count per distinct degree", and
every sub-multiset that contains a vertex of the lowest remaining class is
tried as the next part. That is the full subset dynamic program collapsed by
the equal-degree symmetry. Neither it nor the 2-part sweep skips anything,
which matters because power-mean feasibility is not closed under subsets (a
part mixing one high-degree vertex with several low-degree ones can pass while
its high-degree sub-pair fails). No degree bound is used as a shortcut: the
bound report checks those bounds against these values.

Results are memoized by (n, sorted degree sequence, kind, exponent), so
corpus sweeps that repeat a degree sequence pay for it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import smallness
from .errors import SizeLimitError
from .extremal import _degree_classes, _degree_pools, _exponent_cap, _fits
from .extremal import _longest_prefix, _part_arithmetic, _staircase
from .graphs import Graph, VertexSet

DEFAULT_EXACT_LIMIT = 18
CLIQUE_LIMIT = 20
CHROMATIC_LIMIT = 16
BRUTE_LIMIT = 10
# n-guard on the stabilization index in bound reports and verify; direct
# library calls use extremal.STABILIZATION_LIMIT instead
REPORT_STABILIZATION_LIMIT = 10

KINDS = ("small", "delta", "alpha")


def _check_kind(kind: str, k: int | None) -> int:
    """Validate a smallness kind; returns the exponent to key caches with."""
    if kind not in KINDS:
        raise ValueError(f"unknown smallness kind {kind!r}; expected one of {KINDS}")
    if kind == "delta":
        if k is None or k < 1:
            raise ValueError("kind 'delta' requires an exponent k >= 1")
        return k
    if k is not None:
        raise ValueError(f"kind {kind!r} does not take an exponent")
    return 0


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty vertex sets covering the whole graph.

    ``certified`` is True when every part passes the predicate of ``kind``.
    """

    parts: tuple[VertexSet, ...]
    kind: str
    k: int | None
    certified: bool

    def __len__(self) -> int:
        return len(self.parts)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


@dataclass(frozen=True)
class PartitionResult:
    value: int
    witness: Partition
    method: str  # "exact_dp" or "greedy_upper_only"


@dataclass(frozen=True)
class PartitionCurve:
    """Minimum part counts under the power-mean predicate at exponents 1..len(values).

    Non-decreasing, reaching ``small_value`` (the plain-small minimum) at
    exponent ``stable_k`` and constant beyond it.
    """

    values: tuple[int, ...]
    small_value: int
    stable_k: int

    def at(self, k: int) -> int:
        if k < 1:
            raise ValueError("exponent must be >= 1")
        return self.values[k - 1] if k <= len(self.values) else self.small_value


def _part_holds(g: Graph, vs: VertexSet, kind: str, k: int | None) -> bool:
    if kind == "small":
        return smallness.is_small(g, vs).holds
    if kind == "delta":
        return smallness.is_delta_small(g, vs, k).holds
    return smallness.is_alpha_small(g, vs).holds


def make_partition(
    g: Graph,
    parts: Iterable[VertexSet | Iterable[int]],
    kind: str,
    k: int | None = None,
) -> Partition:
    """Wrap part collections as a Partition, enforcing disjoint cover and
    running the per-part certification."""
    _check_kind(kind, k)
    vsets: list[VertexSet] = []
    union = 0
    total = 0
    for p in parts:
        vs = smallness.coerce_set(g, p)
        if not vs:
            raise ValueError("partitions may not contain empty parts")
        if union & vs.mask:
            raise ValueError("parts overlap")
        union |= vs.mask
        total += len(vs)
        vsets.append(vs)
    if union != g.full_mask or total != g.n:
        raise ValueError("parts do not cover the vertex set")
    certified = all(_part_holds(g, vs, kind, k) for vs in vsets)
    vsets.sort(key=lambda vs: (vs.mask & -vs.mask).bit_length())
    return Partition(tuple(vsets), kind, k, certified)


# ---------------------------------------------------------------------------
# exact minimizer over degree-class count vectors


def _greedy_vectors(n: int, vals: list[int], counts: list[int], weight, thr):
    """Ascending-degree prefix greedy in count space: repeatedly strip the
    ``_longest_prefix`` of the remaining vertices."""
    rem = list(counts)
    parts: list[tuple[int, ...]] = []
    low = 0
    while low < len(rem):
        part = _longest_prefix(n, vals, rem, low, weight, thr)
        parts.append(tuple(part))
        rem = [r - a for r, a in zip(rem, part)]
        while low < len(rem) and not rem[low]:
            low += 1
    return parts


def _two_part_split(n: int, vals: list[int], counts: list[int], weight, thr):
    """A count vector A holding at least one lowest-class vertex such that A
    and its complement ``counts - A`` are both nonempty and feasible, or None.

    One part of any 2-part partition holds a lowest-class vertex, so None
    proves that no 2-part partition exists. Every sub-vector is visited, not
    only degree-order prefixes: power-mean feasibility is not closed under
    subsets, so a winning split may mix low and high classes.
    """
    m = len(counts)
    total = sum(c * w for c, w in zip(counts, weight))
    c0, w0 = counts[0], weight[0]
    # odometer over the classes above the lowest; classes 1..m-1 of A hold
    # ``digits[1:]`` vertices, ``size`` and ``wsum`` in all
    digits = [0] * m
    size = wsum = top = ctop = 0
    while True:
        if thr is None:  # 'small' reads the highest nonempty class of each part
            top = next((i for i in range(m - 1, 0, -1) if digits[i]), 0)
            ctop = next((i for i in range(m - 1, 0, -1) if digits[i] < counts[i]), 0)
        for a in range(1, c0 + 1):
            s, w = size + a, wsum + a * w0
            if s == n:
                break
            if _fits(n, vals, thr, s, w, top) and _fits(n, vals, thr, n - s, total - w, ctop):
                return (a, *digits[1:])
        i = 1
        while i < m and digits[i] == counts[i]:
            size -= counts[i]
            wsum -= counts[i] * weight[i]
            digits[i] = 0
            i += 1
        if i == m:
            return None
        digits[i] += 1
        size += 1
        wsum += weight[i]


def _min_parts_bounded(n: int, degs: tuple[int, ...], kind: str, k: int):
    """Exact minimum in the order of the module docstring: settled without
    the DP when the answer is at most 2, or 3 with the greedy's parts as
    witness; ``_min_parts_impl`` otherwise."""
    vals, counts = _degree_classes(degs)
    weight, thr = _part_arithmetic(n, vals, kind, k)
    if _fits(n, vals, thr, n, sum(c * w for c, w in zip(counts, weight)), len(vals) - 1):
        return 1, (tuple(counts),)
    greedy = _greedy_vectors(n, vals, counts, weight, thr)
    if len(greedy) == 2:
        return 2, tuple(greedy)
    split = _two_part_split(n, vals, counts, weight, thr)
    if split is not None:
        return 2, (split, tuple(c - a for c, a in zip(counts, split)))
    if len(greedy) == 3:
        return 3, tuple(greedy)
    return _min_parts_impl(n, degs, kind, k)


def _min_parts_impl(n: int, degs: tuple[int, ...], kind: str, k: int):
    vals, counts = _degree_classes(degs)
    m = len(vals)
    stride = [1] * m
    for i in range(1, m):
        stride[i] = stride[i - 1] * (counts[i - 1] + 1)
    total = stride[m - 1] * (counts[m - 1] + 1)

    weight, thr = _part_arithmetic(n, vals, kind, k)
    inf = n + 1
    best = [inf] * total
    best[0] = 0
    choice = [0] * total
    digits = [0] * m
    sub = [0] * m
    small_mode = thr is None

    for key in range(1, total):
        i = 0
        while digits[i] == counts[i]:
            digits[i] = 0
            i += 1
        digits[i] += 1
        low = i  # positions below i were just zeroed, so i is the lowest class

        for j in range(low + 1, m):
            sub[j] = 0
        sub[low] = 1
        subkey = stride[low]
        size = 1
        wsum = weight[low]
        top = low
        bb = inf
        bc = 0
        while True:
            if small_mode:
                feasible = vals[top] + size <= n
            else:
                feasible = wsum <= thr[size]
            if feasible:
                c = best[key - subkey] + 1
                if c < bb:
                    bb = c
                    bc = subkey
            j = low
            while j < m and sub[j] == digits[j]:
                j += 1
            if j == m:
                break
            sub[j] += 1
            subkey += stride[j]
            size += 1
            wsum += weight[j]
            if j > top:
                top = j
            if j > low:
                c0 = sub[low]
                if c0 > 1:
                    subkey -= (c0 - 1) * stride[low]
                    size -= c0 - 1
                    wsum -= (c0 - 1) * weight[low]
                    sub[low] = 1
                for q in range(low + 1, j):
                    cq = sub[q]
                    if cq:
                        subkey -= cq * stride[q]
                        size -= cq
                        wsum -= cq * weight[q]
                        sub[q] = 0
        best[key] = bb
        choice[key] = bc

    parts: list[tuple[int, ...]] = []
    key = total - 1
    while key:
        sk = choice[key]
        rem = sk
        cvec = []
        for i in range(m):
            cvec.append(rem % (counts[i] + 1))
            rem //= counts[i] + 1
        parts.append(tuple(cvec))
        key -= sk  # sub-part counts never exceed the state's, so no borrows
    return best[total - 1], tuple(parts)


@lru_cache(maxsize=1 << 16)
def _min_parts_by_degrees(n: int, degs: tuple[int, ...], kind: str, k: int):
    """Cached exact minimum; parts come back as per-degree-class count vectors."""
    return _min_parts_bounded(n, degs, kind, k)


def _materialize(g: Graph, part_vectors, kind: str, k: int | None) -> Partition:
    """Assign concrete vertex ids to count-vector parts (lowest ids first)."""
    pools = _degree_pools(g)
    ids_parts: list[list[int]] = []
    for cvec in part_vectors:
        ids: list[int] = []
        for ci, cnt in enumerate(cvec):
            if cnt:
                ids.extend(pools[ci][:cnt])
                del pools[ci][:cnt]
        ids_parts.append(ids)
    return make_partition(g, ids_parts, kind, k)


def min_partition(
    g: Graph, kind: str, k: int | None = None, limit: int | None = None
) -> PartitionResult:
    """Exact minimum number of kind-feasible parts, with a certified witness.

    Always solvable (singletons pass all three predicates), so the value is
    at most n. Exponential in n; guarded by ``limit``.
    """
    kk = _check_kind(kind, k)
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if limit is None:
        limit = DEFAULT_EXACT_LIMIT
    if g.n > limit:
        raise SizeLimitError(
            f"exact partition search capped at n={limit} (got {g.n}); "
            "greedy_partition gives an upper bound"
        )
    value, cparts = _min_parts_by_degrees(g.n, tuple(sorted(g.degrees)), kind, kk)
    witness = _materialize(g, cparts, kind, k)
    if not witness.certified or len(witness) != value:
        raise AssertionError("internal: witness does not certify the computed value")
    return PartitionResult(value, witness, "exact_dp")


def greedy_partition(g: Graph, kind: str, k: int | None = None) -> PartitionResult:
    """Certified upper bound: repeatedly strip the longest feasible prefix of
    the remaining vertices in ascending-degree order. Its first part is a
    largest feasible set (``extremal._longest_prefix``)."""
    kk = _check_kind(kind, k)
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    vals, counts = _degree_classes(sorted(g.degrees))
    weight, thr = _part_arithmetic(g.n, vals, kind, kk)
    witness = _materialize(g, _greedy_vectors(g.n, vals, counts, weight, thr), kind, k)
    if not witness.certified:
        raise AssertionError("internal: greedy produced an uncertified part")
    return PartitionResult(len(witness), witness, "greedy_upper_only")


def partition_curve(
    g: Graph,
    k_max: int,
    limit: int | None = None,
    resolve_all: bool = False,
) -> PartitionCurve:
    """Minimum part counts at exponents 1..max(k_max, stabilization).

    Exponents up to the observed stabilization are solved directly. Beyond it
    the minimum provably equals the plain-small value (at that point every
    feasible part is small, and small parts stay feasible at every exponent),
    so later entries are filled with it unless ``resolve_all`` forces a
    fresh solve per exponent.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    kk = _check_kind("small", None)
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if limit is None:
        limit = DEFAULT_EXACT_LIMIT
    if g.n > limit:
        raise SizeLimitError(f"exact partition search capped at n={limit} (got {g.n})")
    degs = tuple(sorted(g.degrees))
    small_value = _min_parts_by_degrees(g.n, degs, "small", kk)[0]
    values, stable = _staircase(
        lambda k: _min_parts_by_degrees(g.n, degs, "delta", k)[0],
        small_value,
        _exponent_cap(g),
        k_max,
        not resolve_all,
        "partition curve still below",
    )
    return PartitionCurve(values, small_value, stable)


def brute_min_parts(g: Graph, kind: str, k: int | None = None, limit: int = BRUTE_LIMIT) -> int:
    """Reference minimizer enumerating every set partition (Bell-number work).

    Feasibility of a part is not inherited by sub-parts, so blocks are only
    checked once complete. Used to re-verify findings; far too slow beyond
    small n.
    """
    _check_kind(kind, k)
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > limit:
        raise SizeLimitError(f"brute-force partition search capped at n={limit}")
    n = g.n
    best = n  # singletons always work
    blocks: list[list[int]] = []

    def place(v: int) -> None:
        nonlocal best
        if len(blocks) >= best:
            return
        if v == n:
            if all(_part_holds(g, VertexSet(g, b), kind, k) for b in blocks):
                best = len(blocks)
            return
        for b in blocks:
            b.append(v)
            place(v + 1)
            b.pop()
        blocks.append([v])
        place(v + 1)
        blocks.pop()

    place(0)
    return best


# ---------------------------------------------------------------------------
# exact classical invariants


def clique_number(g: Graph, limit: int = CLIQUE_LIMIT) -> int:
    """Exact clique number: branch and bound with a greedy-coloring bound."""
    if g.n > limit:
        raise SizeLimitError(f"clique solver capped at n={limit} (got {g.n})")
    if g.n == 0:
        return 0
    adj = g.adj
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            q = rest
            while q:
                bit = q & -q
                v = bit.bit_length() - 1
                order.append(v)
                bounds.append(color)
                q &= ~adj[v]
                q ^= bit
                rest ^= bit
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            nxt = cand & adj[v]
            if nxt:
                expand(size + 1, nxt)
            elif size + 1 > best:
                best = size + 1
            cand ^= 1 << v

    expand(0, g.full_mask)
    return best


def independence_number(g: Graph, limit: int = CLIQUE_LIMIT) -> int:
    """Exact independence number, as the clique number of the complement."""
    return clique_number(g.complement(), limit=limit)


def _greedy_coloring(g: Graph) -> int:
    """Largest-first greedy coloring; returns the number of colors used."""
    order = sorted(range(g.n), key=lambda v: (-g.degrees[v], v))
    colors = [-1] * g.n
    used = 0
    for v in order:
        taken = 0
        row = g.adj[v]
        while row:
            bit = row & -row
            c = colors[bit.bit_length() - 1]
            if c >= 0:
                taken |= 1 << c
            row ^= bit
        c = 0
        while taken >> c & 1:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
    return used


def _colorable(g: Graph, r: int) -> bool:
    """Backtracking r-colorability with saturation-first vertex choice and
    new-color symmetry breaking."""
    n = g.n
    adj = g.adj
    colors = [-1] * n
    neigh_used = [0] * n

    def rec(done: int, used_count: int) -> bool:
        if done == n:
            return True
        pick = -1
        pick_key = (-1, -1, 0)
        for v in range(n):
            if colors[v] < 0:
                key = (neigh_used[v].bit_count(), g.degrees[v], -v)
                if key > pick_key:
                    pick_key = key
                    pick = v
        v = pick
        avail = ~neigh_used[v] & ((1 << min(used_count + 1, r)) - 1)
        while avail:
            bit = avail & -avail
            c = bit.bit_length() - 1
            avail ^= bit
            colors[v] = c
            touched = []
            row = adj[v]
            while row:
                nb = row & -row
                u = nb.bit_length() - 1
                if colors[u] < 0 and not neigh_used[u] >> c & 1:
                    neigh_used[u] |= 1 << c
                    touched.append(u)
                row ^= nb
            if rec(done + 1, max(used_count, c + 1)):
                return True
            for u in touched:
                neigh_used[u] ^= 1 << c
            colors[v] = -1
        return False

    return rec(0, 0)


def chromatic_number(g: Graph, limit: int = CHROMATIC_LIMIT) -> int:
    """Exact chromatic number: clique lower bound, greedy upper bound, then
    iterative deepening on backtracking colorability."""
    if g.n > limit:
        raise SizeLimitError(f"chromatic solver capped at n={limit} (got {g.n})")
    if g.n == 0:
        return 0
    if g.edge_count == 0:
        return 1
    lower = clique_number(g, limit=g.n)
    upper = _greedy_coloring(g)
    if lower == upper:
        return lower
    for r in range(lower, upper):
        if _colorable(g, r):
            return r
    return upper
