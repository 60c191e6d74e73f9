"""Largest smallness-feasible set sizes and stabilization indices.

The largest delta-k-small set is found by a sorted-prefix rule: order the
vertices by ascending degree and take the longest prefix that passes the
predicate. Replacing any member of a feasible set by an unused lower-degree
vertex can only lower the power mean, so some maximum-size set is always a
prefix; the same exchange argument covers the pointwise 'small' kind.

As the exponent grows the power mean climbs toward the maximum member degree,
so the delta-k family of feasible sets shrinks with k and the maximum size is
non-increasing, reaching the plain-small maximum at a finite exponent. The
index where the two predicates coincide for *every* subset is computed
exhaustively in ``stabilization_index``. Both predicates depend only on a
set's size and degree multiset, so that search runs over degree-class count
vectors (one per multiset, prod(c_i + 1) of them for class sizes c_i) rather
than over all 2**n vertex masks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import SizeLimitError, StabilizationError
from .graphs import Graph

STABILIZATION_LIMIT = 18


@dataclass(frozen=True)
class SizeCurve:
    """Maximum delta-k-small set sizes for exponents 1..len(values).

    values[i] is the size at exponent i+1; the sequence is non-increasing and
    equals ``plateau`` (the maximum small-set size) for every exponent at or
    beyond ``stable_k``.
    """

    values: tuple[int, ...]
    plateau: int
    stable_k: int

    def at(self, k: int) -> int:
        if k < 1:
            raise ValueError("exponent must be >= 1")
        return self.values[k - 1] if k <= len(self.values) else self.plateau


def degree_order(g: Graph) -> tuple[int, ...]:
    """Vertex ids sorted by ascending degree, ties broken by ascending id."""
    return tuple(sorted(range(g.n), key=lambda v: (g.degrees[v], v)))


def _degree_classes(degs: Sequence[int]) -> tuple[list[int], list[int]]:
    """Distinct values of a sorted degree sequence and how often each occurs."""
    vals: list[int] = []
    counts: list[int] = []
    for d in degs:
        if vals and vals[-1] == d:
            counts[-1] += 1
        else:
            vals.append(d)
            counts.append(1)
    return vals, counts


def _degree_pools(g: Graph) -> list[list[int]]:
    """``degree_order`` cut into its degree classes: one list of vertex ids per
    distinct degree, classes by ascending degree, ids ascending within each."""
    order = degree_order(g)
    _, counts = _degree_classes([g.degrees[v] for v in order])
    pools: list[list[int]] = []
    pos = 0
    for c in counts:
        pools.append(list(order[pos : pos + c]))
        pos += c
    return pools


def max_small_size(g: Graph) -> int:
    """Largest size of a small set: the longest prefix with d(v_s) <= n - s."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    degs = sorted(g.degrees)
    n = g.n
    best = 0
    for s in range(1, n + 1):
        if degs[s - 1] <= n - s:
            best = s
    return best


def max_delta_small_size(g: Graph, k: int) -> int:
    """Largest size of a delta-k-small set, by the sorted-prefix rule.

    Always at least 1: a singleton has degree at most n - 1.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    degs = sorted(g.degrees)
    n = g.n
    best = 0
    running = 0
    for s in range(1, n + 1):
        running += degs[s - 1] ** k
        if running <= s * (n - s) ** k:
            best = s
    return best


def _exponent_cap(size: int, top: int) -> int:
    """Exponent by which a non-small set of ``size`` members with maximum degree
    ``top`` fails the power-mean test: its mean is at least top * size**(-1/k),
    past this k above top - 1/2, which integer rounding turns into a refutation."""
    if top == 0 or size <= 1:
        return 1
    return 2 + math.ceil(math.log(size) / math.log(top / (top - 0.5)))


def _prefix_cap(g: Graph) -> int:
    """Certified exponent beyond which every non-small degree prefix fails the
    power-mean test: past it the prefix rule returns the plain-small maximum."""
    degs = sorted(g.degrees)
    n = g.n
    cap = 1
    for s in range(1, n + 1):
        top = degs[s - 1]
        if top > n - s:
            cap = max(cap, _exponent_cap(s, top))
    return cap


def size_curve(g: Graph, k_max: int, hard_cap: int | None = None) -> SizeCurve:
    """Maximum delta-k-small sizes for k = 1..max(k_max, stabilization).

    Every entry is evaluated directly from the prefix rule. The search for the
    stabilization exponent always terminates; the hard cap exists only to turn
    a would-be infinite loop into a loud error.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    plateau = max_small_size(g)
    if hard_cap is None:
        hard_cap = max(64, 2 * _prefix_cap(g), k_max)
    values: list[int] = []
    stable: int | None = None
    k = 1
    while stable is None or k <= k_max:
        v = max_delta_small_size(g, k)
        values.append(v)
        if stable is None and v == plateau:
            stable = k
        if stable is None and k >= hard_cap:
            raise StabilizationError(
                f"size curve still above {plateau} at exponent {k}: tail {values[-5:]}"
            )
        k += 1
    return SizeCurve(tuple(values), plateau, stable)


def stabilization_index(g: Graph, limit: int = STABILIZATION_LIMIT) -> int:
    """Least exponent k* such that for all k >= k*, every delta-k-small set is small.

    Exhaustive over every vertex subset, visited one degree multiset at a time:
    both predicates see only a set's size and member degrees, so each vector
    of per-degree-class counts stands for all subsets with that multiset, and
    prod(c_i + 1) vectors cover all 2**n subsets. For each non-small multiset
    the exponents at which it still passes the power-mean test form a prefix
    1..K (the power mean is non-decreasing in k), so k* is one past the
    largest such K. The inner loop is guaranteed to stop because the power
    mean converges to the maximum member degree, which exceeds the fixed
    threshold n - |W|; an explicit per-set cap asserts that.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > limit:
        raise SizeLimitError(f"stabilization search capped at n={limit} (got {g.n})")
    n = g.n
    vals, counts = _degree_classes(sorted(g.degrees))
    best = 1
    for cvec in itertools.product(*(range(c + 1) for c in counts)):
        members = [(d, c) for d, c in zip(vals, cvec) if c]
        if not members:
            continue  # the empty set is small
        size = sum(cvec)
        t = n - size
        top = members[-1][0]  # classes ascend by degree
        if top <= t:
            continue  # small sets are never violators
        if t == 0:
            continue  # positive power sum can never fit a zero threshold
        cap = _exponent_cap(size, top)
        powers = [d for d, _ in members]
        k = 1
        last_ok = 0
        while sum(p * c for p, (_, c) in zip(powers, members)) <= size * t**k:
            last_ok = k
            k += 1
            if k > cap + 2:
                raise StabilizationError(
                    f"degree multiset {dict(members)} still passes the power-mean test at k={k}"
                )
            powers = [p * d for p, (d, _) in zip(powers, members)]
        if last_ok + 1 > best:
            best = last_ok + 1
    return best
