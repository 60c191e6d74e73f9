"""Largest smallness-feasible set sizes, stabilization indices, and the exact
part test shared with the partition solver.

All three predicates read only a set's size, its degree multiset and n:
``_part_arithmetic`` is their exact integer form over degree-class count
vectors, and the largest feasible set is the longest feasible ascending-degree
prefix (``_longest_prefix``), which is also the greedy partition's first part.

As the exponent grows the power mean climbs toward the maximum member degree,
so the delta-k family of feasible sets shrinks with k and the maximum size is
non-increasing, reaching the plain-small maximum at a finite exponent. The
index where the two predicates coincide for *every* subset is computed
exhaustively in ``stabilization_index``, over degree-class count vectors (one
per multiset, prod(c_i + 1) of them for class sizes c_i) rather than over all
2**n vertex masks.
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


def _part_arithmetic(n: int, vals: list[int], kind: str, k: int):
    """Exact integer form of the part predicate over degree classes ``vals``.

    Returns ``(weight, thr)``: a part holding a_i vertices of class i, of size
    s = sum(a_i), is feasible iff sum(a_i * weight[i]) <= thr[s]. For 'small'
    ``thr`` is None and the test is pointwise instead: vals[top] + s <= n,
    where top is the part's highest nonempty class.
    """
    if kind == "delta":
        return [v**k for v in vals], [s * (n - s) ** k for s in range(n + 1)]
    if kind == "alpha":
        common = math.lcm(*(n - v for v in vals))
        return [common // (n - v) for v in vals], [common] * (n + 1)
    return [0] * len(vals), None


def _fits(n: int, vals: list[int], thr, size: int, wsum: int, top: int) -> bool:
    """The ``_part_arithmetic`` test for one nonempty part."""
    if thr is None:
        return vals[top] + size <= n
    return wsum <= thr[size]


def _longest_prefix(n: int, vals: list[int], rem: list[int], low: int, weight, thr) -> list[int]:
    """Count vector of the longest feasible ascending-degree prefix of ``rem``
    (classes below ``low`` are empty).

    Along that order every test is monotone: a vertex of no smaller degree
    cannot lower the power mean, the top degree or the reciprocal sum, and the
    threshold never grows with the size, so the scan stops at the first
    failure. Swapping a member for an unused lower-degree vertex keeps a set
    feasible, so from the whole vertex set no feasible set is larger. A single
    vertex always fits, so the part is nonempty whenever ``rem`` is.
    """
    part = [0] * len(rem)
    size = wsum = 0
    for i in range(low, len(rem)):
        while part[i] < rem[i] and _fits(n, vals, thr, size + 1, wsum + weight[i], i):
            size += 1
            wsum += weight[i]
            part[i] += 1
        if part[i] < rem[i]:
            break
    return part


def _max_size(n: int, vals: list[int], counts: list[int], kind: str, k: int) -> int:
    """Largest size of a kind-feasible set: the longest feasible prefix."""
    return sum(_longest_prefix(n, vals, counts, 0, *_part_arithmetic(n, vals, kind, k)))


def max_small_size(g: Graph) -> int:
    """Largest size of a small set: the longest prefix with d(v_s) <= n - s."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    return _max_size(g.n, *_degree_classes(sorted(g.degrees)), "small", 0)


def max_delta_small_size(g: Graph, k: int) -> int:
    """Largest size of a delta-k-small set, by the sorted-prefix rule.

    Always at least 1: a singleton has degree at most n - 1.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    return _max_size(g.n, *_degree_classes(sorted(g.degrees)), "delta", k)


def _exponent_cap(size: int, top: int) -> int:
    """Exponent by which a non-small set of ``size`` members with maximum degree
    ``top`` fails the power-mean test: its mean is at least top * size**(-1/k),
    past this k above top - 1/2, which integer rounding turns into a refutation."""
    if top == 0 or size <= 1:
        return 1
    return 2 + math.ceil(math.log(size) / math.log(top / (top - 0.5)))


def _prefix_cap(n: int, vals: list[int], counts: list[int]) -> int:
    """Certified exponent beyond which every non-small degree prefix fails the
    power-mean test: past it the prefix rule returns the plain-small maximum.
    The cap grows with the prefix size, so each class's last prefix decides."""
    ends = itertools.accumulate(counts)
    return max((_exponent_cap(end, v) for v, end in zip(vals, ends) if v > n - end), default=1)


def _staircase(value, plateau: int, cap: int, k_max: int, fill: bool, what: str):
    """``(values, stable)``: ``value(k)`` for k = 1..max(k_max, stable), where
    ``stable`` is the first k with ``value(k) == plateau``. With ``fill`` the
    entries past ``stable`` are ``plateau`` and ``value`` is not called.
    Raises StabilizationError, its message led by ``what``, if the plateau is
    not reached by exponent ``cap``.
    """
    values: list[int] = []
    stable: int | None = None
    k = 1
    while stable is None or k <= k_max:
        v = plateau if fill and stable is not None else value(k)
        values.append(v)
        if stable is None:
            if v == plateau:
                stable = k
            elif k >= cap:
                raise StabilizationError(f"{what} {plateau} at exponent {k}: tail {values[-5:]}")
        k += 1
    return tuple(values), stable


def size_curve(g: Graph, k_max: int) -> SizeCurve:
    """Maximum delta-k-small sizes for k = 1..max(k_max, stabilization).

    Every entry is evaluated directly from the prefix rule, also past the
    plateau, so the bound table's monotonicity and plateau rows test real
    values. The search for the stabilization exponent always terminates; its
    cap exists only to turn a would-be infinite loop into a loud error.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    n = g.n
    vals, counts = _degree_classes(sorted(g.degrees))
    plateau = _max_size(n, vals, counts, "small", 0)
    values, stable = _staircase(
        lambda k: _max_size(n, vals, counts, "delta", k),
        plateau,
        max(64, 2 * _prefix_cap(n, vals, counts), k_max),
        k_max,
        False,
        "size curve still above",
    )
    return SizeCurve(values, plateau, stable)


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
