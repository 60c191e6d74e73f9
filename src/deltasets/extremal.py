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
2**n vertex masks, with the same ``_part_arithmetic`` test. One certified
exponent, ``_exponent_cap``, bounds the size curve, the partition curve and
the stabilization index alike.
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


def _exponent_cap(g: Graph) -> int:
    """Certified exponent by which every non-small set of ``g`` fails the
    power-mean test, so the size curve, the partition curve and the
    stabilization index all reach their plain-small values by it. A non-small
    set of s members with top degree d has power mean at least d * s**(-1/k),
    above d - 1/2 > n - s once k > log(s) / log(d / (d - 1/2)); that grows with
    s and d, so s = n and the maximum degree serve every set, and 8 spare
    exponents absorb the float logarithm."""
    top = g.max_degree
    if top == 0:
        return 1 + 8  # every set is small
    return 2 + 8 + math.ceil(math.log(g.n) / math.log(top / (top - 0.5)))


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
        _exponent_cap(g),
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
    prod(c_i + 1) vectors cover all 2**n subsets; they are streamed, never
    collected. For each non-small multiset the exponents at which it still
    passes the power-mean test form a prefix 1..K (the power mean is
    non-decreasing in k), so k* is one past the largest such K. Both tests are
    ``_part_arithmetic``'s, one (weight, thr) per exponent shared by all
    vectors; a multiset still passing at ``_exponent_cap`` is an error.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > limit:
        raise SizeLimitError(f"stabilization search capped at n={limit} (got {g.n})")
    n = g.n
    vals, counts = _degree_classes(sorted(g.degrees))
    cap = _exponent_cap(g)
    tests: list[tuple] = []  # tests[k - 1]: the delta-k (weight, thr)
    best = 1
    for cvec in itertools.product(*(range(c + 1) for c in counts)):
        size = sum(cvec)
        if size == 0:
            continue  # the empty set is small
        top = max(i for i, c in enumerate(cvec) if c)
        if _fits(n, vals, None, size, 0, top):
            continue  # small sets are never violators
        for k in itertools.count(1):
            if k > len(tests):
                tests.append(_part_arithmetic(n, vals, "delta", k))
            weight, thr = tests[k - 1]
            if not _fits(n, vals, thr, size, sum(c * w for c, w in zip(cvec, weight)), top):
                break
            if k >= cap:
                members = {vals[i]: c for i, c in enumerate(cvec) if c}
                raise StabilizationError(
                    f"degree multiset {members} still passes the power-mean test at k={k}"
                )
        best = max(best, k)
    return best
