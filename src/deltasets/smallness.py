"""Degree power sums, power means, and the three smallness predicates.

Every decision here is made in exact arbitrary-precision arithmetic: integer
comparisons for the power-mean predicate (both sides raised to the k-th power,
valid because both are non-negative) and rational arithmetic for the
reciprocal-sum predicate. Floating point appears only in the display-oriented
power mean.

For an n-vertex graph and a subset W of its vertices:

* W is *small* when every member degree is at most n - |W|.
* W is *delta-k-small* when the k-th power mean of the member degrees is at
  most n - |W|.
* W is *alpha-small* when the reciprocal degrees-to-go sum
  ``sum(1 / (n - d(v)))`` over members is at most 1.

The empty set satisfies all three vacuously, so partition builders never need
an empty-part special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .graphs import Graph, VertexSet


class PowerSum(NamedTuple):
    k: int
    value: int


@dataclass(frozen=True)
class SmallnessVerdict:
    """Outcome of one smallness test.

    ``witness`` is set only when the pointwise 'small' check fails: a member
    whose degree exceeds n - |W| (lowest id among the maximal-degree
    violators). Mean-based kinds report ``slack`` = RHS - LHS instead, an
    exact integer for the power-mean kind and an exact rational for the
    reciprocal-sum kind.
    """

    kind: str
    holds: bool
    k: int | None = None
    witness: int | None = None
    slack: int | Fraction | None = None


def coerce_set(g: Graph, members: VertexSet | Iterable[int]) -> VertexSet:
    """Accept a VertexSet (owner checked) or any iterable of vertex ids."""
    if isinstance(members, VertexSet):
        if members.graph is not g:
            raise ValueError("vertex set belongs to a different graph")
        return members
    return VertexSet(g, members)


def power_sum(g: Graph, members: VertexSet | Iterable[int], k: int) -> PowerSum:
    """Exact sum of member degrees raised to the k-th power (0 for the empty set)."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    w = coerce_set(g, members)
    return PowerSum(k, sum(d**k for d in w.degrees()))


def degree_power_mean(g: Graph, members: VertexSet | Iterable[int], k: int) -> float:
    """Floating k-th power mean of the member degrees. Display only.

    Computed with max-degree factoring so huge d**k never hits float range:
    max_d * (mean((d / max_d) ** k)) ** (1/k). All decisions elsewhere use
    exact comparisons; never branch on this value.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    w = coerce_set(g, members)
    degs = w.degrees()
    if not degs:
        raise ValueError("power mean of the empty set is undefined")
    top = max(degs)
    if top == 0:
        return 0.0
    scaled = sum((d / top) ** k for d in degs) / len(degs)
    return top * scaled ** (1.0 / k)


def is_small(g: Graph, members: VertexSet | Iterable[int]) -> SmallnessVerdict:
    """Pointwise check: holds iff every member degree is at most n - |W|."""
    w = coerce_set(g, members)
    size = len(w)
    if size == 0:
        return SmallnessVerdict(kind="small", holds=True)
    bound = g.n - size
    worst = -1
    violator = None
    for v in w:
        d = g.degrees[v]
        if d > worst:
            worst = d
            violator = v
    if worst <= bound:
        return SmallnessVerdict(kind="small", holds=True)
    return SmallnessVerdict(kind="small", holds=False, witness=violator)


def is_delta_small(g: Graph, members: VertexSet | Iterable[int], k: int) -> SmallnessVerdict:
    """Power-mean check: holds iff sum(d**k) <= |W| * (n - |W|)**k, exactly."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    w = coerce_set(g, members)
    size = len(w)
    if size == 0:
        return SmallnessVerdict(kind="delta", holds=True, k=k, slack=0)
    lhs = sum(d**k for d in w.degrees())
    rhs = size * (g.n - size) ** k
    return SmallnessVerdict(kind="delta", holds=lhs <= rhs, k=k, slack=rhs - lhs)


def is_alpha_small(g: Graph, members: VertexSet | Iterable[int]) -> SmallnessVerdict:
    """Reciprocal-sum check: holds iff sum(1 / (n - d(v))) <= 1, in exact rationals.

    n - d(v) >= 1 always, so there is no division by zero.
    """
    gaps = [g.n - d for d in coerce_set(g, members).degrees()]
    den = math.lcm(*gaps)  # one common denominator; 1 for the empty set
    slack = Fraction(den - sum(den // x for x in gaps), den)
    return SmallnessVerdict(kind="alpha", holds=slack >= 0, slack=slack)
