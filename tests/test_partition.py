import random

import pytest

from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    brute_independence_number,
    brute_min_parts,
    part_feasible,
)

from deltasets import (
    SizeLimitError,
    chromatic_number,
    clique_number,
    enumerate_graphs,
    from_edge_list,
    gen_gnp,
    greedy_partition,
    independence_number,
    make_partition,
    min_partition,
    partition_curve,
)
from deltasets import partition as partition_mod
from deltasets.partition import _min_parts_bounded, _min_parts_impl
from deltasets.partition import brute_min_parts as shipped_brute


def _complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_min_partition_c5_small(c5):
    res = min_partition(c5, "small")
    assert res.value == 2
    assert res.method == "exact_dp"
    assert res.witness.certified
    assert sorted(res.witness.sizes()) == [2, 3]


def test_min_partition_complete_all_kinds():
    for n in (3, 5, 7):
        g = _complete(n)
        assert min_partition(g, "small").value == n
        assert min_partition(g, "alpha").value == n
        assert min_partition(g, "delta", 2).value == n


def test_min_partition_edgeless_any_kind(edgeless6):
    for kind, k in [("small", None), ("alpha", None), ("delta", 1)]:
        res = min_partition(edgeless6, kind, k)
        assert res.value == 1
        assert len(res.witness.parts[0]) == 6


def test_min_partition_star_family(star4):
    assert min_partition(star4, "delta", 1).value == 2
    assert min_partition(star4, "delta", 2).value == 2
    assert min_partition(star4, "small").value == 2
    assert min_partition(star4, "alpha").value == 2


def test_min_partition_k4_minus_edge(k4_minus_edge):
    # only the two degree-2 vertices can share a part
    for kind, k in [("small", None), ("alpha", None), ("delta", 1), ("delta", 2)]:
        assert min_partition(k4_minus_edge, kind, k).value == 3


def test_witness_structure(zoo):
    for g in zoo.values():
        for kind, k in [("small", None), ("alpha", None), ("delta", 1), ("delta", 3)]:
            res = min_partition(g, kind, k)
            parts = res.witness.parts
            assert len(parts) == res.value
            union = 0
            for p in parts:
                assert p.mask and not (union & p.mask)
                union |= p.mask
            assert union == g.full_mask
            assert res.witness.certified


def test_min_partition_kind_validation(c5):
    with pytest.raises(ValueError):
        min_partition(c5, "delta")  # missing exponent
    with pytest.raises(ValueError):
        min_partition(c5, "small", 2)  # spurious exponent
    with pytest.raises(ValueError):
        min_partition(c5, "tiny")


def test_min_partition_size_guard():
    g = gen_gnp(19, 0.5, seed=0)
    with pytest.raises(SizeLimitError, match="greedy_partition"):
        min_partition(g, "small")


def test_dp_matches_bell_oracle_exhaustive():
    seen = {}
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            key = (n, tuple(sorted(g.degrees)))
            for kind, k in [("small", None), ("alpha", None)] + [("delta", k) for k in range(1, n + 1)]:
                got = min_partition(g, kind, k).value
                okey = (key, kind, k)
                if okey not in seen:
                    seen[okey] = brute_min_parts(g.degrees, kind, k)
                assert got == seen[okey], (g.adj, kind, k)


def test_dp_matches_bell_oracle_n6_sample():
    rng = random.Random(13)
    graphs = list(enumerate_graphs(6))
    for g in rng.sample(graphs, 120):
        for kind, k in [("small", None), ("alpha", None), ("delta", 2), ("delta", 5)]:
            assert min_partition(g, kind, k).value == brute_min_parts(g.degrees, kind, k)


def test_shipped_brute_agrees_with_dp():
    for i in range(10):
        g = gen_gnp(7, 0.5, seed=700 + i)
        for kind, k in [("small", None), ("alpha", None), ("delta", 2)]:
            assert shipped_brute(g, kind, k) == min_partition(g, kind, k).value


def test_greedy_upper_bounds_exact(zoo):
    for g in zoo.values():
        for kind, k in [("small", None), ("alpha", None), ("delta", 1), ("delta", 4)]:
            greedy = greedy_partition(g, kind, k)
            exact = min_partition(g, kind, k)
            assert greedy.method == "greedy_upper_only"
            assert greedy.witness.certified
            assert greedy.value >= exact.value


def test_greedy_examples(c5, edgeless6):
    assert greedy_partition(c5, "small").value == 2
    assert greedy_partition(_complete(5), "small").value == 5
    assert greedy_partition(edgeless6, "alpha").value == 1


def test_greedy_matches_exact_on_regular():
    from deltasets import gen_regular

    for n, r in [(5, 2), (8, 3), (10, 4), (12, 5)]:
        g = gen_regular(n, r, seed=2)
        for kind in ("small", "alpha"):
            assert greedy_partition(g, kind).value == min_partition(g, kind).value


def test_partition_curve_c5(c5):
    curve = partition_curve(c5, 5)
    assert curve.values == (2, 2, 2, 2, 2)
    assert curve.small_value == 2
    assert curve.stable_k == 1


def test_partition_curve_complete():
    curve = partition_curve(_complete(4), 3)
    assert curve.values == (4, 4, 4)
    assert curve.small_value == 4


def test_partition_curve_monotone_and_stable(zoo):
    for g in zoo.values():
        curve = partition_curve(g, 6, resolve_all=True)
        assert all(a <= b for a, b in zip(curve.values, curve.values[1:]))
        assert curve.values[curve.stable_k - 1] == curve.small_value
        assert all(v == curve.small_value for v in curve.values[curve.stable_k - 1 :])


def test_partition_curve_fill_matches_resolve():
    for i in range(8):
        g = gen_gnp(9, 0.5, seed=800 + i)
        filled = partition_curve(g, 9)
        solved = partition_curve(g, 9, resolve_all=True)
        assert filled == solved


def test_make_partition_validates(c5):
    with pytest.raises(ValueError, match="overlap"):
        make_partition(c5, [[0, 1], [1, 2, 3, 4]], "small")
    with pytest.raises(ValueError, match="cover"):
        make_partition(c5, [[0, 1], [2, 3]], "small")
    with pytest.raises(ValueError, match="empty"):
        make_partition(c5, [[0, 1, 2, 3, 4], []], "small")
    p = make_partition(c5, [[0, 1, 2], [3, 4]], "small")
    assert p.certified
    p_bad = make_partition(c5, [[0, 1, 2, 3], [4]], "small")
    assert not p_bad.certified


def test_clique_chromatic_independence_zoo(c5, star4, k4, petersen):
    assert (clique_number(c5), chromatic_number(c5), independence_number(c5)) == (2, 3, 2)
    assert (clique_number(star4), chromatic_number(star4), independence_number(star4)) == (2, 2, 3)
    assert (clique_number(k4), chromatic_number(k4), independence_number(k4)) == (4, 4, 1)
    assert (clique_number(petersen), chromatic_number(petersen), independence_number(petersen)) == (2, 3, 4)


def test_oracles_match_brute_exhaustive():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert clique_number(g) == brute_clique_number(g.adj)
            assert chromatic_number(g) == brute_chromatic_number(g.adj)
            assert independence_number(g) == brute_independence_number(g.adj)


def test_oracles_match_brute_sampled():
    for i in range(20):
        g = gen_gnp(8, (0.2, 0.5, 0.8)[i % 3], seed=900 + i)
        assert clique_number(g) == brute_clique_number(g.adj)
        assert chromatic_number(g) == brute_chromatic_number(g.adj)
        assert independence_number(g) == brute_independence_number(g.adj)


def test_oracle_size_guards():
    g = gen_gnp(21, 0.5, seed=0)
    with pytest.raises(SizeLimitError):
        clique_number(g)
    with pytest.raises(SizeLimitError):
        chromatic_number(gen_gnp(17, 0.5, seed=0))


# ---------------------------------------------------------------------------
# the answer-bounded solve behind the memo against the full DP and the oracle

SOLVE_KINDS = [("small", 0), ("alpha", 0)] + [("delta", k) for k in range(1, 9)]
# 9 degree classes of size 2: 3**9 = 19,683 DP states
SYNTHETIC_DEGS = tuple(d for d in range(0, 18, 2) for _ in range(2))


def _solver_profiles():
    """(n, sorted degrees) for every graph with n <= 6 plus seeded G(n, p)
    samples at n = 7 and n = 10..14."""
    seen = set()
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            seen.add((n, tuple(sorted(g.degrees))))
    for i in range(30):
        g = gen_gnp(7, (0.2, 0.5, 0.8)[i % 3], seed=1700 + i)
        seen.add((7, tuple(sorted(g.degrees))))
    for n in range(10, 15):
        for i in range(3):
            g = gen_gnp(n, (0.3, 0.5, 0.7)[i], seed=100 * n + i)
            seen.add((n, tuple(sorted(g.degrees))))
    return sorted(seen)


def _assert_count_witness(n, degs, kind, k, value, parts):
    """Each count-vector part is nonempty and feasible (checked on its degree
    list by the oracle), there are ``value`` parts, and they sum to the
    whole degree multiset."""
    vals = sorted(set(degs))
    counts = [degs.count(v) for v in vals]
    assert len(parts) == value
    assert [sum(col) for col in zip(*parts)] == counts
    for part in parts:
        members = [v for v, c in zip(vals, part) for _ in range(c)]
        assert members and part_feasible(members, n, kind, k), (degs, kind, k, part)


def test_bounded_solve_matches_dp():
    for n, degs in _solver_profiles():
        for kind, k in SOLVE_KINDS:
            value, parts = _min_parts_bounded(n, degs, kind, k)
            assert value == _min_parts_impl(n, degs, kind, k)[0], (degs, kind, k)
            _assert_count_witness(n, degs, kind, k, value, parts)


def test_bounded_solve_matches_dp_synthetic(monkeypatch):
    # the delta k = 1 answer is 2 only through a split that is no degree-order
    # prefix, while the greedy needs 3 parts
    assert _min_parts_bounded(18, SYNTHETIC_DEGS, "delta", 1)[0] == 2
    for kind, k in SOLVE_KINDS:
        expected = _min_parts_impl(18, SYNTHETIC_DEGS, kind, k)
        # a DP fallback gets the result just computed (each solve takes seconds)
        monkeypatch.setattr(partition_mod, "_min_parts_impl", lambda *args: expected)
        value, parts = _min_parts_bounded(18, SYNTHETIC_DEGS, kind, k)
        monkeypatch.undo()
        assert value == expected[0], (kind, k)
        _assert_count_witness(18, SYNTHETIC_DEGS, kind, k, value, parts)


def test_bounded_solve_matches_bell_oracle():
    for n, degs in _solver_profiles():
        if n > 7:
            continue
        for kind, k in SOLVE_KINDS:
            expected = brute_min_parts(degs, kind, k or None)
            assert _min_parts_bounded(n, degs, kind, k)[0] == expected, (degs, kind, k)


def test_greedy_matches_vertex_prefix_reference():
    # the greedy strips the longest feasible prefix of degree_order, one
    # vertex at a time; this reference does so on plain vertex lists
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    graphs += [gen_gnp(n, p, seed=n) for n in (9, 14, 25) for p in (0.1, 0.5, 0.9)]
    for g in graphs:
        for kind, k in SOLVE_KINDS:
            remaining = sorted(range(g.n), key=lambda v: (g.degrees[v], v))
            expected = []
            while remaining:
                take = 1
                while take < len(remaining) and part_feasible(
                    [g.degrees[v] for v in remaining[: take + 1]], g.n, kind, k
                ):
                    take += 1
                expected.append(sorted(remaining[:take]))
                remaining = remaining[take:]
            got = greedy_partition(g, kind, k or None)
            assert sorted(sorted(p) for p in got.witness.parts) == sorted(expected)
