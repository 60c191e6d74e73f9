import itertools

import pytest

from oracles import brute_max_size, brute_stabilization_index

from deltasets import (
    SizeLimitError,
    degree_order,
    enumerate_graphs,
    from_edge_list,
    gen_gnp,
    gen_regular,
    independence_number,
    max_delta_small_size,
    max_small_size,
    size_curve,
    stabilization_index,
)


def test_degree_order_sorted_with_id_ties(star4):
    assert degree_order(star4) == (1, 2, 3, 0)


def test_max_delta_c5_any_k(c5):
    for k in range(1, 8):
        assert max_delta_small_size(c5, k) == 3


def test_max_delta_star_k1(star4):
    assert max_delta_small_size(star4, 1) == 3


def test_max_delta_complete(k4):
    for k in (1, 2, 3):
        assert max_delta_small_size(k4, k) == 1


def test_max_small_values(c5, star4, edgeless6):
    assert max_small_size(c5) == 3
    assert max_small_size(star4) == 3
    assert max_small_size(edgeless6) == 6


def test_prefix_rule_matches_subset_oracle_exhaustive():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            degs = g.degrees
            assert max_small_size(g) == brute_max_size(degs, "small")
            for k in range(1, n + 2):
                assert max_delta_small_size(g, k) == brute_max_size(degs, "delta", k)


def test_prefix_rule_matches_subset_oracle_sampled():
    for i in range(12):
        g = gen_gnp(8, (0.2, 0.5, 0.8)[i % 3], seed=300 + i)
        for k in range(1, 9):
            assert max_delta_small_size(g, k) == brute_max_size(g.degrees, "delta", k)


def test_size_curve_c5_constant(c5):
    curve = size_curve(c5, 4)
    assert curve.values == (3, 3, 3, 3)
    assert curve.plateau == 3
    assert curve.stable_k == 1


def test_size_curve_k4_minus_edge(k4_minus_edge):
    curve = size_curve(k4_minus_edge, 3)
    assert curve.values == (2, 2, 2)
    assert curve.plateau == 2
    assert curve.stable_k == 1


def test_size_curve_extends_past_kmax_until_stable():
    # one heavy vertex pooled with isolated ones keeps the mean feasible for a while
    g = from_edge_list(9, [(0, i) for i in range(1, 8)])
    curve = size_curve(g, 1)
    assert len(curve.values) == curve.stable_k
    assert curve.values[-1] == curve.plateau
    assert all(a >= b for a, b in zip(curve.values, curve.values[1:]))


def test_staircase_cap_fill_and_full_evaluation():
    from deltasets import StabilizationError
    from deltasets.extremal import _staircase

    calls = []

    def value(k):
        calls.append(k)
        return 5 if k < 3 else 2  # reaches the plateau 2 at k = 3

    with pytest.raises(StabilizationError, match="at exponent 7"):
        _staircase(lambda k: calls.append(k) or 5, 2, 7, 10, True, "never")
    assert calls == list(range(1, 8))  # raised exactly at the cap

    calls.clear()
    assert _staircase(value, 2, 64, 6, True, "x") == ((5, 5, 2, 2, 2, 2), 3)
    assert calls == [1, 2, 3]  # filled past the first plateau hit

    calls.clear()
    assert _staircase(value, 2, 64, 6, False, "x") == ((5, 5, 2, 2, 2, 2), 3)
    assert calls == [1, 2, 3, 4, 5, 6]  # every exponent up to k_max evaluated


def test_one_exponent_cap_bounds_all_three_staircases(monkeypatch):
    from deltasets import StabilizationError, extremal, partition, partition_curve

    g = gen_gnp(8, 0.5, seed=4)
    assert size_curve(g, 1).stable_k == partition_curve(g, 1).stable_k == 3
    assert stabilization_index(g) == 6
    for module in (extremal, partition):
        monkeypatch.setattr(module, "_exponent_cap", lambda graph: 2)
    for staircase in (size_curve, partition_curve):
        with pytest.raises(StabilizationError, match="at exponent 2"):
            staircase(g, 1)
    with pytest.raises(StabilizationError, match="at k=2"):
        stabilization_index(g)


def test_small_weight_sum_matches_pointwise_rule():
    # every nonempty degree multiset of s <= n members with degrees < n, for
    # n <= 10: the base-(n+1) weight sum is within thr[s] iff max + s <= n
    from deltasets.extremal import _part_arithmetic

    checked = 0
    for n in range(1, 11):
        weight, thr = _part_arithmetic(n, tuple(range(n)), "small", 0)
        for s in range(1, n + 1):
            for degs in itertools.combinations_with_replacement(range(n), s):
                fits = sum(weight[d] for d in degs) <= thr[s]
                assert fits == (degs[-1] + s <= n), (n, degs)
                checked += 1
    assert checked == 250_942


def test_size_curve_non_increasing_and_window(zoo):
    for g in zoo.values():
        curve = size_curve(g, 6)
        assert all(a >= b for a, b in zip(curve.values, curve.values[1:]))
        for v in curve.values:
            assert g.n - g.max_degree <= v <= g.n - g.min_degree
        assert curve.values[curve.stable_k - 1] == curve.plateau


def test_size_plateau_at_least_independence(zoo):
    for g in zoo.values():
        assert size_curve(g, 2).plateau >= independence_number(g)


def test_c5_independence_below_degree_window():
    # the left window bound holds for the curve but not for the independence number
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert independence_number(c5) == 2
    assert c5.n - c5.max_degree == 3


def test_stabilization_regular_is_one():
    for g in (gen_regular(5, 2, seed=0), gen_regular(8, 3, seed=1), gen_regular(10, 4, seed=2)):
        assert stabilization_index(g) == 1


def test_stabilization_star_is_two(star4):
    assert stabilization_index(star4) == 2


def test_stabilization_edgeless(edgeless6):
    assert stabilization_index(edgeless6) == 1


def test_stabilization_matches_oracle_exhaustive():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            assert stabilization_index(g) == brute_stabilization_index(g.degrees)


def test_stabilization_matches_oracle_sampled():
    graphs = [gen_gnp(9, (0.2, 0.5, 0.8)[i % 3], seed=400 + i) for i in range(15)]
    # repeated degrees: few classes, many vertices per class
    graphs += [gen_regular(10, 3, seed=3), gen_regular(12, 5, seed=4)]
    graphs += [from_edge_list(n, [(0, i) for i in range(1, n)]) for n in (10, 11, 12)]
    graphs += [
        from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        for a, b in ((3, 7), (4, 7), (2, 10), (5, 6))
    ]
    for g in graphs:
        assert stabilization_index(g) == brute_stabilization_index(g.degrees)


def test_stabilization_confirmed_by_direct_sweep():
    from deltasets import is_delta_small, is_small

    for i in range(6):
        g = gen_gnp(8, 0.6, seed=500 + i)
        k0 = stabilization_index(g)
        for mask in range(1 << 8):
            w = [v for v in range(8) if mask >> v & 1]
            if is_delta_small(g, w, k0).holds:
                assert is_small(g, w).holds
        if k0 > 1:
            assert any(
                is_delta_small(g, [v for v in range(8) if mask >> v & 1], k0 - 1).holds
                and not is_small(g, [v for v in range(8) if mask >> v & 1]).holds
                for mask in range(1 << 8)
            )


def test_stabilization_size_guard():
    g = gen_gnp(19, 0.5, seed=0)
    with pytest.raises(SizeLimitError):
        stabilization_index(g)


def test_size_curve_matches_subset_definition_of_stability():
    # the curve's stable point equals the first k where the subset maximum
    # hits the small maximum
    for i in range(8):
        g = gen_gnp(7, 0.5, seed=600 + i)
        curve = size_curve(g, 1)
        s = brute_max_size(g.degrees, "small")
        k = 1
        while brute_max_size(g.degrees, "delta", k) != s:
            k += 1
        assert curve.stable_k == k
