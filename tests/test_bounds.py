import json
from fractions import Fraction

import pytest

from deltasets import (
    SimplexPoint,
    avg_degree_lower_bound,
    bound_applicability,
    build_report,
    caro_wei_bound,
    clique_number,
    delta_small_size_bound,
    enumerate_graphs,
    from_edge_list,
    gen_gnp,
    is_delta_small,
    max_degree_upper_bound,
    min_partition,
    partition_power_mean_check,
    power_mean_lower_bound,
    report_csv_rows,
    report_to_dict,
    scan_records,
    simplex_check,
    simplex_fuzz,
    simplex_hill_climb,
    simplex_scan,
    size_upper_bounds,
    verify_corpus,
)


def _complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_avg_degree_lower_bound_values(c5, star4, edgeless6):
    assert avg_degree_lower_bound(c5) == 2  # ceil(25/15)
    assert avg_degree_lower_bound(star4) == 2  # ceil(16/10)
    assert avg_degree_lower_bound(edgeless6) == 1
    assert avg_degree_lower_bound(_complete(7)) == 7


def test_max_degree_upper_bound_values(c5, star4):
    assert max_degree_upper_bound(c5) == 2
    assert max_degree_upper_bound(star4) == 4
    assert max_degree_upper_bound(_complete(6)) == 6


def test_power_mean_lower_bound_values(c5, edgeless6):
    assert power_mean_lower_bound(c5, 3) == 2  # least r with r^3*40 <= 5^4 (r-1)^3
    assert power_mean_lower_bound(edgeless6, 4) == 1
    for k in (1, 2, 5):
        assert power_mean_lower_bound(_complete(6), k) == 6


def test_power_mean_lower_bound_matches_float_ceiling():
    import math

    for i in range(20):
        g = gen_gnp(9, (0.2, 0.5, 0.8)[i % 3], seed=1000 + i)
        for k in range(1, 8):
            got = power_mean_lower_bound(g, k)
            mean = (sum(d**k for d in g.degrees) / g.n) ** (1 / k)
            expect = math.ceil(g.n / (g.n - mean) - 1e-12)
            assert got == expect


def test_applicability_ledger():
    ok, why = bound_applicability(1, "delta", 1)
    assert ok and "unconditional" in why
    ok, _ = bound_applicability(2, "delta", 1)
    assert not ok
    ok, _ = bound_applicability(2, "delta", 2)
    assert ok
    ok, _ = bound_applicability(2, "small")
    assert ok
    ok, _ = bound_applicability(3, "delta", 2)
    assert not ok
    ok, why = bound_applicability(4, "delta", 5, value_at_4=2)
    assert not ok and "equals 2" in why
    ok, _ = bound_applicability(4, "delta", 5, value_at_4=3)
    assert ok
    ok, _ = bound_applicability(4, "small", value_at_4=None)
    assert not ok
    ok, _ = bound_applicability(6, "small", target_value=7)
    assert ok
    ok, _ = bound_applicability(6, "small", target_value=5)
    assert not ok
    ok, _ = bound_applicability(6, "small", target_value=None)
    assert not ok
    with pytest.raises(ValueError):
        bound_applicability(2, "delta")


def test_caro_wei_values(c5, star4, edgeless6):
    assert caro_wei_bound(_complete(5)) == 5
    assert caro_wei_bound(edgeless6) == 1
    assert caro_wei_bound(star4) == 2  # 1/1 + 3 * 1/3, equals the clique number
    assert caro_wei_bound(c5) == Fraction(5, 3)


def test_caro_wei_below_clique_exhaustive():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert caro_wei_bound(g) <= clique_number(g)


def test_simplex_point_validation():
    with pytest.raises(ValueError):
        SimplexPoint(3, (Fraction(1), Fraction(1), Fraction(1)))  # sums to 3
    with pytest.raises(ValueError):
        SimplexPoint(2, (Fraction(3, 2), Fraction(-1, 2)))
    SimplexPoint.uniform(5)  # fine


def test_simplex_check_uniform_equality():
    p = SimplexPoint(3, (Fraction(2, 3),) * 3)
    res = simplex_check(p, 2)
    assert res.lhs == res.rhs == Fraction(4, 9)
    assert res.holds


def test_simplex_check_boundary():
    p = SimplexPoint(2, (Fraction(1), Fraction(0)))
    res = simplex_check(p, 1)
    assert res.lhs == 0 and res.rhs == Fraction(1, 2) and res.holds


def test_simplex_check_interior_point():
    p = SimplexPoint(3, (Fraction(1), Fraction(1, 2), Fraction(1, 2)))
    res = simplex_check(p, 2)
    assert res.lhs == Fraction(1, 4)
    assert res.holds


def test_simplex_check_rejects_k_above_r():
    with pytest.raises(ValueError):
        simplex_check(SimplexPoint.uniform(3), 5)


def test_simplex_fuzz_no_violations():
    for r, k in [(2, 1), (3, 2), (4, 4), (5, 2)]:
        res = simplex_fuzz(r, k, trials=2000, seed=1)
        assert not res.violations
        assert res.max_lhs is not None and res.max_lhs <= res.bound


def test_simplex_fuzz_zero_trials():
    res = simplex_fuzz(3, 3, trials=0)
    assert res.max_lhs is None and res.max_point is None and not res.violations


def test_simplex_fuzz_rejects_k_above_r():
    with pytest.raises(ValueError):
        simplex_fuzz(3, 5, trials=10)


def test_simplex_scan_fourth_power_three_parts():
    # exponent 4 with three parts: the bound 2/3 used for the k=4 ledger rule
    res = simplex_scan(3, 4, trials=5000, seed=3, bound=Fraction(2, 3))
    assert not res.violations
    # the observed maximum also stays under the uniform-point value (2/3)^4
    assert res.max_lhs <= Fraction(2, 3) ** 4


def test_simplex_hill_climb_reaches_uniform_value():
    for r, k in [(2, 2), (4, 3), (6, 1)]:
        got = simplex_hill_climb(r, k, seed=5)
        want = ((r - 1) / r) ** k
        assert abs(got - want) <= 1e-6


def test_partition_power_mean_check_valid(c5, k4):
    res = min_partition(c5, "delta", 2)
    assert partition_power_mean_check(c5, res.witness, 2)
    res4 = min_partition(k4, "delta", 4)
    assert partition_power_mean_check(k4, res4.witness, 4)


def test_partition_power_mean_check_guards(c5):
    res = min_partition(c5, "delta", 2)
    with pytest.raises(ValueError, match="same power-mean exponent"):
        partition_power_mean_check(c5, res.witness, 3)
    small = min_partition(c5, "small")
    with pytest.raises(ValueError):
        partition_power_mean_check(c5, small.witness, 1)
    # the exponent-3 witness has only 2 parts, so k=3 exceeds the part count
    res3 = min_partition(c5, "delta", 3)
    assert len(res3.witness) == 2
    with pytest.raises(ValueError, match="exceeds the part count"):
        partition_power_mean_check(c5, res3.witness, 3)


def test_delta_small_size_bound_examples(c5, star4, edgeless6):
    assert delta_small_size_bound(c5, [0, 1, 2]) == 3
    assert delta_small_size_bound(star4, [1, 2, 3]) == 3
    assert delta_small_size_bound(edgeless6, range(6)) == 6


def test_delta_small_size_bound_rejects_infeasible(k4):
    with pytest.raises(ValueError, match="mean-small"):
        delta_small_size_bound(k4, [0, 1, 2])


def test_delta_small_size_bound_exhaustive_cover():
    # every mean-small set on every small graph respects its bound
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for mask in range(1, 1 << n):
                w = [v for v in range(n) if mask >> v & 1]
                if is_delta_small(g, w, 1).holds:
                    assert len(w) <= delta_small_size_bound(g, w)


def test_delta_small_size_bound_all_subsets_up_to_n8():
    # exhaustive over subsets on seeded graphs up to 8 vertices
    for i, (n, p) in enumerate([(6, 0.3), (6, 0.7), (7, 0.5), (8, 0.2), (8, 0.5), (8, 0.8)]):
        g = gen_gnp(n, p, seed=1300 + i)
        for mask in range(1, 1 << n):
            w = [v for v in range(n) if mask >> v & 1]
            if is_delta_small(g, w, 1).holds:
                assert len(w) <= delta_small_size_bound(g, w)


def test_size_upper_bounds_values(c5, edgeless6):
    assert size_upper_bounds(c5) == (3, 3)
    assert size_upper_bounds(_complete(6)) == (1, 1)
    assert size_upper_bounds(edgeless6)[1] == 6


def test_size_upper_bounds_dominate_curve(zoo):
    from deltasets import size_curve

    for g in zoo.values():
        tight, weak = size_upper_bounds(g)
        assert tight <= weak
        assert size_curve(g, 2).at(1) <= tight


def test_build_report_c5_clean(c5):
    report = build_report(c5, "c5", k_max=5)
    assert not report.findings()
    assert report.exact["min_parts_small"] == 2
    assert report.exact["min_parts_delta"] == [2, 2, 2, 2, 2]
    assert report.exact["clique"] == 2
    assert report.exact["chromatic"] == 3
    assert report.exact["stabilization_index"] == 1


def test_build_report_skips_oversize_oracles():
    g = gen_gnp(12, 0.3, seed=4)
    report = build_report(g, "g", k_max=3, chromatic_limit=8)
    assert "chromatic" in report.skipped
    assert "chromatic" not in report.exact
    assert not report.findings()


def test_report_serialization_round_trip(star4):
    report = build_report(star4, "star", k_max=4)
    d = report_to_dict(report)
    text = json.dumps(d, sort_keys=True)
    back = json.loads(text)
    assert back["graph"] == "star"
    assert back["exact"]["min_parts_small"] == 2
    rows = list(report_csv_rows(report))
    assert all(row.count(",") >= 7 for row in rows)
    # caro-wei row carries the exact rational as a string
    assert any(r["name"] == "caro-wei-lb" and r["value"] == 2 for r in d["bounds"])


def test_scan_records_c5_and_complete(c5):
    recs = list(scan_records([("c5", c5), ("k4", _complete(4))]))
    assert recs[0].matched_k == 1 and recs[0].alpha_parts == 2
    assert recs[1].matched_k == 1 and recs[1].alpha_parts == 4
    assert all(r.skipped is None for r in recs)


def test_scan_records_skips_oversize():
    g = gen_gnp(25, 0.2, seed=1)
    recs = list(scan_records([("big", g)], exact_limit=18))
    assert recs[0].skipped is not None and recs[0].matched_k is None


def test_scan_exhaustive_n5_no_gaps():
    graphs = [(f"g{i}", g) for i, g in enumerate(enumerate_graphs(5))]
    gaps = [r for r in scan_records(graphs) if r.skipped is None and r.matched_k is None]
    assert gaps == []


def test_verify_corpus_clean():
    graphs = [(f"g{i}", gen_gnp(7, 0.5, seed=1100 + i)) for i in range(5)]
    summary = verify_corpus(graphs, k_max=5)
    assert summary.ok
    assert summary.graphs == 5
    assert summary.passed == summary.checks
    assert set(summary.suites) >= {"bound-table", "predicates"}


def test_verify_corpus_empty():
    summary = verify_corpus([])
    assert summary.ok and summary.graphs == 0 and summary.checks == 0


def _full_sweep_checks(g, k0):
    """Predicate and stabilization triples from a sweep over all 2**n vertex
    masks, with k0 from the brute-force oracle."""
    from deltasets import is_small

    n = g.n
    regular = g.max_degree == g.min_degree
    ok_impl = ok_chain = ok_reg = True
    confirm, witness = True, False
    for mask in range(1 << n):
        w = [v for v in range(n) if mask >> v & 1]
        small = is_small(g, w).holds
        dks = [is_delta_small(g, w, k).holds for k in range(1, 5)]
        ok_impl &= not small or all(dks)
        ok_chain &= all(a or not b for a, b in zip(dks, dks[1:]))
        ok_reg &= not regular or all(dk == small for dk in dks)
        confirm &= small or not is_delta_small(g, w, k0).holds
        witness |= k0 > 1 and not small and is_delta_small(g, w, k0 - 1).holds
    pred = [
        ("predicates", ok_impl, "small sets pass every power-mean exponent"),
        ("predicates", ok_chain, "power-mean feasibility shrinks with the exponent"),
    ]
    if regular:
        pred.append(("predicates", ok_reg, "regular graphs: power-mean equals pointwise"))
    stab = [("stabilization", confirm, f"all power-mean sets small at k={k0}")]
    if k0 > 1:
        stab.append(("stabilization", witness, f"violator exists at k={k0 - 1}"))
    return pred, stab


_VERIFY_PARAMS = dict(
    k_max=4, exact_limit=18, clique_limit=20, chromatic_limit=16, stabilization_limit=10
)


def test_verify_graph_matches_full_mask_sweep():
    from oracles import brute_stabilization_index

    from deltasets.bounds import _verify_graph

    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    graphs += [gen_gnp(10, (0.2, 0.5, 0.8)[i % 3], seed=1300 + i) for i in range(6)]
    for g in graphs:
        got = _verify_graph(g, "g", **_VERIFY_PARAMS)
        pred, stab = _full_sweep_checks(g, brute_stabilization_index(g.degrees))
        expected = (
            [c for c in got if c[0] == "bound-table"]
            + pred
            + [c for c in got if c[0] == "partition-mean"]
            + stab
        )
        assert got == expected


def test_verify_predicate_sweep_catches_one_faulty_multiset(monkeypatch):
    from deltasets import smallness
    from deltasets.bounds import _verify_graph

    g = gen_gnp(10, 0.5, seed=1400)
    assert g.max_degree > g.min_degree
    # a small pair from the lowest and the highest degree class: no prefix of
    # the degree order has this multiset, so only a sweep over every count
    # vector meets it
    bad = [g.min_degree, g.max_degree]
    assert g.max_degree <= g.n - 2
    params = dict(_VERIFY_PARAMS, k_max=1)  # partition witnesses certify at k=1 only
    assert all(ok for _, ok, _ in _verify_graph(g, "g", **params))

    real = smallness.is_delta_small

    def faulty(graph, members, k):
        verdict = real(graph, members, k)
        degs = sorted(graph.degrees[v] for v in smallness.coerce_set(graph, members))
        if k == 3 and degs == bad:
            return smallness.SmallnessVerdict(kind="delta", holds=False, k=k)
        return verdict

    monkeypatch.setattr(smallness, "is_delta_small", faulty)
    checks = _verify_graph(g, "g", **params)
    assert ("predicates", False, "small sets pass every power-mean exponent") in checks


def _corpus(count=12):
    return [(f"g{i}", gen_gnp(6, (0.3, 0.5, 0.7)[i % 3], seed=1500 + i)) for i in range(count)]


def test_pool_batches_match_in_process(monkeypatch):
    from deltasets import bounds

    monkeypatch.setattr(bounds, "_BATCH", 3)  # 12 graphs: four pool batches
    graphs = _corpus()
    assert list(scan_records(graphs, jobs=2)) == list(scan_records(graphs, jobs=1))
    params = dict(k_max=4, stabilization_limit=6)
    assert verify_corpus(graphs, jobs=2, **params) == verify_corpus(graphs, jobs=1, **params)


def test_scan_records_stream_one_graph_at_a_time():
    consumed = []

    def corpus():
        for gid, g in _corpus():
            consumed.append(gid)
            yield gid, g

    records = scan_records(corpus())
    assert next(records).graph_id == "g0"
    assert consumed == ["g0"]
    assert [r.graph_id for r in records] == [f"g{i}" for i in range(1, 12)]


def test_single_graph_corpus_skips_the_pool(monkeypatch, c5):
    from deltasets import bounds

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(bounds, "ProcessPoolExecutor", no_pool)
    assert [r.graph_id for r in scan_records([("c5", c5)], jobs=2)] == ["c5"]
    assert verify_corpus([("c5", c5)], jobs=2).graphs == 1
    assert verify_corpus(iter([]), jobs=2).graphs == 0
