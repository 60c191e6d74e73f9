import pytest

from deltasets import (
    GenerationError,
    Graph,
    GraphInputWarning,
    ParseError,
    SizeLimitError,
    VertexSet,
    emit_dimacs,
    emit_edge_list,
    enumerate_graphs,
    from_edge_list,
    gen_gnp,
    gen_regular,
    parse_dimacs,
    parse_edge_list,
)


def test_from_edge_list_cycle(c5):
    assert c5.n == 5
    assert c5.edge_count == 5
    assert c5.degrees == (2, 2, 2, 2, 2)
    c5.validate()


def test_from_edge_list_star(star4):
    assert star4.degrees == (3, 1, 1, 1)
    assert star4.edge_count == 3


def test_from_edge_list_dedups_reversed_pairs():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match=r"\(1,1\)"):
        from_edge_list(3, [(0, 1), (1, 1)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(0,3\)"):
        from_edge_list(3, [(0, 3)])


def test_negative_vertex_count_rejected():
    for build in (
        lambda: from_edge_list(-1, []),
        lambda: gen_gnp(-4, 0.5, seed=0),
        lambda: next(enumerate_graphs(-3)),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            build()


def test_handshake_and_degree_window(zoo):
    for g in zoo.values():
        assert sum(g.degrees) == 2 * g.edge_count
        if g.n:
            mean = 2 * g.edge_count / g.n
            assert g.min_degree <= mean <= g.max_degree
        g.validate()


def test_complement_involution(zoo):
    for g in zoo.values():
        assert g.complement().complement() == g
        assert g.edge_count + g.complement().edge_count == g.n * (g.n - 1) // 2


def test_edges_round_trip(petersen):
    assert from_edge_list(10, petersen.edges()) == petersen


def test_parse_dimacs_k2():
    g = parse_dimacs("p edge 2 1\ne 1 2\n")
    assert g.n == 2 and g.edge_count == 1


def test_parse_dimacs_edgeless():
    g = parse_dimacs("p edge 3 0\n")
    assert g.n == 3 and g.edge_count == 0


def test_parse_dimacs_edge_before_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_dimacs("e 1 2\n")


def test_parse_dimacs_bad_id_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_dimacs("p edge 3 2\ne 1 2\ne 1 4\n")


def test_parse_dimacs_self_loop_rejected():
    with pytest.raises(ParseError, match=r"\(2,2\)"):
        parse_dimacs("p edge 3 1\ne 2 2\n")


def test_parse_dimacs_duplicate_edges_warn():
    with pytest.warns(GraphInputWarning, match="duplicate"):
        g = parse_dimacs("p edge 3 1\ne 1 2\ne 2 1\n")
    assert g.edge_count == 1


def test_parse_dimacs_count_mismatch_warns():
    with pytest.warns(GraphInputWarning, match="header claims"):
        g = parse_dimacs("p edge 3 5\ne 1 2\n")
    assert g.edge_count == 1


def test_parse_dimacs_skips_comments():
    g = parse_dimacs("c hello\np edge 2 1\nc mid\ne 1 2\n")
    assert g.edge_count == 1


def test_dimacs_round_trip(zoo):
    for g in zoo.values():
        assert parse_dimacs(emit_dimacs(g)) == g


def test_edge_list_round_trip(zoo):
    for g in zoo.values():
        assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_label_mode_first_appearance():
    g = parse_edge_list("10 20\n20 30\n")
    # labels 10, 20, 30 become ids 0, 1, 2
    assert g.n == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_edge_list_header_bounds_ids():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("# n=2\n1 3\n")


def test_gen_gnp_extremes():
    assert gen_gnp(10, 0.0, seed=1).edge_count == 0
    assert gen_gnp(10, 1.0, seed=1).edge_count == 45


def test_gen_gnp_deterministic():
    assert gen_gnp(6, 0.5, seed=42) == gen_gnp(6, 0.5, seed=42)


def test_gen_gnp_rejects_bad_p():
    with pytest.raises(ValueError):
        gen_gnp(5, 1.5, seed=0)


def test_gen_regular_degrees():
    for n, r in [(5, 2), (4, 3), (8, 3), (10, 4)]:
        g = gen_regular(n, r, seed=3)
        assert g.degrees == tuple([r] * n)


def test_gen_regular_k4_forced():
    g = gen_regular(4, 3, seed=0)
    assert g.edge_count == 6


def test_gen_regular_parity_error():
    with pytest.raises(ValueError, match="odd"):
        gen_regular(5, 3, seed=0)


def test_gen_regular_r_too_big():
    with pytest.raises(ValueError):
        gen_regular(4, 4, seed=0)


def test_gen_regular_deterministic():
    assert gen_regular(8, 3, seed=9) == gen_regular(8, 3, seed=9)


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)])
def test_enumerate_counts(n, count):
    graphs = list(enumerate_graphs(n))
    assert len(graphs) == count
    assert len(set(graphs)) == count  # each exactly once


def test_enumerate_deterministic_order():
    a = [g.adj for g in enumerate_graphs(3)]
    b = [g.adj for g in enumerate_graphs(3)]
    assert a == b


def test_enumerate_refuses_large_n():
    with pytest.raises(SizeLimitError, match="gen_gnp"):
        next(enumerate_graphs(9))


def test_vertex_set_basics(c5):
    w = VertexSet(c5, [0, 2, 4])
    assert len(w) == 3
    assert list(w) == [0, 2, 4]
    assert 2 in w and 1 not in w
    assert w.degrees() == (2, 2, 2)
    assert sorted(w.complement()) == [1, 3]


def test_vertex_set_rejects_foreign_ids(c5):
    with pytest.raises(ValueError):
        VertexSet(c5, [7])
