import networkx as nx
import pytest

from gallai import (
    FormatError,
    Graph,
    enumerate_connected,
    format_decomposition,
    parse_decomposition,
    parse_edgelist,
    parse_graph6,
    write_graph6,
)
from gallai.paths import decomposition
from helpers import complete_graph, cycle, petersen


def test_write_graph6_k2():
    assert write_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"


def test_parse_graph6_star_fixture():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_graph6_cross_checked_against_networkx():
    # networkx is the independent reference codec.
    samples = [complete_graph(5), cycle(7), petersen()]
    samples += list(enumerate_connected(6, 5))[::7]
    for g in samples:
        line = write_graph6(g)
        ref = nx.from_graph6_bytes(line.encode("ascii"))
        assert ref.number_of_nodes() == g.n
        assert sorted(tuple(sorted(e)) for e in ref.edges()) == sorted(g.edges())
        ours = parse_graph6(nx.to_graph6_bytes(ref, header=False).decode().strip())
        assert ours == g


def test_graph6_round_trip_small_census():
    for n in range(1, 7):
        for g in enumerate_connected(n, 5):
            assert parse_graph6(write_graph6(g)) == g


def test_graph6_errors():
    with pytest.raises(FormatError):
        parse_graph6("A")  # truncated body
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6("A_!")  # overlong body
    with pytest.raises(FormatError):
        parse_graph6("A_\x05")  # byte below the printable range
    with pytest.raises(FormatError):
        parse_graph6("A@")  # nonzero padding bits (K2 with bad padding)


def test_graph6_big_order_header():
    # Orders above 62 take the four-byte header; the 1500-cycle also
    # makes a body of about 187k bytes.
    for g in (
        Graph.from_edges(80, [(i, i + 1) for i in range(79)]),
        cycle(1500),
    ):
        line = write_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g
        ref = nx.from_graph6_bytes(line.encode("ascii"))
        assert ref.number_of_nodes() == g.n
        assert sorted(tuple(sorted(e)) for e in ref.edges()) == sorted(g.edges())


def test_write_graph6_needs_ids_up_to_order():
    # A derived graph keeps its parent's ids; graph6 cannot express them.
    g = cycle(4).delete_vertices({1})
    with pytest.raises(ValueError):
        write_graph6(g)


def test_parse_edgelist():
    g = parse_edgelist("0 1\n1 2")
    assert g.n == 3 and g.m == 2
    g = parse_edgelist("# comment\n\n0 1  # trailing\n2 1\n")
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text",
    ["0 0", "0 1\n0 1", "0 1\n1 0", "a b", "0 -2", "0 1 2", ""],
)
def test_parse_edgelist_errors(text):
    with pytest.raises(FormatError):
        parse_edgelist(text)


def test_parse_edgelist_names_the_first_id_without_an_edge():
    # A gap below the largest id is refused by name, without allocating
    # anything in proportion to that id; a 1-indexed list lacks id 0.
    import tracemalloc

    with pytest.raises(FormatError, match=r"^vertex id 0 has no edge"):
        parse_edgelist("1 2\n2 3\n3 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"^vertex id 2 has no edge, below "
                           r"the largest id 2000000;"):
            parse_edgelist("0 1\n1 2000000\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


def test_decomposition_format_round_trip():
    d = decomposition((3, 1, 0), (2, 3))
    text = format_decomposition(d)
    assert text == "0 1 3\n2 3\n"
    back = parse_decomposition(text)
    assert [p.vertices for p in back.paths] == [(0, 1, 3), (2, 3)]


def test_parse_decomposition_comments_and_errors():
    d = parse_decomposition("# heading\n\n0 1 2\n # more\n2 3\n")
    assert len(d) == 2
    with pytest.raises(FormatError):
        parse_decomposition("0\n")
    with pytest.raises(FormatError):
        parse_decomposition("0 1 x\n")
    # a repeated vertex parses; the verifier is the place that reports it
    assert len(parse_decomposition("0 1 0\n")) == 1
