import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from szf.families import complete, cycle, path
from szf.formats import format_edge_list, from_graph6, parse_edge_list, to_graph6
from szf.graph import from_edge_list

from helpers import random_graph


def test_decode_k3():
    assert from_graph6("Bw") == complete(3)


def test_decode_p3():
    assert from_graph6("Bg") == path(3)


def test_decode_k1():
    assert from_graph6("@") == from_edge_list(1, [])


def test_encode_hand_values():
    assert to_graph6(complete(3)) == "Bw"
    assert to_graph6(path(3)) == "Bg"
    assert to_graph6(from_edge_list(1, [])) == "@"


def test_header_is_accepted():
    assert from_graph6(">>graph6<<Bw") == complete(3)


def test_invalid_character_rejected():
    with pytest.raises(ValueError):
        from_graph6("B\x1f")


def test_truncated_stream_rejected():
    with pytest.raises(ValueError):
        from_graph6("D")  # n=5 needs 2 body bytes
    with pytest.raises(ValueError):
        from_graph6("Bww")  # trailing data


def test_encoding_refuses_orders_above_the_long_form():
    with pytest.raises(ValueError, match="^graph6 encoding supports at most 258047 vertices$"):
        to_graph6(from_edge_list(258048, []))


def test_long_form_order_boundary():
    g = from_edge_list(63, [(0, 62)])
    text = to_graph6(g)
    assert text.startswith("~")
    assert from_graph6(text) == g


@given(st.integers(0, 12), st.integers(0, 2 ** 16), st.integers(0, 100))
@settings(max_examples=150, deadline=None)
def test_roundtrip_random(n, seed, percent):
    g = random_graph(n, seed, percent)
    assert from_graph6(to_graph6(g)) == g


@given(st.integers(0, 12), st.integers(0, 2 ** 16), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_string_side_roundtrip_is_identity(n, seed, percent):
    text = to_graph6(random_graph(n, seed, percent))
    assert to_graph6(from_graph6(text)) == text


@given(st.integers(2, 10), st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
# The empty and one-vertex graphs, and the long order form from 63 on.
@example(0, 1)
@example(1, 2)
@example(62, 3)
@example(63, 4)
@example(64, 5)
@example(300, 6)
def test_encoder_agrees_with_networkx(n, seed):
    g = random_graph(n, seed)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(g.edges())
    expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert to_graph6(g) == expected


def test_edge_list_roundtrip():
    g = random_graph(6, seed=9)
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parses_documented_shape():
    g = parse_edge_list("# comment\n3 2\n0 1\n1 2\n")
    assert g == path(3)


def test_edge_list_rejects_wrong_edge_count():
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")


def test_edge_list_rejects_garbage():
    with pytest.raises(ValueError):
        parse_edge_list("n m\n")


def test_nonzero_padding_rejected():
    # n=3 uses 3 of the body's 6 bits; 'x' sets one of the 3 padding bits.
    with pytest.raises(ValueError, match="nonzero padding bits"):
        from_graph6("Bx")


def test_roundtrip_order_300():
    g = random_graph(300, seed=5)
    text = to_graph6(g)
    assert text[0] == "~" and len(text) == 4 + (300 * 299 // 2 + 5) // 6
    assert from_graph6(text) == g
