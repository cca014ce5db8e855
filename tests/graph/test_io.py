"""Unit tests for edge-list reading and writing."""

import io

import pytest

from repro.errors import GraphFormatError
from repro.graph import Graph, read_edge_list, write_edge_list
from repro.graph.io import parse_edge_list


class TestEdgeList:
    def test_round_trip_via_path(self, tmp_path, k5):
        path = tmp_path / "graph.txt"
        write_edge_list(k5, path)
        assert read_edge_list(path) == k5

    def test_round_trip_via_stream(self, triangle):
        buffer = io.StringIO()
        write_edge_list(triangle, buffer)
        buffer.seek(0)
        assert read_edge_list(buffer) == triangle

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n0 1\n1 2\n"
        graph = read_edge_list(io.StringIO(text))
        assert graph.number_of_edges() == 2

    def test_extra_columns_ignored(self):
        graph = read_edge_list(io.StringIO("0 1 0.75 garbage\n"))
        assert graph.has_edge(0, 1)

    def test_string_labels_survive(self):
        graph = read_edge_list(io.StringIO("alice bob\n"))
        assert graph.has_edge("alice", "bob")

    def test_integer_labels_parsed(self):
        graph = read_edge_list(io.StringIO("10 20\n"))
        assert graph.has_edge(10, 20)
        assert not graph.has_node("10")

    def test_single_token_line_raises(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("loner\n"))

    def test_self_loops_dropped(self):
        graph = read_edge_list(io.StringIO("1 1\n1 2\n"))
        assert graph.number_of_edges() == 1

    def test_tabs_and_crlf_accepted(self):
        graph = read_edge_list(io.StringIO("0\t1\r\n1\t2\r\n"))
        assert graph == Graph(edges=[(0, 1), (1, 2)])

    def test_repeated_edges_merge(self):
        graph = read_edge_list(io.StringIO("0 1\n1 0\n0 1\n"))
        assert graph.number_of_edges() == 1

    def test_self_loop_adds_no_node(self):
        graph = read_edge_list(io.StringIO("3 3\n0 1\n"))
        assert not graph.has_node(3)
        assert graph.number_of_nodes() == 2

    def test_negative_integers_parsed(self):
        graph = read_edge_list(io.StringIO("-1 2\n"))
        assert graph.has_edge(-1, 2)

    def test_indented_comment_skipped(self):
        graph = read_edge_list(io.StringIO("   # note\n0 1\n"))
        assert graph.number_of_edges() == 1

    def test_error_names_the_line(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            read_edge_list(io.StringIO("0 1\n# fine\nbad\n"))

    def test_writer_emits_each_edge_once(self, k5):
        buffer = io.StringIO()
        write_edge_list(k5, buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == k5.number_of_edges()
        assert len({frozenset(line.split()) for line in lines}) == len(lines)

    def test_node_order_is_first_appearance(self):
        graph = read_edge_list(io.StringIO("5 3\n3 9\n"))
        assert list(graph.nodes()) == [5, 3, 9]


class TestParseEdgeList:
    def test_yields_pairs_lazily(self):
        pairs = parse_edge_list(iter(["0 1\n", "a b\n"]))
        assert next(pairs) == (0, 1)
        assert next(pairs) == ("a", "b")

    def test_keeps_self_loops(self):
        # Dropping self-loops is the reader's job, not the parser's.
        assert list(parse_edge_list(["4 4\n"])) == [(4, 4)]
