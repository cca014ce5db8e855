"""Parity of the direct edge-list reader with the dict-of-sets path.

``read_edge_list_compiled(path)`` must return exactly what
``compile_graph(read_edge_list(path))`` returns — same CSR arrays, same
labels, same fingerprint — on every file, whether its vectorised parser
takes the file or hands it to :func:`read_edge_list`.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.generators import lfr_graph
from repro.generators.lfr import LFRParams
from repro.graph import (
    compile_graph,
    read_edge_list,
    read_edge_list_compiled,
    write_edge_list,
)
from repro.graph import io as graph_io
from repro.serving.fingerprint import graph_fingerprint

PLAIN_TOKENS = st.integers(0, 40).map(str)
MESSY_TOKENS = st.one_of(
    PLAIN_TOKENS,
    st.integers(0, 40).map(lambda i: f"00{i}"),
    st.integers(0, 40).map(lambda i: f"+{i}"),
    st.sampled_from(
        ["1_000", "1_0", "-0", "-7", "٣", "a", "x1", "1.5", "1e3", "0x1f"]
    ),
    # Around the int64 edge and past the parser's 18-digit limit.
    st.integers(2**63 - 2, 2**63 + 2).map(str),
    st.integers(10**17 - 2, 10**19 + 2).map(str),
)
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])


def _edge_line(tokens, extra):
    return st.tuples(
        tokens, tokens, st.lists(tokens, max_size=extra), SEPARATORS
    ).map(lambda t: t[3].join([t[0], t[1], *t[2]]))


PLAIN_LINES = st.one_of(
    _edge_line(PLAIN_TOKENS, 0), st.sampled_from(["", "  ", "\t"])
)
MESSY_LINES = st.one_of(
    _edge_line(MESSY_TOKENS, 2),
    st.sampled_from(["", "   ", "# a comment", "#1 2", "  # 3 4", "loner"]),
)


@st.composite
def edge_list_text(draw, lines, endings):
    body = draw(st.lists(lines, max_size=25))
    text = "".join(line + draw(endings) for line in body)
    if body and draw(st.booleans()):  # no trailing newline
        text = text.rstrip("\r\n")
    return text


def _read(reader, path):
    try:
        return reader(path), None
    except Exception as error:  # parity covers the failures too
        return None, type(error)


def assert_parity(text):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "graph.edges"
        path.write_bytes(text.encode("utf-8"))
        direct, direct_error = _read(read_edge_list_compiled, path)
        reference, reference_error = _read(
            lambda p: compile_graph(read_edge_list(p)), path
        )
    assert direct_error == reference_error
    if reference is None:
        return
    for name in ("indptr", "indices", "degrees"):
        got, want = getattr(direct, name), getattr(reference, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable
    assert direct.identity_labels == reference.identity_labels
    assert direct.labels == reference.labels
    assert [type(label) for label in direct.labels] == [
        type(label) for label in reference.labels
    ]
    assert graph_fingerprint(direct) == graph_fingerprint(reference)


@settings(max_examples=150, deadline=None)
@given(edge_list_text(PLAIN_LINES, st.just("\n")))
@example("1 2\n2 3\n3 1\n")
@example("5 5\n1 2\n")  # a self-loop adds no node
@example("0 1\n1 2\n2 0")  # identity labels, no trailing newline
@example("7 7\n")  # nothing but self-loops
@example("")
def test_plain_files_match_the_dict_path(text):
    assert_parity(text)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edge_list_text(MESSY_LINES, st.sampled_from(["\n", "\n", "\r\n"])))
@example("007 +5\n7 5\n")  # both tokens name nodes 7 and 5
@example("1_000 1000\n1000 2\n")
@example("9223372036854775808 1\n1 2\n")  # beyond int64
@example("123456789012345678 1\n")  # 18 digits: still int64
@example("1 2 3\n4 5\n")  # extra token
@example("1 2\r\n2 3\r\n")  # CRLF
@example("# header\n1 2\n")
@example("٣ 3\n3 4\n")  # a non-ASCII digit is int 3: a self-loop
@example("loner\n")
def test_every_file_matches_the_dict_path(text):
    assert_parity(text)


class TestPathChoice:
    """Which files the vectorised parser takes, checked by disabling
    the fallback."""

    @pytest.fixture()
    def no_fallback(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fell back to the dict-of-sets reader")

        return lambda: monkeypatch.setattr(graph_io, "read_edge_list", refuse)

    def test_written_lfr_graph_needs_no_fallback(self, tmp_path, no_fallback):
        graph = lfr_graph(
            LFRParams(n=300, average_degree=10, max_degree=30, mu=0.3,
                      min_community=10, max_community=40),
            seed=4,
        ).graph
        path = tmp_path / "lfr.edges"
        write_edge_list(graph, path)
        reference = compile_graph(read_edge_list(path))
        no_fallback()
        compiled = read_edge_list_compiled(path)
        assert compiled == reference
        assert graph_fingerprint(compiled) == graph_fingerprint(graph)

    @pytest.mark.parametrize(
        "text",
        ["# c\n1 2\n", "1 2 3\n", "1 2\r\n", "+1 2\n", "1_0 2\n",
         "1234567890123456789 2\n", "5 5\n", ""],
    )
    def test_other_files_fall_back(self, tmp_path, no_fallback, text):
        path = tmp_path / "graph.edges"
        path.write_bytes(text.encode())
        no_fallback()
        with pytest.raises(AssertionError, match="fell back"):
            read_edge_list_compiled(path)
