"""Unit tests for cover serialisation, read back by the tests' reader."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.communities import Cover, write_cover

from ..conftest import read_cover


def test_round_trip_via_path(tmp_path):
    cover = Cover([{1, 2, 3}, {3, 4}])
    path = tmp_path / "cover.txt"
    write_cover(cover, path)
    assert read_cover(path) == cover


def test_round_trip_via_stream():
    cover = Cover([{"a", "b"}, {"c"}])
    buffer = io.StringIO()
    write_cover(cover, buffer)
    buffer.seek(0)
    assert read_cover(buffer) == cover


def test_comments_and_blanks_skipped():
    text = "# ground truth\n\n1 2 3\n4 5\n"
    cover = read_cover(io.StringIO(text))
    assert cover == Cover([{1, 2, 3}, {4, 5}])


def test_integer_tokens_parsed():
    cover = read_cover(io.StringIO("1 2\n"))
    assert {1, 2} in cover
    assert {"1", "2"} not in cover


def test_mixed_labels():
    cover = read_cover(io.StringIO("alice 7\n"))
    assert {"alice", 7} in cover


def test_one_line_per_community(tmp_path):
    cover = Cover([{3, 1, 2}])
    path = tmp_path / "cover.txt"
    write_cover(cover, path)
    assert path.read_text() == "1 2 3\n"


def test_empty_cover_writes_nothing():
    buffer = io.StringIO()
    write_cover(Cover(), buffer)
    assert buffer.getvalue() == ""


def test_members_sorted_as_text():
    buffer = io.StringIO()
    write_cover(Cover([{9, 10, "a"}]), buffer)
    assert buffer.getvalue() == "10 9 a\n"


@given(
    communities=st.lists(
        st.sets(st.integers(0, 50), min_size=1, max_size=8), max_size=6
    )
)
def test_round_trip_property(communities):
    cover = Cover(communities)
    buffer = io.StringIO()
    write_cover(cover, buffer)
    buffer.seek(0)
    assert read_cover(buffer) == cover
