"""Reading and writing graphs as edge lists.

One ``u v`` pair per line, ``#`` comments allowed — the format of the
SNAP datasets and of the Wikipedia dump the paper used.
:func:`read_edge_list_compiled` reads one straight into a
:class:`~repro.graph.CompiledGraph`.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from ..errors import GraphFormatError
from .csr import CompiledGraph, compile_graph
from .graph import Graph

__all__ = [
    "read_edge_list",
    "read_edge_list_compiled",
    "write_edge_list",
    "parse_edge_list",
]

PathLike = Union[str, Path]


def parse_edge_list(lines: Iterable[str]) -> Iterator[Tuple[object, object]]:
    """Yield ``(u, v)`` pairs from edge-list lines.

    Tokens that look like integers become ``int`` (the common case for
    public datasets); anything else stays a string.  Blank lines and
    ``#`` comments are skipped.  Lines with fewer than two tokens raise
    :class:`GraphFormatError`; extra tokens (weights, timestamps) are
    ignored.
    """

    def canonical(token: str) -> object:
        try:
            return int(token)
        except ValueError:
            return token

    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise GraphFormatError(
                f"line {line_number}: expected at least two tokens, got {line!r}"
            )
        yield canonical(tokens[0]), canonical(tokens[1])


def read_edge_list(source: Union[PathLike, IO[str]]) -> Graph:
    """Read a graph from an edge-list file or open text stream.

    Self-loops are skipped without adding their node; repeated edges
    merge.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            return read_edge_list(stream)
    graph = Graph()
    for u, v in parse_edge_list(source):
        if u != v:
            graph.add_edge(u, v)
    return graph


def read_edge_list_compiled(path: PathLike) -> CompiledGraph:
    """Read an edge-list file straight into its compiled CSR form.

    Returns what ``compile_graph(read_edge_list(path))`` returns — the
    same ``indptr``, ``indices``, ``degrees`` and labels, hence the same
    fingerprint — without building the dict-of-sets :class:`Graph` in
    between.  A vectorised parser handles the common file: unsigned
    decimal integers of at most 18 digits, exactly two per line, with
    spaces or tabs between them and LF line ends.  Any other file
    (comments, extra tokens, signs, ``1_000``, non-ASCII bytes, CRLF,
    longer integers, no edges at all) goes through :func:`read_edge_list`,
    so both paths always agree.
    """
    values = _integer_tokens(Path(path).read_bytes())
    compiled = None if values is None else _compile_integer_pairs(values)
    if compiled is None:
        return compile_graph(read_edge_list(path))
    return compiled


def _integer_tokens(data: bytes) -> Optional[np.ndarray]:
    """The file's integers in order, or ``None`` if it is not plain pairs."""
    buf = np.frombuffer(data, dtype=np.uint8)
    digit = (buf >= ord("0")) & (buf <= ord("9"))
    newline = buf == ord("\n")
    if not np.all(digit | newline | (buf == ord(" ")) | (buf == ord("\t"))):
        return None
    padded = np.zeros(len(buf) + 2, dtype=np.int8)
    padded[1:-1] = digit
    bounds = np.diff(padded)
    starts = np.flatnonzero(bounds == 1)
    lengths = np.flatnonzero(bounds == -1) - starts
    # int64 holds every 18-digit number; an odd count means some line
    # does not hold exactly two tokens.
    if len(starts) == 0 or len(starts) % 2 or lengths.max() > 18:
        return None
    line = np.searchsorted(np.flatnonzero(newline), starts)
    if np.any(line[0::2] != line[1::2]) or np.any(line[2::2] == line[1:-1:2]):
        return None
    values = np.zeros(len(starts), dtype=np.int64)
    for place in range(int(lengths.max())):
        live = lengths > place
        values[live] = values[live] * 10 + (buf[starts[live] + place] - ord("0"))
    return values


def _compile_integer_pairs(values: np.ndarray) -> Optional[CompiledGraph]:
    """CSR arrays for ``u0 v0 u1 v1 …``, built as the dict path builds them.

    Self-loops are dropped before node order is fixed, as
    :func:`read_edge_list` skips them without adding their node; dense ids
    are first-appearance ranks; rows are sorted and de-duplicated.
    Returns ``None`` where the dict path must decide (no edges left, or
    a graph the int32 compile rejects).
    """
    pairs = values.reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]].ravel()
    if len(pairs) == 0:
        return None
    # np.unique is avoided on purpose: a sort plus run boundaries is
    # several times faster on numpy 2.x.
    by_value = np.argsort(pairs)
    ordered = pairs[by_value]
    new = np.empty(len(ordered), dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    runs = np.flatnonzero(new)
    appearance = np.argsort(np.minimum.reduceat(by_value, runs))
    n = len(runs)
    rank = np.empty(n, dtype=np.int64)
    rank[appearance] = np.arange(n)
    ids = np.empty(len(pairs), dtype=np.int64)
    ids[by_value] = rank[np.cumsum(new) - 1]
    heads, tails = ids[0::2], ids[1::2]
    keys = np.sort(np.concatenate((heads * n + tails, tails * n + heads)))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows = keys // n
    degrees = np.bincount(rows, minlength=n)
    if len(keys) > np.iinfo(np.int32).max or int(degrees.max()) >= 2**29:
        return None
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(degrees, out=indptr[1:])
    indices = (keys % n).astype(np.int32)
    degrees = degrees.astype(np.int32)
    for array in (indptr, indices, degrees):
        array.setflags(write=False)
    labels = ordered[runs][appearance]
    identity = bool(np.array_equal(labels, np.arange(n)))
    return CompiledGraph(
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        labels=None if identity else labels.tolist(),
    )


def write_edge_list(graph: Graph, target: Union[PathLike, IO[str]]) -> None:
    """Write ``graph`` as an edge list (one ``u v`` pair per line)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as stream:
            write_edge_list(graph, stream)
        return
    for u, v in graph.edges():
        target.write(f"{u} {v}\n")
