"""Writing covers in the conventional one-line-per-community format (the
format CFinder and the LFR reference tools exchange):

    1 2 3
    3 4 5

Each line lists the members of one community, whitespace-separated.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Union

from .cover import Cover

__all__ = ["write_cover"]

PathLike = Union[str, Path]


def write_cover(cover: Cover, target: Union[PathLike, IO[str]]) -> None:
    """Write ``cover`` with one community per line, members sorted."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as stream:
            _write_cover_stream(cover, stream)
    else:
        _write_cover_stream(cover, target)


def _write_cover_stream(cover: Cover, stream: IO[str]) -> None:
    for community in cover:
        stream.write(" ".join(str(node) for node in sorted(community, key=str)))
        stream.write("\n")
