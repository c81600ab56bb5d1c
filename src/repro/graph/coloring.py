"""Greedy graph coloring and the color-based vertex ordering.

Section 4.3: color vertices by iteratively giving an uncolored vertex
the smallest color absent from its neighbors, then order vertices by
non-increasing color (ties by vertex id). ``id(v)`` is the position of
v in that ordering; the DAG orients each edge from the smaller id to
the larger (`core.orient`). One greedy loop serves both colorings: the
global one in reverse degeneracy order (≤ δ + 1 colors) and the
per-branch re-coloring in degree-descending order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import core_decomposition, degree_order, orient
from .loader import LocalGraph


def _greedy(order: Iterable[int], adj: dict[int, set[int]]) -> dict[int, int]:
    """Smallest-available-color greedy coloring in ``order``; colors
    start at 1."""
    col: dict[int, int] = {}
    for v in order:
        used = {col[w] for w in adj[v] if w in col}
        c = 1
        while c in used:
            c += 1
        col[v] = c
    return col


def greedy_coloring(g: LocalGraph) -> dict[int, int]:
    """The global coloring, in reverse degeneracy order (the "inverse
    degeneracy based" heuristic the paper cites)."""
    return _greedy(reversed(core_decomposition(g).order), g.adj)


@dataclass
class ColorOrdering:
    """Color-based vertex ordering artifacts.

    ``order``: vertices sorted by color desc (ties by vertex id asc);
    ``vid``: vertex → position in ``order`` (the paper's id(v));
    ``col``: vertex → color; ``out``: the DAG adjacency — neighbors
    with larger id.
    """

    order: list[int]
    vid: dict[int, int]
    col: dict[int, int]
    out: dict[int, set[int]]


def _by_color(adj: dict[int, set[int]], col: dict[int, int]) -> ColorOrdering:
    order = sorted(adj, key=lambda v: (-col[v], v))
    vid, out = orient(order, adj)
    return ColorOrdering(order=order, vid=vid, col=col, out=out)


def color_ordering(g: LocalGraph) -> ColorOrdering:
    """Build the color-based ordering + DAG for a graph."""
    return _by_color(g.adj, greedy_coloring(g))


def subgraph_color_ordering(adj: dict[int, set[int]]) -> ColorOrdering:
    """Color-based ordering of a branch graph given by its own adjacency
    ``adj`` (keys the branch's vertices, values inside them).

    Used by EBBkC-H / DDegCol for the per-branch re-coloring: the branch
    graphs are tiny (≤ τ vertices), so a degree-descending greedy
    coloring is applied directly.
    """
    return _by_color(adj, _greedy(degree_order(adj), adj))
