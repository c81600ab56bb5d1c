"""EBBkC — the paper's edge-oriented branching BB framework (Section 4).

The kernels of the three instantiations over the edge ordering; the
engine (`repro.core.engine`) prepares the orderings, picks the initial
branches and runs them:

* EBBkC-T — truss-based edge ordering (Algorithm 3),
  :func:`ebbkc_t_sweep` + :func:`_rec_t`. Its initial branches come from
  the same :func:`_sweep` along π_τ as EBBkC-H's. Below them a branch is
  represented implicitly as ``(S, verts, min_rank, l)``: its edge set is
  every adjacency pair inside ``verts`` whose truss rank exceeds
  ``min_rank`` (the lazy equivalent of the VSet/ESet intersections in
  Algorithm 3). Ranks are read from the per-vertex map ``nr[u][w]``
  (position of edge {u, w} in π_τ), which the sweep builds from the
  edges it walks; its keys double as the adjacency.
* EBBkC-C — color-based edge ordering over the color DAG (Algorithm 4)
  with pruning Rule (1) and, unless ``rule2`` is off, Rule (2),
  :func:`ebbkc_c_top_branch` + :func:`_rec_c`.
* EBBkC-H — hybrid (Algorithm 5): truss ordering at the initial branch,
  per-branch re-coloring + color DAG below.

:func:`ebbkc_t_sweep` and :func:`ebbkc_h_sweep` run the initial branches
as one sweep along π_τ: it keeps the adjacency ``rem`` of G minus
e_1..e_i, deleting each edge as the sweep passes it, so g_i is the plain
set intersection ``rem[u] & rem[v]`` and no rank is read at the top
level. :func:`ebbkc_h_top_branch` processes one EBBkC-H branch; a branch
is re-colored only when it is branched on (l ≥ 3), so at k ≤ 4 EBBkC-H
never re-colors.

Every kernel takes an ``out`` sink receiving each k-clique as a tuple of
distinct vertices (listing semantics — output cost is part of the
measured work, as in the paper; the engine's collecting sinks sort each
tuple), plus an ``et_t`` early-termination threshold (0 disables ET; see
`etplex`, where an `etplex.CliqueCount` sink makes ET count the branches
it consumes instead of listing them). An initial-branch sub-problem is
the unit of the paper's EP parallel scheme: a ``*_sweep`` runs the units
at a list of π_τ positions, :func:`ebbkc_c_top_branch` one color-DAG
edge; :func:`initial_branches` picks the π_τ positions whose branch can
hold a k-clique.
"""
from __future__ import annotations

from typing import Iterator

from repro.graph.coloring import subgraph_color_ordering
from repro.graph.truss import Edge

from .etplex import Out, list_edges, try_early_terminate

NbrRank = dict[int, dict[int, int]]


# --------------------------------------------------------------------------
# EBBkC-T (Algorithm 3)
# --------------------------------------------------------------------------


def initial_branches(sizes: list[int], k: int) -> list[int]:
    """The positions i in π_τ whose initial branch g_i can hold a
    k-clique, ascending: |g_i| = ``sizes[i]`` ≥ k − 2 (Algorithm 2's size
    prune, read off the truss peel instead of slicing g_i)."""
    return [i for i, s in enumerate(sizes) if s >= k - 2]


def _branch_adj(nr: NbrRank, verts: set[int], min_rank: int) -> dict[int, set[int]]:
    """Adjacency of the branch graph on ``verts``: only the edges ranked
    after ``min_rank`` survive (the ESet intersection of Algorithm 3,
    computed lazily in O(|g|^2))."""
    adj2 = {}
    for v in verts:
        nv = nr[v]
        adj2[v] = {w for w in nv.keys() & verts if nv[w] > min_rank}
    return adj2


def _rec_t(
    s: tuple[int, ...],
    verts: set[int],
    min_rank: int,
    l: int,
    nr: NbrRank,
    et_t: int,
    out: Out,
) -> None:
    """List l-cliques of the branch graph (verts, edges with rank > min_rank),
    each merged with S. Pruning, termination and branching follow
    Algorithm 2/3 with the inherited global edge ordering."""
    if len(verts) < l:
        return
    if l == 1:
        for v in verts:
            out(s + (v,))
        return
    if l == 2:
        for v in verts:
            nv = nr[v]
            for w in nv.keys() & verts:
                if v < w and nv[w] > min_rank:
                    out(s + (v, w))
        return
    adj2 = _branch_adj(nr, verts, min_rank)
    if try_early_terminate(s, verts, adj2, l, et_t, out):
        return
    child_l = l - 2
    # No sort needed: each sub-branch is fully determined by the rank
    # filters below, not by the processing order of the edges.
    for u in verts:
        nu = nr[u]
        for v in adj2[u]:
            if u < v:
                nv = nr[v]
                r = nu[v]
                v2 = {w for w in adj2[u] & adj2[v] if nu[w] > r and nv[w] > r}
                _rec_t(s + (u, v), v2, r, child_l, nr, et_t, out)


def rank_map(order: list[Edge], start: int) -> NbrRank:
    """``nr[u][w]`` = ``nr[w][u]`` = position of edge {u, w} in π_τ,
    over the edges of ``order`` from position ``start`` on."""
    nr: NbrRank = {}
    for i, (u, v) in enumerate(order[start:], start):
        nr.setdefault(u, {})[v] = i
        nr.setdefault(v, {})[u] = i
    return nr


def ebbkc_t_sweep(
    order: list[Edge],
    units: list[int],
    k: int,
    out: Out,
    et_t: int = 0,
) -> None:
    """EBBkC-T over the initial branches at the ascending π_τ positions
    ``units`` of ``order``, in one :func:`_sweep`. The rank map that
    :func:`_rec_t` reads below the top level holds the edges from the
    first unit on: no branch reads an edge ranked before its own."""
    if not units:
        return
    nr = rank_map(order, units[0])
    for i, (rem, u, v) in zip(units, _sweep(order, units)):
        _rec_t((u, v), rem[u] & rem[v], i, k - 2, nr, et_t, out)


# --------------------------------------------------------------------------
# EBBkC-C (Algorithm 4)
# --------------------------------------------------------------------------


def _distinct_colors(cand: set[int], col: dict[int, int]) -> int:
    return len({col[w] for w in cand})


def _rec_c(
    s: tuple[int, ...],
    cand: set[int],
    l: int,
    co_out: dict[int, set[int]],
    col: dict[int, int],
    und: dict[int, set[int]],
    et_t: int,
    rule2: bool,
    out: Out,
) -> None:
    """EBBkC-C_Rec: the branch graph is the subgraph induced by ``cand``
    (the DAG orientation encodes edge exclusion, so no rank filter)."""
    if len(cand) < l:
        return
    if l == 1:
        for w in cand:
            out(s + (w,))
        return
    if l == 2:
        for w in cand:
            for x in co_out[w] & cand:
                out(s + (w, x))
        return
    if et_t > 0 and try_early_terminate(s, cand, und, l, et_t, out):
        return
    # Iteration order is free: the DAG orientation already encodes the
    # exclude-previous-edges semantics, so no per-branch sort is needed.
    for u in cand:
        ou = co_out[u] & cand
        for v in ou:
            if col[u] < l or col[v] < l - 1:
                continue
            cand2 = co_out[v] & ou
            if rule2 and _distinct_colors(cand2, col) < l - 2:
                continue
            _rec_c(s + (u, v), cand2, l - 2, co_out, col, und, et_t, rule2, out)


def ebbkc_c_top_branch(
    co_out: dict[int, set[int]],
    col: dict[int, int],
    und: dict[int, set[int]],
    u: int,
    v: int,
    k: int,
    out: Out,
    et_t: int = 0,
    rule2: bool = True,
) -> None:
    """The initial-branch sub-problem of EBBkC-C for the color-DAG edge
    u→v (vid(u) < vid(v), hence col(u) ≥ col(v)): apply Rule (2) at
    l = k, branch on the common out-neighbors, recurse with k − 2. The
    engine's unit list already applies Rule (1) at l = k."""
    cand = co_out[u] & co_out[v]
    if rule2 and _distinct_colors(cand, col) < k - 2:
        return
    _rec_c((u, v), cand, k - 2, co_out, col, und, et_t, rule2, out)


# --------------------------------------------------------------------------
# EBBkC-H (Algorithm 5)
# --------------------------------------------------------------------------


def _sweep(
    order: list[Edge], units: list[int]
) -> Iterator[tuple[dict[int, set[int]], int, int]]:
    """Walk π_τ through the ascending positions ``units``, yielding
    ``(rem, u, v)`` for each, where (u, v) = ``order[i]`` is the edge at
    that position and ``rem`` the adjacency of the edges after it: G
    minus e_1..e_i, so g_i = ``rem[u] & rem[v]``. The edges before the
    first unit are never read. ``rem`` is only valid until the next
    step."""
    if not units:
        return
    j = units[0]
    rem: dict[int, set[int]] = {}
    for u, v in order[j:]:
        rem.setdefault(u, set()).add(v)
        rem.setdefault(v, set()).add(u)
    for i in units:
        while j <= i:
            u, v = order[j]
            rem[u].remove(v)
            rem[v].remove(u)
            j += 1
        u, v = order[i]
        yield rem, u, v


def ebbkc_h_top_branch(
    rem: dict[int, set[int]],
    u: int,
    v: int,
    k: int,
    out: Out,
    et_t: int = 0,
    rule2: bool = True,
) -> None:
    """One initial-branch sub-problem of EBBkC-H: slice the truss-ordered
    branch graph g_i from ``rem`` (the adjacency of the edges after
    e_i = (u, v) in π_τ), re-color it, and run the color recursion
    inside. Early termination reads ``rem`` itself (its rows are
    supersets of the branch's), so g_i's adjacency is only built for a
    branch that ET does not consume. At l = 2 there is nothing to
    branch on: a branch ET declines lists its edges from ``rem``, with
    no re-coloring (Algorithm 2's l = 2 exit)."""
    verts = rem[u] & rem[v]
    l = k - 2
    if len(verts) < l:
        return
    if l == 1:
        for w in verts:
            out((u, v, w))
        return
    if try_early_terminate((u, v), verts, rem, l, et_t, out):
        return
    if l == 2:
        list_edges((u, v), verts, rem, out)
        return
    adj2 = {w: rem[w] & verts for w in verts}
    co = subgraph_color_ordering(adj2)
    _rec_c((u, v), verts, l, co.out, co.col, adj2, et_t, rule2, out)


def ebbkc_h_sweep(
    order: list[Edge],
    units: list[int],
    k: int,
    out: Out,
    et_t: int = 0,
    rule2: bool = True,
) -> None:
    """EBBkC-H over the initial branches at the ascending π_τ positions
    ``units`` of ``order``, in one :func:`_sweep`."""
    for rem, u, v in _sweep(order, units):
        ebbkc_h_top_branch(rem, u, v, k, out, et_t, rule2)
