"""Early-termination procedures (Section 5).

* :func:`list_cliques_2plex` — kC2Plex (Algorithm 6): when the branch
  graph is a clique or 2-plex, read its full vertices F and its
  non-adjacent pairs off the inverse graph and walk the closed form's
  sum: for each j, every j pairs, one member of each, and every
  (l − j)-subset of F. Starting at j = l − |F|, every choice closes a
  clique — nearly output-optimal. At l ≤ 2 there is nothing to combine:
  it lists the branch's vertices, or its edges with :func:`list_edges`,
  which probes each vertex pair once and also serves EBBkC-H's l = 2
  branches that ET declines.
* :func:`list_cliques_tplex` — kCtPlex (Algorithm 7): when the branch
  graph is a t-plex (t ≥ 3), branch on the sparse *inverse* graph,
  with the all-adjacent vertex set I completed combinatorially. The one
  recursion both lists and counts: into a :class:`CliqueCount` sink it
  adds C(|I|, l₂) instead of emitting I's combinations.
* :func:`count_cliques_2plex` — kC2Plex's count in closed form: a 2-plex
  with f full vertices and p non-adjacent pairs has
  Σ_j C(p, j)·2^j·C(f, l − j) l-cliques.
* :func:`try_early_terminate` — the dispatch used inside the BB
  kernels: checks the branch graph's plexity against the threshold t
  and runs the matching procedure, returning True when it consumed the
  branch. :func:`early_terminate` is its second half, for a caller that
  has already scanned the branch.

The listing procedures emit every clique (the paper's task is listing,
and reported times include output) as a tuple of distinct vertices, in
no particular order, to ``out`` (the engine's collecting sinks sort
them). Only a :class:`CliqueCount` sink switches early termination to
counting (kC2Plex's closed form, kCtPlex's C(|I|, l₂)); the Spark count
path passes one.
"""
from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import Callable

from repro.graph.plex import inverse_adj, partition_2plex

Out = Callable[[tuple[int, ...]], None]


class CliqueCount:
    """Counting sink: ``n`` is the number of cliques it has received.

    A branch that early termination consumes adds its clique count to
    ``n`` in closed form instead of calling the sink once per clique.
    """

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def __call__(self, c: tuple[int, ...]) -> None:
        self.n += 1


def list_edges(
    s: tuple[int, ...], verts: set[int], adj: dict[int, set[int]], out: Out
) -> None:
    """Emit S ∪ {w, x} for every edge {w, x} of the graph (verts, adj),
    once: each vertex pair of ``verts`` is probed once, so the rows of
    ``adj`` may be supersets of the graph's."""
    for w, x in combinations(verts, 2):
        if x in adj[w]:
            out(s + (w, x))


def list_cliques_2plex(
    s: tuple[int, ...],
    verts: set[int],
    adj: dict[int, set[int]],
    l: int,
    out: Out,
) -> None:
    """kC2Plex: emit S ∪ C for every l-clique C of the 2-plex (verts, adj),
    one term of :func:`count_cliques_2plex` at a time; F's share is
    completed by :func:`_combine`, so a :class:`CliqueCount` sink adds
    C(|F|, l − j) per choice of pair members.

    ``adj`` is the *branch* adjacency (values may be supersets — they are
    intersected with ``verts``). At l ≤ 2 the l-cliques are the vertices
    or the edges, listed directly (the edges by :func:`list_edges`); the
    partition would give the same.
    """
    if l <= 2:
        if l == 2:
            list_edges(s, verts, adj, out)
        elif l == 1:
            for w in verts:
                out(s + (w,))
        elif l == 0:
            out(s)
        return
    f, pairs = partition_2plex(verts, adj)
    # j pairs, one member of each, then l − j members of F; j ≥ l − |F|,
    # so every prefix closes a clique.
    for j in range(max(0, l - len(f)), min(l, len(pairs)) + 1):
        for chosen in combinations(pairs, j):
            for picks in product(*chosen):
                _combine(s + picks, f, l - j, out)


def list_cliques_tplex(
    s: tuple[int, ...],
    verts: set[int],
    adj: dict[int, set[int]],
    l: int,
    out: Out,
) -> None:
    """kCtPlex: emit S ∪ C for every l-clique C of the t-plex (verts, adj),
    branching on the inverse graph (Eq. 9) with the all-adjacent set I
    completed by :func:`_combine`: its l₂-subsets are emitted, or counted
    as C(|I|, l₂) into a :class:`CliqueCount` sink. At l₂ = 1 the
    remaining candidates join I, as every vertex closes a clique."""
    if l <= 0:
        if l == 0:
            out(s)
        return
    inv = inverse_adj(verts, adj)
    i_set = sorted(v for v in verts if not inv[v])
    c0 = sorted(v for v in verts if inv[v])

    def rec(s2: tuple[int, ...], c: list[int], l2: int) -> None:
        if l2 == 1:
            _combine(s2, i_set + c, 1, out)
            return
        _combine(s2, i_set, l2, out)
        for i, v in enumerate(c):
            non_nb = inv[v]
            ci = [w for w in c[i + 1 :] if w not in non_nb]
            if len(ci) + len(i_set) >= l2 - 1:
                rec(s2 + (v,), ci, l2 - 1)

    rec(s, c0, l)


def _combine(s: tuple[int, ...], pool: list[int], r: int, out: Out) -> None:
    """Emit S ∪ R for every r-subset R of the clique ``pool``, or add
    their number C(|pool|, r) to a :class:`CliqueCount` sink."""
    if type(out) is CliqueCount:
        out.n += comb(len(pool), r)
    else:
        for sub in combinations(pool, r):
            out(s + sub)


def count_cliques_2plex(n_full: int, n_pairs: int, l: int) -> int:
    """Number of l-cliques of a 2-plex with ``n_full`` vertices adjacent
    to all others and ``n_pairs`` non-adjacent pairs: choose j pairs,
    one member of each, and the other l − j members from F."""
    return sum(
        comb(n_pairs, j) * 2**j * comb(n_full, l - j)
        for j in range(min(n_pairs, l) + 1)
    )


def _plex_scan(
    verts: set[int], adj: dict[int, set[int]], t_max: int
) -> tuple[int, int] | None:
    """Early-exit plexity scan: (min degree, number of full vertices) of
    (verts, adj), or None when it is not a ``t_max``-plex.

    g is a t_max-plex iff every induced degree is ≥ |V| − t_max. Most
    branches fail on the first vertex, making the check cheap (the paper
    maintains min degree during construction for the same O(|V(g)|)
    effect)."""
    n = len(verts)
    need = n - t_max
    full = n - 1
    min_deg = n
    n_full = 0
    for w in verts:
        d = len(adj[w] & verts)
        if d < need:
            return None
        if d < min_deg:
            min_deg = d
        if d == full:
            n_full += 1
    return min_deg, n_full


def try_early_terminate(
    s: tuple[int, ...],
    verts: set[int],
    adj: dict[int, set[int]],
    l: int,
    t_max: int,
    out: Out,
) -> bool:
    """If (verts, adj) is a t-plex with t ≤ ``t_max``, list its l-cliques
    with the matching specialized procedure (:func:`early_terminate`) and
    return True.

    ``t_max`` ≤ 0 disables early termination entirely. The paper's
    default policy (Section 6.1) is t = 2 for k ≤ τ/2 and t = 3 for
    larger k; Experiment 6 sweeps t ∈ {1..5}.
    """
    if t_max <= 0 or not verts:
        return False
    scan = _plex_scan(verts, adj, t_max)
    if scan is None:
        return False
    early_terminate(s, verts, adj, l, scan, out)
    return True


def early_terminate(
    s: tuple[int, ...],
    verts: set[int],
    adj: dict[int, set[int]],
    l: int,
    scan: tuple[int, int],
    out: Out,
) -> None:
    """List the l-cliques of the non-empty t-plex (verts, adj) whose
    ``scan`` = (min degree, number of full vertices) the caller already
    holds: kC2Plex when t ≤ 2, else kCtPlex. When ``out`` is a
    :class:`CliqueCount`, add their number to ``out.n`` instead (for a
    2-plex by :func:`count_cliques_2plex`)."""
    min_deg, n_full = scan
    n = len(verts)
    if n - min_deg > 2:
        list_cliques_tplex(s, verts, adj, l, out)
    elif type(out) is CliqueCount:
        out.n += count_cliques_2plex(n_full, (n - n_full) // 2, l)
    else:
        list_cliques_2plex(s, verts, adj, l, out)


def default_t_threshold(k: int, tau_val: int) -> int:
    """The paper's ET threshold policy: t = 2 when k ≤ τ/2, else t = 3."""
    return 2 if k <= tau_val / 2 else 3
