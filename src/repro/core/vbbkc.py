"""VBBkC — the vertex-oriented branching baselines (Section 3 / 7).

Implemented variants (all `O(km(δ/2)^(k-2))` except Degen's ancestors):

* ``degen``  — kClist [Danisch et al.]: one global degeneracy ordering.
* ``ddegree`` — DDegCol's sibling [Li et al.]: degeneracy ordering at the
  initial branch, local degree ordering below.
* ``ddegcol`` — degeneracy at the initial branch, per-branch coloring +
  color ordering with the `col(v) < l` prune below.
* ``sdegree`` / ``bitcol`` — SDegree / BitCol [Yuan et al.]: the same two
  algorithms over bitset adjacency (Python big-int masks — the paper's
  ablation variants are explicitly *without* SIMD, which is what a
  Python int gives us).

``rule2=True`` adds the paper's Rule (2) adapted to VBBkC (prune a
sub-branch whose candidates span < l − 1 distinct colors), yielding the
ablation baselines DDegCol+ / BitCol+. ``et_t`` enables the same early
termination as EBBkC (the paper's VBBkC+ET in Experiment 7).

Entry points ``vbbkc_top_branch_vertex`` (NP scheme) and
``vbbkc_top_branch_edge`` (EP scheme) process one initial-branch
sub-problem for the distributed engine.
"""
from __future__ import annotations

from typing import Callable

from repro.graph.coloring import subgraph_color_ordering
from repro.graph.core import CoreDecomposition, core_decomposition, degeneracy_dag
from repro.graph.loader import LocalGraph, list_small_k

from .etplex import try_early_terminate

Out = Callable[[tuple[int, ...]], None]

_VARIANTS = ("degen", "ddegree", "ddegcol", "sdegree", "bitcol")


# --------------------------------------------------------------------------
# Set-based recursion (degen / ddegree / ddegcol)
# --------------------------------------------------------------------------


def _rec_v(
    s: tuple[int, ...],
    cand: set[int],
    l: int,
    dag: dict[int, set[int]],
    vid: dict[int, int],
    col: dict[int, int] | None,
    und: dict[int, set[int]],
    et_t: int,
    rule2: bool,
    out: Out,
) -> None:
    """VBBkC_Rec (Algorithm 1): the branch graph is the subgraph induced
    by ``cand``; ``dag`` encodes the adopted vertex ordering."""
    if len(cand) < l:
        return
    if l == 1:
        for v in cand:
            out(s + (v,))
        return
    if l == 2:
        for v in cand:
            for w in dag[v] & cand:
                out(s + (v, w))
        return
    if et_t > 0 and try_early_terminate(s, cand, und, l, et_t, out):
        return
    # Iteration order is free for correctness: ``dag`` already encodes
    # the adopted ordering's exclusion semantics.
    for v in cand:
        if col is not None and col[v] < l:
            continue
        cand2 = dag[v] & cand
        if rule2 and col is not None and len({col[w] for w in cand2}) < l - 1:
            continue
        _rec_v(s + (v,), cand2, l - 1, dag, vid, col, und, et_t, rule2, out)


def _degree_ordering_ctx(
    verts: set[int], und: dict[int, set[int]]
) -> tuple[dict[int, set[int]], dict[int, int]]:
    """Local degree ordering (descending degree, ties by id) → (dag, vid)."""
    local = {v: und[v] & verts for v in verts}
    order = sorted(verts, key=lambda v: (-len(local[v]), v))
    vid = {v: i for i, v in enumerate(order)}
    dag = {
        v: {w for w in local[v] if vid[w] > vid[v]} for v in verts
    }
    return dag, vid


# --------------------------------------------------------------------------
# Bitset recursion (sdegree / bitcol)
# --------------------------------------------------------------------------


def _iter_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _rec_v_bits(
    s: tuple[int, ...],
    cand: int,
    l: int,
    verts: list[int],
    dag_mask: list[int],
    und_mask: list[int],
    colarr: list[int] | None,
    et_t: int,
    rule2: bool,
    out: Out,
) -> None:
    """Bitset twin of :func:`_rec_v`. ``verts[i]`` is the vertex for bit i
    (bits are in local-ordering position, so ascending bit = ordering)."""
    n = cand.bit_count()
    if n < l:
        return
    if l == 1:
        for i in _iter_bits(cand):
            out(s + (verts[i],))
        return
    if l == 2:
        for i in _iter_bits(cand):
            for j in _iter_bits(dag_mask[i] & cand):
                out(s + (verts[i], verts[j]))
        return
    if et_t > 0:
        min_deg = min((und_mask[i] & cand).bit_count() for i in _iter_bits(cand))
        if n - min_deg <= et_t:
            vset = {verts[i] for i in _iter_bits(cand)}
            adj2 = {
                verts[i]: {verts[j] for j in _iter_bits(und_mask[i] & cand)}
                for i in _iter_bits(cand)
            }
            if try_early_terminate(s, vset, adj2, l, et_t, out):
                return
    for i in _iter_bits(cand):
        if colarr is not None and colarr[i] < l:
            continue
        cand2 = dag_mask[i] & cand
        if rule2 and colarr is not None:
            if len({colarr[j] for j in _iter_bits(cand2)}) < l - 1:
                continue
        _rec_v_bits(
            s + (verts[i],), cand2, l - 1, verts, dag_mask, und_mask,
            colarr, et_t, rule2, out,
        )


def _run_branch_bits(
    s: tuple[int, ...],
    verts_ordered: list[int],
    local_adj: dict[int, set[int]],
    col: dict[int, int] | None,
    l: int,
    et_t: int,
    rule2: bool,
    out: Out,
) -> None:
    """Pack an initial sub-branch into bit masks and recurse."""
    idx = {v: i for i, v in enumerate(verts_ordered)}
    und_mask = [0] * len(verts_ordered)
    dag_mask = [0] * len(verts_ordered)
    for v, i in idx.items():
        for w in local_adj[v]:
            j = idx[w]
            und_mask[i] |= 1 << j
            if j > i:
                dag_mask[i] |= 1 << j
    colarr = [col[v] for v in verts_ordered] if col is not None else None
    _rec_v_bits(
        s, (1 << len(verts_ordered)) - 1, l, verts_ordered, dag_mask,
        und_mask, colarr, et_t, rule2, out,
    )


# --------------------------------------------------------------------------
# Top-branch entry points and full algorithms
# --------------------------------------------------------------------------


def _branch_ctx(variant: str, verts: set[int], und: dict[int, set[int]]):
    """Local ordering context for one initial sub-branch: returns
    (ordered_verts, local_adj, col-or-None)."""
    local = {v: und[v] & verts for v in verts}
    if variant in ("ddegcol", "bitcol"):
        co = subgraph_color_ordering(verts, local)
        return co.order, local, co.col
    order = sorted(verts, key=lambda v: (-len(local[v]), v))
    return order, local, None


def vbbkc_top_branch_vertex(
    g: LocalGraph,
    dag_out: dict[int, list[int]],
    v: int,
    k: int,
    out: Out,
    *,
    variant: str = "ddegcol",
    rule2: bool = False,
    et_t: int = 0,
) -> None:
    """NP unit of work: the initial sub-branch that adds vertex v (its
    candidates are v's out-neighbors in the degeneracy DAG)."""
    verts = set(dag_out[v])
    order, local, col = _branch_ctx(variant, verts, g.adj)
    if variant in ("sdegree", "bitcol"):
        _run_branch_bits((v,), order, local, col, k - 1, et_t, rule2, out)
    else:
        vid = {w: i for i, w in enumerate(order)}
        dag = {w: {x for x in local[w] if vid[x] > vid[w]} for w in verts}
        _rec_v((v,), verts, k - 1, dag, vid, col, local, et_t, rule2, out)


def vbbkc_top_branch_edge(
    g: LocalGraph,
    dag_out: dict[int, list[int]],
    u: int,
    v: int,
    k: int,
    out: Out,
    *,
    variant: str = "ddegcol",
    rule2: bool = False,
    et_t: int = 0,
) -> None:
    """EP unit of work: the first two branching steps fused — S = {u, v}
    for a degeneracy-DAG edge u→v, candidates = common out-neighbors."""
    verts = set(dag_out[u]) & set(dag_out[v])
    if k == 2:
        out(tuple(sorted((u, v))))
        return
    order, local, col = _branch_ctx(variant, verts, g.adj)
    if variant in ("sdegree", "bitcol"):
        _run_branch_bits((u, v), order, local, col, k - 2, et_t, rule2, out)
    else:
        vid = {w: i for i, w in enumerate(order)}
        dag = {w: {x for x in local[w] if vid[x] > vid[w]} for w in verts}
        _rec_v((u, v), verts, k - 2, dag, vid, col, local, et_t, rule2, out)


def vbbkc_prepare(g: LocalGraph) -> CoreDecomposition:
    """Preprocessing shared by every VBBkC variant: the degeneracy peel."""
    return core_decomposition(g)


def vbbkc(
    g: LocalGraph,
    k: int,
    out: Out,
    *,
    variant: str = "ddegcol",
    rule2: bool = False,
    et_t: int = 0,
    core: CoreDecomposition | None = None,
) -> None:
    """Run a VBBkC baseline end to end (sequential, NP decomposition)."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown VBBkC variant {variant!r}")
    if list_small_k(g, k, out):
        return
    dec = core if core is not None else vbbkc_prepare(g)
    order, dag_out = degeneracy_dag(g, dec)
    if variant == "degen":
        vid = dec.rank
        dag = {v: set(nb) for v, nb in dag_out.items()}
        _rec_v((), set(g.adj), k, dag, vid, None, g.adj, et_t, rule2, out)
        return
    for v in order:
        vbbkc_top_branch_vertex(
            g, dag_out, v, k, out, variant=variant, rule2=rule2, et_t=et_t
        )
