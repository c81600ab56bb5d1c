"""VBBkC — the vertex-oriented branching baselines (Section 3 / 7).

Implemented variants (all `O(km(δ/2)^(k-2))` except Degen's ancestors):

* ``degen``  — kClist [Danisch et al.]: one global degeneracy ordering;
  a branch recurses over the degeneracy DAG restricted to its candidates.
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

The entry points ``vbbkc_top_branch_vertex`` (NP scheme) and
``vbbkc_top_branch_edge`` (EP scheme) process one initial-branch
sub-problem over the adjacency ``adj`` and the degeneracy DAG
``dag_out``; the engine (`repro.core.engine`) prepares both and runs
the units. For Degen, the NP units together are exactly kClist's
whole-graph recursion.
"""
from __future__ import annotations

from repro.graph.coloring import subgraph_color_ordering
from repro.graph.core import degree_order, orient

from .etplex import Out, early_terminate, try_early_terminate

VARIANTS = ("degen", "ddegree", "ddegcol", "sdegree", "bitcol")


# --------------------------------------------------------------------------
# Set-based recursion (degen / ddegree / ddegcol)
# --------------------------------------------------------------------------


def _rec_v(
    s: tuple[int, ...],
    cand: set[int],
    l: int,
    dag: dict[int, set[int]],
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
        _rec_v(s + (v,), cand2, l - 1, dag, col, und, et_t, rule2, out)


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
        degs = [(und_mask[i] & cand).bit_count() for i in _iter_bits(cand)]
        min_deg = min(degs)
        if n - min_deg <= et_t:
            vset = {verts[i] for i in _iter_bits(cand)}
            adj2 = {
                verts[i]: {verts[j] for j in _iter_bits(und_mask[i] & cand)}
                for i in _iter_bits(cand)
            }
            early_terminate(s, vset, adj2, l, (min_deg, degs.count(n - 1)), out)
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
# Top-branch entry points
# --------------------------------------------------------------------------


def _branch(
    variant: str,
    adj: dict[int, set[int]],
    dag_out: dict[int, set[int]],
    s: tuple[int, ...],
    verts: set[int],
    l: int,
    out: Out,
    rule2: bool,
    et_t: int,
) -> None:
    """The initial sub-branch (S = ``s``, candidates ``verts``, l more
    vertices) in the variant's ordering: Degen keeps the global DAG, the
    others order the branch locally by degree or by color."""
    if variant == "degen":
        dag = {w: dag_out[w] & verts for w in verts}
        _rec_v(s, verts, l, dag, None, adj, et_t, rule2, out)
        return
    local = {w: adj[w] & verts for w in verts}
    if variant in ("ddegcol", "bitcol"):
        co = subgraph_color_ordering(local)
        order, col, dag = co.order, co.col, co.out
    else:
        order, col = degree_order(local), None
        dag = orient(order, local)[1] if variant == "ddegree" else None
    if variant in ("sdegree", "bitcol"):
        _run_branch_bits(s, order, local, col, l, et_t, rule2, out)
        return
    _rec_v(s, verts, l, dag, col, local, et_t, rule2, out)


def vbbkc_top_branch_vertex(
    adj: dict[int, set[int]],
    dag_out: dict[int, set[int]],
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
    _branch(variant, adj, dag_out, (v,), dag_out[v], k - 1, out, rule2, et_t)


def vbbkc_top_branch_edge(
    adj: dict[int, set[int]],
    dag_out: dict[int, set[int]],
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
    verts = dag_out[u] & dag_out[v]
    _branch(variant, adj, dag_out, (u, v), verts, k - 2, out, rule2, et_t)
