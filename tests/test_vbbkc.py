"""VBBkC baselines (Degen / DDegree / DDegCol / SDegree / BitCol) vs
brute force, including the '+' (Rule 2) and +ET variants and the EP/NP
top-branch decompositions."""
import pytest

from repro.core import vbbkc
from repro.core.bruteforce import check_cliques
from repro.core.engine import _run_units, _units, prepare, run_local
from repro.core.vbbkc import vbbkc_top_branch_edge, vbbkc_top_branch_vertex
from repro.graph import generators as G
from repro.graph.core import degeneracy_dag


GRAPHS = {
    "er_dense": G.erdos_renyi(22, 0.5, seed=1),
    "er_sparse": G.erdos_renyi(40, 0.15, seed=2),
    "ba": G.barabasi_albert(60, 5, seed=3),
    "k8": G.complete_graph(8),
    "bipartite": G.complete_bipartite(5, 5),
    "planted": G.planted_cliques(50, 0.08, [9], seed=5),
}

VARIANTS = ["degen", "ddegree", "ddegcol", "sdegree", "bitcol"]


def _run(g, k, variant="ddegcol", **kw):
    return run_local(g, k, variant, collect=True, **kw)


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("k", [3, 5, 7])
def test_variant_exact(gname, variant, k):
    g = GRAPHS[gname]
    check_cliques(g, k, _run(g, k, variant=variant))


@pytest.mark.parametrize("variant", ["ddegcol", "bitcol"])
def test_rule2_plus_variants(variant):
    g = GRAPHS["er_dense"]
    for k in (4, 5, 6):
        check_cliques(g, k, _run(g, k, variant=variant, rule2=True))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("et_t", [2, 3])
def test_et_variants(variant, et_t):
    g = GRAPHS["ba"]
    for k in (4, 5):
        check_cliques(g, k, _run(g, k, variant=variant, et_t=et_t))


@pytest.mark.parametrize("variant", ["sdegree", "bitcol"])
def test_bitset_et_scans_once(variant, monkeypatch):
    """The bitset recursion's own degree scan decides early termination:
    the consumed branches are not scanned again by ``etplex._plex_scan``."""
    from repro.core import etplex

    scans, consumed = [], []
    monkeypatch.setattr(etplex, "_plex_scan", lambda *a: scans.append(a))
    et = vbbkc.early_terminate
    monkeypatch.setattr(vbbkc, "early_terminate", lambda *a: consumed.append(a) or et(*a))
    g = GRAPHS["er_dense"]
    for k in (5, 6):
        check_cliques(g, k, _run(g, k, variant=variant, et_t=3))
    assert consumed and not scans


def test_k_edge_cases():
    g = GRAPHS["er_sparse"]
    assert sorted(_run(g, 1)) == [(v,) for v in g.vertices]
    assert sorted(tuple(sorted(c)) for c in _run(g, 2)) == g.edge_list()
    assert _run(g, 0) == []


@pytest.mark.parametrize("variant", ["ddegcol", "bitcol"])
def test_np_decomposition_covers_all(variant):
    g = GRAPHS["er_dense"]
    order, dag = degeneracy_dag(g)
    got = []
    for v in order:
        vbbkc_top_branch_vertex(g.adj, dag, v, 5, got.append, variant=variant)
    check_cliques(g, 5, got)


@pytest.mark.parametrize("variant", VARIANTS)
def test_ep_decomposition_covers_all(variant):
    g = GRAPHS["er_dense"]
    _, dag = degeneracy_dag(g)
    got = []
    for u in g.adj:
        for v in dag[u]:
            vbbkc_top_branch_edge(g.adj, dag, u, v, 5, got.append, variant=variant)
    check_cliques(g, 5, got)


def test_ep_with_et_covers_all():
    g = GRAPHS["planted"]
    _, dag = degeneracy_dag(g)
    got = []
    for u in g.adj:
        for v in dag[u]:
            vbbkc_top_branch_edge(g.adj, dag, u, v, 6, got.append,
                                  variant="ddegcol", et_t=3)
    check_cliques(g, 6, got)


@pytest.mark.parametrize("scheme", ["ep", "np"])
def test_degen_units_recurse_over_the_global_dag(monkeypatch, scheme):
    """kClist, unit by unit: every Degen recursion step reads the global
    degeneracy DAG restricted to its candidates, never a local ordering,
    so the NP units together are the whole-graph recursion."""
    g = G.barabasi_albert(120, 6, seed=3)
    prep = prepare(g, "degen", 5)
    glob = {v: set(nb) for v, nb in prep["dag_out"].items()}
    rec = vbbkc._rec_v
    calls = []

    def spy(s, cand, l, dag, *rest):
        calls.append(len(s))
        assert all(dag[w] & cand == glob[w] & cand for w in cand)
        return rec(s, cand, l, dag, *rest)

    monkeypatch.setattr(vbbkc, "_rec_v", spy)
    got = []
    units = _units("degen", scheme, prep, 5)
    _run_units(prep, "degen", scheme, 5, units, got.append, et_t=0, rule2=False)
    assert calls.count(1 if scheme == "np" else 2) == len(units)
    check_cliques(g, 5, got)


def test_all_variants_same_count_on_larger_graph():
    g = G.barabasi_albert(150, 6, seed=9)
    counts = {len(_run(g, 5, variant=v)) for v in VARIANTS}
    assert len(counts) == 1
