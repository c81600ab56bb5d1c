"""Hypothesis property tests: on arbitrary random graphs, every
algorithm in the repo lists exactly the brute-force clique set, and the
structural lemmas of the paper hold."""
from hypothesis import given, settings, strategies as st

from repro.core.bruteforce import brute_force_count
from repro.core.engine import run_local
from repro.graph.core import core_decomposition
from repro.graph.loader import LocalGraph
from repro.graph.truss import truss_decomposition


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(min_value=3, max_value=max_n))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=1,
            max_size=n * 3,
        )
    )
    return LocalGraph.from_pairs(pairs)


@st.composite
def relabelled(draw, base):
    """A graph drawn from ``base`` with its vertices renamed to distinct
    ids drawn from the whole of Spark's long, negative and large ones
    included."""
    g = draw(base)
    ids = st.integers(min_value=-(2**63), max_value=2**63 - 1)
    new = dict(zip(g.vertices, draw(st.lists(ids, min_size=g.n, max_size=g.n, unique=True))))
    return LocalGraph.from_pairs((new[u], new[v]) for u, v in g.edge_list())


@st.composite
def near_complete_graphs(draw, max_n=16):
    """K_n minus a few random edges: dense enough that early termination
    meets 2-plexes with non-adjacent pairs and t-plexes (t ≥ 3) whose
    all-adjacent set is not empty."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    vert = st.integers(min_value=0, max_value=n - 1)
    drop = {frozenset(p) for p in draw(st.lists(st.tuples(vert, vert), max_size=n))}
    return LocalGraph.from_pairs(
        [(i, j) for i in range(n) for j in range(i + 1, n) if {i, j} not in drop]
    )


@given(graphs(), st.integers(min_value=3, max_value=6))
@settings(max_examples=60, deadline=None)
def test_all_algorithms_agree_with_brute_force(g, k):
    expected = brute_force_count(g, k)
    for algo, et_t in [
        ("ebbkc-t", 0),
        ("ebbkc-c", 0),
        ("ebbkc-h", 2),
        ("degen", 2),
        ("ddegcol", 2),
        ("bitcol", 2),
    ]:
        got = run_local(g, k, algo, et_t=et_t, collect=True)
        assert len(got) == len(set(got)) == expected


@given(graphs(max_n=20))
@settings(max_examples=60, deadline=None)
def test_lemma_4_1_property(g):
    if g.m > 0:
        assert truss_decomposition(g).tau < core_decomposition(g).degeneracy
