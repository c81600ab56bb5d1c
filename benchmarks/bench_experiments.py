"""pytest-benchmark cells for the paper's tables and experiments.

Each cell runs once (``pedantic(rounds=1)``): the kernels are
deterministic and the matrices are large, so repeated rounds would
multiply wall-clock for no variance benefit. The ingest cells, which
take tens of milliseconds, run ``INGEST_ROUNDS`` rounds. A cell's id
names its experiment, dataset, k, algorithm label and (Spark cells)
task count, so ``bench_output.txt`` reads like the paper's tables;
``python -m repro.experiments`` prints the full sweeps.
"""
import numpy as np
import pytest

from repro.core.engine import count_kcliques, run_local
from repro.experiments import LINEUPS, graph_info, lineup_opts
from repro.graph import generators as G
from repro.graph.core import core_decomposition
from repro.graph.datasets import DATASETS, DEFAULT_DATASETS, SCALABILITY
from repro.graph.loader import LocalGraph, to_spark
from repro.graph.stats import compute_stats
from repro.graph.truss import truss_decomposition

# experiment → {dataset: k values}: the sequential cells, each run with
# the experiment's line-up from `repro.experiments.LINEUPS`.
LOCAL = {
    # Exp 1 (Fig. 4): small-ω comparison.
    "exp1": {"wk": (4, 8, 12), "po": (4, 8, 13), "cn": (6, 15), "ba": (4, 6)},
    # Exp 2 (Fig. 5): large-ω comparison, small k plus k near ω
    # (ω: st=30, or=32, db=34 on the substitutes).
    "exp2": {"st": (4, 26, 30), "or": (4, 28, 32), "db": (4, 30, 34)},
    # Exp 3 (Fig. 6/14): ablation, the VBBkC SOTA with Rule 2 and no SIMD.
    "exp3": {"wk": (8, 12), "st": (26, 30)},
    # Exp 4 (Fig. 7): the three edge orderings.
    "exp4": {"wk": (8, 12), "or": (28,)},
    # Exp 5 (Fig. 8/15): pruning Rule (2) on vs off.
    "exp5": {"wk": (8, 12), "or": (28,)},
    # Exp 6 (Fig. 9): early-termination threshold t ∈ {1..5}.
    "exp6": {"wk": (8, 12), "cn": (15,)},
}

LOCAL_CELLS = [
    pytest.param(name, k, algo, opts, id=f"{exp}-{name}-{k}-{label}")
    for exp, cases in LOCAL.items()
    for name, ks in cases.items()
    for k in ks
    for label, algo, opts in LINEUPS[exp]
]


def _spark_cells():
    """Exp 7 (Fig. 10) on cn at k = 12, over 1, 4 and 16 tasks. Exp 9
    (Fig. 12): the three largest substitutes, 16 tasks, at k = 4 and
    k = ω − 4."""
    cells = [
        pytest.param("cn", 12, algo, opts, n, id=f"exp7-cn-12-{label}-{n}")
        for label, algo, opts in LINEUPS["exp7"]
        for n in (1, 4, 16)
    ]
    for name in SCALABILITY:
        for k in (4, graph_info(name)["omega"] - 4):
            for label, algo, opts in LINEUPS["exp9"]:
                cells.append(pytest.param(name, k, algo, opts, 16,
                                          id=f"exp9-{name}-{k}-{label}-16"))
    return cells


@pytest.mark.parametrize("name,k,algo,opts", LOCAL_CELLS)
def test_local(benchmark, name, k, algo, opts):
    g = graph_info(name)["g"]
    opts = lineup_opts(name, k, opts)
    count = benchmark.pedantic(lambda: run_local(g, k, algo, **opts), rounds=1, iterations=1)
    assert count >= 0


@pytest.fixture(scope="module")
def cached_edges(spark):
    """Edge table of a dataset, cached on first use for the module."""
    dfs = {}

    def get(name):
        if name not in dfs:
            dfs[name] = to_spark(spark, graph_info(name)["g"]).cache()
            dfs[name].count()
        return dfs[name]

    yield get
    for df in dfs.values():
        df.unpersist()


@pytest.mark.parametrize("name,k,algo,opts,n_tasks", _spark_cells())
def test_spark(benchmark, spark, cached_edges, name, k, algo, opts, n_tasks):
    """Spark cells time listing, as the paper's times include output."""
    edges, opts = cached_edges(name), lineup_opts(name, k, opts)
    count = benchmark.pedantic(
        lambda: count_kcliques(spark, edges, k, algo, n_tasks=n_tasks, closed_form=False, **opts),
        rounds=1,
        iterations=1,
    )
    assert count >= 1


@pytest.mark.parametrize("name", DEFAULT_DATASETS)
def test_table1_stats(benchmark, name):
    """Table 1 on the default datasets."""
    g = graph_info(name)["g"]
    stats = benchmark.pedantic(lambda: compute_stats(g), rounds=1, iterations=1)
    assert stats["tau"] < stats["delta"]  # Lemma 4.1 on the substitute


@pytest.mark.parametrize("name", DEFAULT_DATASETS)
def test_truss_ordering(benchmark, name):
    """Table 2: the truss-based edge ordering."""
    g = graph_info(name)["g"]
    td = benchmark.pedantic(lambda: truss_decomposition(g), rounds=1, iterations=1)
    assert len(td.order) == g.m


@pytest.mark.parametrize("name", DEFAULT_DATASETS)
def test_degeneracy_ordering(benchmark, name):
    """Table 2: the degeneracy vertex ordering."""
    g = graph_info(name)["g"]
    dec = benchmark.pedantic(lambda: core_decomposition(g), rounds=1, iterations=1)
    assert len(dec.order) == g.n


INGEST_ROUNDS = 5


def _sparse_k4() -> LocalGraph:
    """The sparse-k4 benchmark graph as the benchmark builds it: generate,
    then relabel the vertices at random and build the copy from pairs."""
    g = G.chung_lu(3000, 2.2, 8, seed=7)
    label = dict(zip(g.vertices, np.random.default_rng(7).permutation(4 * g.n)[: g.n].tolist()))
    return LocalGraph.from_pairs((label[u], label[v]) for u, v in g.edge_list())


INGEST = {"sparse-k4": _sparse_k4, "wp": DATASETS["wp"].build}


@pytest.mark.parametrize("name", sorted(INGEST))
def test_ingest(benchmark, name):
    """Layer (a), edge ingest: generating a graph and building its
    `LocalGraph` (the registry's cache is bypassed)."""
    g = benchmark.pedantic(INGEST[name], rounds=INGEST_ROUNDS, iterations=1)
    assert g.m > 0
