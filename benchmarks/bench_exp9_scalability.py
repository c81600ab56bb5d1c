"""Experiment 9 (Fig. 12): scalability — largest substitutes, EP scheme,
16 tasks, EBBkC+ET vs BitCol at small and near-ω k."""
import pytest

from repro.core.engine import count_kcliques
from repro.experiments import graph_info, policy_t
from repro.graph.datasets import SCALABILITY
from repro.graph.loader import to_spark


@pytest.fixture(scope="module")
def cached_edges(spark):
    dfs = {}
    for name in SCALABILITY:
        df = to_spark(spark, graph_info(name)["g"]).cache()
        df.count()
        dfs[name] = df
    yield dfs
    for df in dfs.values():
        df.unpersist()


def _cases():
    out = []
    for name in SCALABILITY:
        omega = graph_info(name)["omega"]
        for k in (4, omega - 4):
            out.append((name, k))
    return out


@pytest.mark.parametrize("label,algo,et", [("EBBkC+ET", "ebbkc-h", True), ("BitCol", "bitcol", False)], ids=["EBBkC+ET", "BitCol"])
@pytest.mark.parametrize("name,k", _cases())
def test_exp9(benchmark, spark, cached_edges, name, k, label, algo, et):
    opts = {"et_t": policy_t(name, k)} if et else {}
    count = benchmark.pedantic(
        lambda: count_kcliques(
            spark, cached_edges[name], k, algo, scheme="ep", n_tasks=16,
            closed_form=False, **opts
        ),
        rounds=1,
        iterations=1,
    )
    assert count >= 1
