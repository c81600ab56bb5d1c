"""Experiment 7 (Fig. 10): parallel schemes over the Spark engine —
EBBkC+ET (edge units) vs VBBkC+ET (EP/NP units), varying task counts."""
import pytest

from repro.core.engine import count_kcliques
from repro.experiments import graph_info, policy_t
from repro.graph.loader import to_spark

DATASET, K = "cn", 12

SCHEMES = [
    ("EBBkC+ET", "ebbkc-h", "ep"),
    ("VBBkC+ET-EP", "ddegcol", "ep"),
    ("VBBkC+ET-NP", "ddegcol", "np"),
]


@pytest.fixture(scope="module")
def edges(spark):
    df = to_spark(spark, graph_info(DATASET)["g"]).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.mark.parametrize("n_tasks", [1, 4, 16])
@pytest.mark.parametrize("label,algo,scheme", SCHEMES, ids=[s[0] for s in SCHEMES])
def test_exp7(benchmark, spark, edges, label, algo, scheme, n_tasks):
    count = benchmark.pedantic(
        lambda: count_kcliques(
            spark, edges, K, algo, scheme=scheme, n_tasks=n_tasks,
            et_t=policy_t(DATASET, K), closed_form=False,
        ),
        rounds=1,
        iterations=1,
    )
    assert count > 0
