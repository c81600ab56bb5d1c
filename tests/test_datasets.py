"""Dataset registry: the 19 substitutes and their structural guarantees."""
import pytest

from repro.graph.datasets import (
    DATASETS,
    DEFAULT_DATASETS,
    LARGE_OMEGA,
    SCALABILITY,
    SMALL_OMEGA,
    load,
)
from repro.graph.core import core_decomposition
from repro.graph.truss import truss_decomposition


def test_registry_has_19_graphs():
    assert len(DATASETS) == 19


def test_groups_partition_registry():
    assert set(SMALL_OMEGA) | set(LARGE_OMEGA) == set(DATASETS)
    assert not set(SMALL_OMEGA) & set(LARGE_OMEGA)
    assert len(SMALL_OMEGA) == 8 and len(LARGE_OMEGA) == 11


def test_default_datasets_match_paper():
    assert DEFAULT_DATASETS == ("wk", "po", "st", "or")
    for name in DEFAULT_DATASETS:
        assert name in DATASETS


def test_scalability_graphs_are_large_omega():
    assert set(SCALABILITY) <= set(LARGE_OMEGA)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_loads_and_nonempty(name):
    g = load(name)
    assert g.n > 100 and g.m > 100


def test_load_deterministic():
    a = DATASETS["wk"].build()
    b = DATASETS["wk"].build()
    assert a.edge_list() == b.edge_list()


@pytest.mark.parametrize("name", ["wk", "po", "st", "or", "na", "we"])
def test_lemma_tau_less_than_delta_on_datasets(name):
    g = load(name)
    assert truss_decomposition(g).tau < core_decomposition(g).degeneracy


def test_paper_stats_recorded():
    for spec in DATASETS.values():
        assert spec.paper.n > 0 and spec.paper.m > 0
        assert spec.paper.tau < spec.paper.delta  # Lemma 4.1 in Table 1


def test_large_omega_have_planted_cliques():
    from repro.graph.maxclique import max_clique_size

    for name in ("we", "st"):
        assert max_clique_size(load(name)) >= 20
