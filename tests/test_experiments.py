"""Experiment harnesses: row structure, sweeps, policies, rendering."""
import pytest

from repro import experiments as E


def test_graph_info_cached_fields():
    info = E.graph_info("wk")
    assert set(info) == {"g", "tau", "omega"}
    assert info["tau"] < info["omega"]


def test_policy_t_matches_paper_rule():
    tau = E.graph_info("wk")["tau"]
    assert E.policy_t("wk", max(1, tau // 2)) == 2
    assert E.policy_t("wk", tau) == 3


def test_sweep_ks_small_omega_reaches_omega():
    ks = E.sweep_ks("wk")
    assert ks[0] == 4
    assert ks[-1] == E.graph_info("wk")["omega"]


def test_sweep_ks_large_omega_shape():
    ks = E.sweep_ks("st")
    omega = E.graph_info("st")["omega"]
    assert ks[:3] == [4, 5, 6]
    assert ks[-1] == omega and omega - 4 in ks


def test_timed_local_row():
    row = E.timed_local("wk", 4, "ddegcol")
    assert row["dataset"] == "wk" and row["k"] == 4
    assert row["seconds"] > 0 and row["count"] > 0


@pytest.mark.parametrize(
    "fn,n_algos",
    [(E.exp1_rows, 5), (E.exp3_rows, 4), (E.exp4_rows, 3), (E.exp5_rows, 2)],
)
def test_experiment_rows_structure(fn, n_algos):
    rows = fn(datasets=("wk",), ks={"wk": [5]})
    assert len(rows) == n_algos
    counts = {r["count"] for r in rows}
    assert len(counts) == 1  # all algorithms agree on the clique count
    assert {r["dataset"] for r in rows} == {"wk"}


def test_exp6_rows_t_sweep():
    rows = E.exp6_rows(datasets=("wk",), ks={"wk": [6]}, ts=(1, 2))
    assert [r["algo"] for r in rows] == ["t=1", "t=2"]
    assert len({r["count"] for r in rows}) == 1


def test_table2_rows_fields():
    rows = E.table2_rows(datasets=("wk",))
    r = rows[0]
    assert r["truss_s"] > 0 and r["degen_s"] > 0
    assert r["paper_truss_s"] == 0.2


def test_exp8_rows_fields():
    rows = E.exp8_rows(datasets=("wk",))
    assert len(rows) == 4
    assert all(r["bytes"] > 0 and r["graph_bytes"] > 0 for r in rows)
    by_algo = {r["algo"]: r["bytes"] for r in rows}
    # EBBkC carries the extra edge-ordering structures (exp 8's claim).
    assert by_algo["EBBkC+ET"] >= by_algo["DDegCol"]


def test_exp7_rows_spark(spark, monkeypatch):
    """Experiment 7 times listing (the paper's times include output), so
    every count call turns the closed-form count off."""
    calls = []
    count = E.count_kcliques
    monkeypatch.setattr(E, "count_kcliques", lambda *a, **kw: calls.append(kw) or count(*a, **kw))
    rows = E.exp7_rows(spark, dataset="wk", k=6, task_counts=(2,))
    assert len(rows) == 3
    assert len({r["count"] for r in rows}) == 1
    assert len(calls) == 3 and all(kw["closed_form"] is False for kw in calls)


def test_format_rows_renders():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
    text = E.format_rows(rows)
    assert "2.500" in text and "10" in text


def test_format_rows_empty():
    assert E.format_rows([]) == "(no rows)"
