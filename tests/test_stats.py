"""Graph statistics (the Table 1 reproduction machinery)."""
from repro.graph import generators as G
from repro.graph.stats import compute_stats, format_table1, table1_rows


def test_compute_stats_complete_graph():
    s = compute_stats(G.complete_graph(7))
    assert s == {"n": 7, "m": 21, "max_deg": 6, "delta": 6, "tau": 5, "omega": 7}


def test_compute_stats_bipartite():
    s = compute_stats(G.complete_bipartite(4, 6))
    assert s["delta"] == 4 and s["tau"] == 0 and s["omega"] == 2
    assert s["max_deg"] == 6


def test_table1_rows_shape():
    rows = table1_rows(names=["wk", "st"])
    assert len(rows) == 2
    for r in rows:
        for key in ("ours_n", "ours_m", "ours_delta", "ours_tau", "ours_omega",
                    "paper_n", "paper_delta", "paper_tau", "paper_omega"):
            assert key in r
        # Lemma 4.1 holds for the substitutes too.
        assert r["ours_tau"] < r["ours_delta"]


def test_format_table1_renders():
    text = format_table1(table1_rows(names=["wk"]))
    assert "wikitrust" in text and "wk" in text
    assert len(text.splitlines()) == 3
