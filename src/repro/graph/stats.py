"""Graph statistics — the reproduction of Table 1.

For each dataset (substitute): |V|, |E|, max degree Δ, degeneracy δ,
truss number τ and maximum clique size ω, all on the driver substrate
(the peels are sequential by nature).
"""
from __future__ import annotations

from .core import core_decomposition
from .datasets import DATASETS, load
from .loader import LocalGraph
from .maxclique import max_clique_size
from .truss import truss_decomposition


def compute_stats(g: LocalGraph) -> dict:
    """n, m, Δ, δ, τ, ω of a graph."""
    return {
        "n": g.n,
        "m": g.m,
        "max_deg": max((len(nb) for nb in g.adj.values()), default=0),
        "delta": core_decomposition(g).degeneracy,
        "tau": truss_decomposition(g).tau,
        "omega": max_clique_size(g),
    }


def table1_rows(names=None) -> list[dict]:
    """Table 1 rows: per dataset, the paper's published stats next to the
    substitute's measured stats."""
    rows = []
    for name in names or DATASETS:
        spec = DATASETS[name]
        ours = compute_stats(load(name))
        rows.append(
            {
                "name": name,
                "paper_name": spec.paper_name,
                "group": spec.group,
                **{f"ours_{k}": v for k, v in ours.items()},
                "paper_n": spec.paper.n,
                "paper_m": spec.paper.m,
                "paper_max_deg": spec.paper.max_deg,
                "paper_delta": spec.paper.delta,
                "paper_tau": spec.paper.tau,
                "paper_omega": spec.paper.omega,
            }
        )
    return rows


def format_table1(rows: list[dict]) -> str:
    """Render Table 1 (ours | paper) as fixed-width text."""
    hdr = (
        f"{'name':<6}{'paper graph':<12}{'grp':<7}"
        f"{'|V|':>8}{'|E|':>9}{'Δ':>6}{'δ':>5}{'τ':>5}{'ω':>5}"
        f"{'paper |V|':>12}{'paper |E|':>12}{'pΔ':>9}{'pδ':>6}{'pτ':>5}{'pω':>5}"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r['name']:<6}{r['paper_name']:<12}{r['group']:<7}"
            f"{r['ours_n']:>8}{r['ours_m']:>9}{r['ours_max_deg']:>6}"
            f"{r['ours_delta']:>5}{r['ours_tau']:>5}{r['ours_omega']:>5}"
            f"{r['paper_n']:>12}{r['paper_m']:>12}{r['paper_max_deg']:>9}"
            f"{r['paper_delta']:>6}{r['paper_tau']:>5}{r['paper_omega']:>5}"
        )
    return "\n".join(lines)
