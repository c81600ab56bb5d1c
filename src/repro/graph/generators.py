"""Deterministic synthetic graph generators.

The paper evaluates on 19 real graphs from networkrepository.com. The
container is offline, so `graph/datasets.py` substitutes each with a
synthetic graph built from the generators here (substitution rationale
in DESIGN.md §4). All generators are deterministic in ``seed`` and
return a :class:`~repro.graph.loader.LocalGraph`; use
:func:`repro.graph.loader.to_spark` to lift one into a Spark edge table.
"""
from __future__ import annotations

import numpy as np

from .loader import LocalGraph


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def complete_graph(n: int) -> LocalGraph:
    """K_n — the densest case; δ = n−1, τ = n−2, ω = n."""
    return LocalGraph.from_pairs(
        (i, j) for i in range(n) for j in range(i + 1, n)
    )


def complete_bipartite(p: int, q: int) -> LocalGraph:
    """K_{p,q} — the paper's δ/τ gap example: δ = min(p,q), τ = 0, ω = 2."""
    return LocalGraph.from_pairs((i, p + j) for i in range(p) for j in range(q))


def cycle_graph(n: int) -> LocalGraph:
    """C_n — δ = 2, τ = 0 for n > 3, triangle-free for n > 3."""
    return LocalGraph.from_pairs((i, (i + 1) % n) for i in range(n))


def star_graph(n_leaves: int) -> LocalGraph:
    """A star — δ = 1, no triangles."""
    return LocalGraph.from_pairs((0, i) for i in range(1, n_leaves + 1))


def _erdos_renyi_pairs(n: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    g = _rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = g.random(len(iu)) < p
    return iu[mask], ju[mask]


def erdos_renyi(n: int, p: float, seed: int = 0) -> LocalGraph:
    """G(n, p) via a Bernoulli draw over the upper triangle (n must be small)."""
    return LocalGraph.from_arrays(*_erdos_renyi_pairs(n, p, seed))


def barabasi_albert(n: int, m_attach: int, seed: int = 0) -> LocalGraph:
    """Preferential attachment: each new vertex attaches to ``m_attach``
    distinct existing vertices, sampled ∝ degree. Produces the heavy-tail
    degree distribution and triangle-rich core typical of the paper's
    social-network datasets.
    """
    if n <= m_attach:
        raise ValueError("n must exceed m_attach")
    g = _rng(seed)
    # Repeated-node list implements the degree-proportional draw.
    targets = list(range(m_attach))
    repeated: list[int] = list(range(m_attach))
    pairs: list[tuple[int, int]] = []
    for v in range(m_attach, n):
        chosen: set[int] = set()
        while len(chosen) < m_attach:
            chosen.add(int(repeated[g.integers(0, len(repeated))]))
        for t in chosen:
            pairs.append((v, t))
            repeated.append(t)
        repeated.extend([v] * m_attach)
        targets = None  # noqa: F841  (repeated list carries the state)
    return LocalGraph.from_pairs(pairs)


def chung_lu(n: int, gamma: float = 2.5, avg_deg: float = 8.0, seed: int = 0) -> LocalGraph:
    """Chung-Lu power-law graph: expected degrees w_i ∝ i^(−1/(γ−1)),
    edge (i,j) present with prob min(1, w_i·w_j / Σw). Vectorized over
    candidate pairs sampled by weight, suitable for n ≤ ~1e5.
    """
    g = _rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (gamma - 1.0))
    w *= (avg_deg * n) / w.sum()
    total = w.sum()
    p_vertex = w / total
    m_target = int(avg_deg * n / 2)
    # Sample 3x target endpoint pairs by weight; self-loops and
    # collisions drop out in LocalGraph.
    n_try = m_target * 3
    a = g.choice(n, size=n_try, p=p_vertex)
    b = g.choice(n, size=n_try, p=p_vertex)
    return LocalGraph.from_arrays(a, b)


def _gnm_pairs(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    g = _rng(seed)
    a = g.integers(0, n, size=int(m * 1.3) + 16)
    b = g.integers(0, n, size=int(m * 1.3) + 16)
    keep = a != b
    lo, hi = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    # The first m distinct pairs, in draw order.
    first = np.sort(np.unique(lo * n + hi, return_index=True)[1])[:m]
    return lo[first], hi[first]


def gnm_random(n: int, m: int, seed: int = 0) -> LocalGraph:
    """G(n, m)-style sparse random graph: sample ~m distinct edges
    directly (no O(n²) pair materialization — used for the larger
    scalability graphs)."""
    return LocalGraph.from_arrays(*_gnm_pairs(n, m, seed))


def planted_cliques(
    n: int,
    p_background: float,
    clique_sizes: list[int],
    seed: int = 0,
) -> LocalGraph:
    """ER background + vertex-disjoint planted cliques.

    Models the paper's large-ω graphs (web/citation graphs whose ω ≈ δ):
    ω is driven by ``max(clique_sizes)`` while the background stays sparse.
    """
    g = _rng(seed)
    if n > 2500:
        # Avoid the O(n²) pair materialization for larger graphs.
        m_bg = int(p_background * n * (n - 1) / 2)
        a, b = _gnm_pairs(n, m_bg, seed)
    else:
        a, b = _erdos_renyi_pairs(n, p_background, seed)
    us, vs = [a], [b]
    perm = g.permutation(n)
    pos = 0
    for size in clique_sizes:
        members = perm[pos : pos + size]
        pos += size
        if len(members) < size:
            raise ValueError("not enough vertices for planted cliques")
        iu, ju = np.triu_indices(size, k=1)
        us.append(members[iu])
        vs.append(members[ju])
    return LocalGraph.from_arrays(np.concatenate(us), np.concatenate(vs))


def ring_of_cliques(n_cliques: int, clique_size: int, extra_p: float = 0.0, seed: int = 0) -> LocalGraph:
    """``n_cliques`` cliques of ``clique_size`` joined in a ring, plus
    optional random chords — a community-structured small-ω graph.
    """
    g = _rng(seed)
    pairs: list[tuple[int, int]] = []
    for c in range(n_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                pairs.append((base + i, base + j))
        nxt = ((c + 1) % n_cliques) * clique_size
        pairs.append((base, nxt))
    n = n_cliques * clique_size
    if extra_p > 0:
        iu, ju = np.triu_indices(n, k=1)
        mask = g.random(len(iu)) < extra_p
        pairs.extend(zip(iu[mask].tolist(), ju[mask].tolist()))
    return LocalGraph.from_pairs(pairs)


def random_t_plex(n: int, t: int, seed: int = 0) -> LocalGraph:
    """A graph on ``n`` vertices where every vertex has ≤ t non-neighbors
    (including itself): start from K_n and remove a random partial
    matching-like set of edges, ≤ t−1 removals incident to any vertex.
    """
    g = _rng(seed)
    removed_count = {v: 0 for v in range(n)}
    pairs = set((i, j) for i in range(n) for j in range(i + 1, n))
    candidates = list(pairs)
    g.shuffle(candidates)
    budget = n * (t - 1) // 2
    for (i, j) in candidates:
        if budget <= 0:
            break
        if removed_count[i] < t - 1 and removed_count[j] < t - 1:
            pairs.discard((i, j))
            removed_count[i] += 1
            removed_count[j] += 1
            budget -= 1
    lg = LocalGraph.from_pairs(pairs)
    # Keep isolated-vertex-free invariant: n small ⇒ never all edges removed.
    return lg
