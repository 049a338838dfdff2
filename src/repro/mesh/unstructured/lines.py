"""Implicit-line extraction in anisotropic mesh regions (paper fig. 5).

"Using a graph algorithm, the edges of the mesh which connect closely
coupled grid points (usually in the normal direction) in boundary layer
regions are grouped together into a set of non-intersecting lines"; the
discrete equations are then solved implicitly along these lines with a
block-tridiagonal algorithm, defeating the stiffness of extreme grid
anisotropy.  In isotropic regions the lines degenerate to single points
and the point-implicit scheme is recovered.

Coupling strength along an edge is measured as dual-face area over edge
length — the coefficient weight an implicit operator sees.  Edges are
accepted strongest-first into paths under three constraints: at most two
line edges per vertex (paths, not trees), no cycles, and a minimum
anisotropy ratio (strongest/median coupling at the vertex) so isotropic
regions stay line-free.  The medians come from one sort of every
vertex's couplings, the two middle values averaged as ``np.median``
does.

For vector processors the line solver is "inherently scalar", so NSU3D
sorts lines by length and groups them in batches of 64 of similar length
for vectorization; :func:`group_lines_by_length` reproduces that, and it
is exactly what our batched line solver consumes.
"""

from __future__ import annotations

import numpy as np

from .dual import DualMesh


def edge_coupling(dual: DualMesh) -> np.ndarray:
    """Coupling weight per edge: dual-face area / edge length."""
    areas = np.linalg.norm(dual.face_vectors, axis=1)
    lengths = dual.edge_lengths()
    return areas / np.maximum(lengths, 1e-300)


def extract_lines(
    dual: DualMesh,
    anisotropy_threshold: float = 4.0,
    min_line_length: int = 2,
) -> list:
    """Build non-intersecting implicit lines from the strongest edges.

    Returns a list of integer arrays, each the ordered vertex ids of one
    line (every line has >= ``min_line_length`` vertices).  An edge may
    join a line only where its coupling exceeds ``anisotropy_threshold``
    times the *median* coupling at both endpoints — in isotropic regions
    no edge qualifies and no line forms.
    """
    if anisotropy_threshold <= 1.0:
        raise ValueError("anisotropy_threshold must exceed 1")
    w = edge_coupling(dual)
    n = dual.npoints
    edges = dual.edges

    # median coupling per vertex: sort each vertex's couplings, then
    # average the two middle ones (one and the same for an odd count),
    # which is what np.median computes
    all_w = np.concatenate([w, w])
    all_v = np.concatenate([edges[:, 0], edges[:, 1]])
    sorted_w = all_w[np.lexsort((all_w, all_v))]
    count = np.bincount(all_v, minlength=n)
    starts = np.cumsum(count) - count
    med = np.zeros(n)
    has = count > 0
    lo = sorted_w[(starts + (count - 1) // 2)[has]]
    hi = sorted_w[(starts + count // 2)[has]]
    med[has] = (lo + hi) / 2.0

    strong = w > anisotropy_threshold * np.maximum(med[edges[:, 0]],
                                                   med[edges[:, 1]])

    # greedy strongest-first matching into degree<=2 acyclic paths
    degree = np.zeros(n, dtype=np.int64)
    path_id = -np.ones(n, dtype=np.int64)  # union-find over path fragments
    parent = np.arange(n, dtype=np.int64)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    chosen = []
    for e in sorted(np.flatnonzero(strong), key=lambda e: -w[e]):
        a, b = edges[e]
        if degree[a] >= 2 or degree[b] >= 2:
            continue
        ra, rb = find(a), find(b)
        if ra == rb:  # would close a cycle
            continue
        parent[ra] = rb
        degree[a] += 1
        degree[b] += 1
        chosen.append((int(a), int(b)))

    # walk fragments into ordered vertex lists
    adj: dict = {}
    for a, b in chosen:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    visited = set()
    lines = []
    for v in sorted(adj):
        if v in visited or len(adj[v]) != 1:
            continue  # start only from endpoints
        line = [v]
        visited.add(v)
        prev, cur = None, v
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            line.append(cur)
            visited.add(cur)
        if len(line) >= min_line_length:
            lines.append(np.array(line, dtype=np.int64))
    return lines


def line_coverage(lines: list, npoints: int) -> float:
    """Fraction of vertices belonging to some line."""
    if npoints == 0:
        return 0.0
    covered = sum(len(l) for l in lines)
    return covered / npoints


def group_lines_by_length(lines: list, group_size: int = 64) -> list:
    """Sort lines by length and batch them in groups of similar length
    (the paper's vectorization strategy, batches of 64).

    Returns a list of groups; each group is a list of lines of
    non-increasing length with at most ``group_size`` members.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    ordered = sorted(lines, key=len, reverse=True)
    return [
        ordered[i : i + group_size] for i in range(0, len(ordered), group_size)
    ]
