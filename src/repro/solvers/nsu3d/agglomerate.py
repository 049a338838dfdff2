"""Agglomeration multigrid coarsening (paper section III, figs. 2-3).

"The agglomeration multigrid approach constructs coarse grid levels by
agglomerating or grouping together neighboring fine grid control
volumes, each of which is associated with a grid point ...  This is
accomplished through the use of a graph algorithm, and the resulting
merged control volumes on the coarse level form a smaller set of larger
more complex-shaped control volumes."

The algorithm here is the classic seed-based pass: visit vertices in
order, make each unassigned vertex a seed and absorb its unassigned
neighbors; absorb leftover singletons into their most strongly coupled
neighbor cluster.  The coarse level is itself a valid finite-volume
problem because the metrics *telescope*: coarse dual-face vectors are the
oriented sums of the fine face vectors crossing between agglomerates,
coarse volumes and boundary normals are plain sums — so a constant state
has zero residual on every level by construction.
"""

from __future__ import annotations

import numpy as np

from ...kernels import get_engine
from .context import FlowContext


def agglomerate(ctx: FlowContext, seed_order: np.ndarray | None = None):
    """One agglomeration pass; returns ``agglomerate_of`` (fine -> coarse
    cluster id, dense from 0)."""
    n = ctx.npoints
    edges = ctx.edges
    # adjacency in CSR
    from ...util.arrays import csr_from_edges

    xadj, adjncy, _ = csr_from_edges(n, edges)
    cluster = np.full(n, -1, dtype=np.int64)
    order = np.arange(n) if seed_order is None else np.asarray(seed_order)
    next_id = 0
    for v in order:
        if cluster[v] != -1:
            continue
        cluster[v] = next_id
        for u in adjncy[xadj[v] : xadj[v + 1]]:
            if cluster[u] == -1:
                cluster[u] = next_id
        next_id += 1

    # absorb singleton clusters into their strongest neighbor cluster
    sizes = np.bincount(cluster, minlength=next_id)
    if (sizes == 1).any():
        coupling = np.linalg.norm(ctx.face_vectors, axis=1)
        for v in np.flatnonzero(sizes[cluster] == 1):
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            if len(nbrs) == 0:
                continue
            others = nbrs[cluster[nbrs] != cluster[v]]
            if len(others) == 0:
                continue
            # strongest coupled neighbor
            best = others[0]
            cluster[v] = cluster[best]
        # re-densify ids
        uniq, cluster = np.unique(cluster, return_inverse=True)
    return cluster.astype(np.int64)


def coarsen_context(ctx: FlowContext, cluster: np.ndarray) -> FlowContext:
    """Build the agglomerated coarse-level context (telescoping metrics)."""
    ncoarse = int(cluster.max()) + 1
    vol = np.bincount(cluster, weights=ctx.volumes, minlength=ncoarse)
    pts = np.zeros((ncoarse, 3), dtype=np.float64)
    for d in range(3):
        pts[:, d] = np.bincount(
            cluster, weights=ctx.volumes * ctx.points[:, d], minlength=ncoarse
        ) / vol
    dist = np.bincount(
        cluster, weights=ctx.volumes * ctx.dist, minlength=ncoarse
    ) / vol

    # contract edges, orienting fine face vectors onto coarse edges
    ca = cluster[ctx.edges[:, 0]]
    cb = cluster[ctx.edges[:, 1]]
    keep = ca != cb
    ca, cb = ca[keep], cb[keep]
    s = ctx.face_vectors[keep].copy()
    flip = ca > cb
    s[flip] *= -1.0
    lo = np.minimum(ca, cb)
    hi = np.maximum(ca, cb)
    key = lo * ncoarse + hi
    uniq, inv = np.unique(key, return_inverse=True)
    face_vectors = np.zeros((len(uniq), 3), dtype=np.float64)
    get_engine().scatter_add(face_vectors, inv, s)
    edges = np.column_stack([uniq // ncoarse, uniq % ncoarse])

    def agg_boundary(verts, normals):
        if len(verts) == 0:
            return np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.float64)
        cv = cluster[verts]
        u, inv2 = np.unique(cv, return_inverse=True)
        agg = np.zeros((len(u), 3), dtype=np.float64)
        get_engine().scatter_add(agg, inv2, normals)
        return u, agg

    wall_v, wall_n = agg_boundary(ctx.wall_vert, ctx.wall_normal)
    far_v, far_n = agg_boundary(ctx.far_vert, ctx.far_normal)
    sym_v, sym_n = agg_boundary(ctx.sym_vert, ctx.sym_normal)

    return FlowContext(
        points=pts,
        edges=edges,
        face_vectors=face_vectors,
        volumes=vol,
        dist=dist,
        mu_lam=ctx.mu_lam,
        wall_vert=wall_v,
        wall_normal=wall_n,
        far_vert=far_v,
        far_normal=far_n,
        sym_vert=sym_v,
        sym_normal=sym_n,
        lines=[],
        dual=None,
    )


def build_hierarchy(
    fine: FlowContext, nlevels: int, min_points: int = 8
) -> tuple[list, list]:
    """Recursive agglomeration: ([contexts fine->coarse], [cluster maps]).

    Stops early when a level would drop below ``min_points`` vertices or
    agglomeration stalls.
    """
    if nlevels < 1:
        raise ValueError("nlevels must be >= 1")
    contexts = [fine]
    maps = []
    for _ in range(nlevels - 1):
        ctx = contexts[-1]
        cluster = agglomerate(ctx)
        ncoarse = int(cluster.max()) + 1
        if ncoarse >= ctx.npoints or ncoarse < min_points:
            break
        contexts.append(coarsen_context(ctx, cluster))
        maps.append(cluster)
    return contexts, maps
