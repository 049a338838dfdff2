"""Weighted adjacency graphs with contraction (paper figure 6b).

NSU3D feeds the adjacency graph of each grid level to METIS.  Where
implicit line solvers are in use, the mesh's line structures must never be
split across partitions, so the graph is first *contracted along the
lines*: each line collapses to a single vertex whose weight is the sum of
its members' weights, and parallel edges merge with summed weights.  The
contracted weighted graph is what gets partitioned; the fine partition is
recovered by projection.

:class:`Graph` is the CSR structure shared by the partitioner, the
agglomeration multigrid coarsener and the mesh modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.arrays import csr_from_edges


@dataclass
class Graph:
    """Undirected weighted graph in CSR form.

    ``adjwgt`` aligns with ``adjncy``; both directions of an edge carry
    the same weight.  ``vwgt`` is the vertex (work) weight used for
    balance constraints.
    """

    nvert: int
    xadj: np.ndarray
    adjncy: np.ndarray
    vwgt: np.ndarray
    adjwgt: np.ndarray

    # -- construction -----------------------------------------------------------

    @staticmethod
    def from_edges(
        nvert: int,
        edges: np.ndarray,
        vwgt: np.ndarray | None = None,
        ewgt: np.ndarray | None = None,
    ) -> "Graph":
        edges = np.asarray(edges, dtype=np.int64)
        if len(edges):
            same = edges[:, 0] == edges[:, 1]
            if same.any():
                raise ValueError("self-loops are not allowed")
        xadj, adjncy, eind = csr_from_edges(nvert, edges)
        if ewgt is None:
            adjwgt = np.ones(len(adjncy), dtype=np.float64)
        else:
            ewgt = np.asarray(ewgt, dtype=np.float64)
            if len(ewgt) != len(edges):
                raise ValueError("ewgt must have one entry per edge")
            adjwgt = ewgt[eind]
        if vwgt is None:
            vwgt = np.ones(nvert, dtype=np.float64)
        else:
            vwgt = np.asarray(vwgt, dtype=np.float64)
            if len(vwgt) != nvert:
                raise ValueError("vwgt must have one entry per vertex")
        return Graph(nvert, xadj, adjncy, vwgt.copy(), adjwgt)

    # -- queries ---------------------------------------------------------------

    @property
    def nedges(self) -> int:
        """Undirected edge count."""
        return len(self.adjncy) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def total_edge_weight(self) -> float:
        return float(self.adjwgt.sum()) / 2.0

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once: (edges (E,2), weights (E,))."""
        src = np.repeat(np.arange(self.nvert), np.diff(self.xadj))
        mask = src < self.adjncy
        return (
            np.column_stack([src[mask], self.adjncy[mask]]),
            self.adjwgt[mask],
        )

    # -- contraction -------------------------------------------------------------

    def contract(self, cluster: np.ndarray, ncluster: int | None = None) -> "Graph":
        """Merge vertices sharing a cluster id.

        Cluster vertex weights are the sums of member weights; parallel
        edges merge with summed weights; intra-cluster edges vanish.
        """
        cluster = np.asarray(cluster, dtype=np.int64)
        if len(cluster) != self.nvert:
            raise ValueError("cluster must label every vertex")
        if ncluster is None:
            ncluster = int(cluster.max()) + 1 if self.nvert else 0
        if cluster.size and (cluster.min() < 0 or cluster.max() >= ncluster):
            raise ValueError("cluster ids out of range")

        vwgt = np.bincount(cluster, weights=self.vwgt, minlength=ncluster)

        edges, wgts = self.edge_list()
        cu = cluster[edges[:, 0]]
        cv = cluster[edges[:, 1]]
        keep = cu != cv
        cu, cv, wgts = cu[keep], cv[keep], wgts[keep]
        lo = np.minimum(cu, cv)
        hi = np.maximum(cu, cv)
        key = lo * ncluster + hi
        order = np.argsort(key)
        key, lo, hi, wgts = key[order], lo[order], hi[order], wgts[order]
        if len(key):
            first = np.ones(len(key), dtype=bool)
            first[1:] = key[1:] != key[:-1]
            group = np.cumsum(first) - 1
            merged_w = np.bincount(group, weights=wgts)
            merged_edges = np.column_stack([lo[first], hi[first]])
        else:
            merged_w = np.empty(0)
            merged_edges = np.empty((0, 2), dtype=np.int64)

        return Graph.from_edges(ncluster, merged_edges, vwgt=vwgt, ewgt=merged_w)

    def subgraph(self, mask: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``mask``; returns (subgraph, old ids)."""
        mask = np.asarray(mask, dtype=bool)
        old_ids = np.flatnonzero(mask)
        new_of = np.full(self.nvert, -1, dtype=np.int64)
        new_of[old_ids] = np.arange(len(old_ids))
        edges, wgts = self.edge_list()
        keep = mask[edges[:, 0]] & mask[edges[:, 1]]
        sub_edges = new_of[edges[keep]]
        sub = Graph.from_edges(
            len(old_ids), sub_edges, vwgt=self.vwgt[old_ids], ewgt=wgts[keep]
        )
        return sub, old_ids


def contract_lines(graph: Graph, lines: list) -> tuple[Graph, np.ndarray]:
    """Collapse each implicit line to a single weighted vertex (fig. 6b).

    ``lines`` is a list of integer arrays (each a line's vertex ids, which
    must be disjoint).  Vertices on no line become singleton clusters.
    Returns the contracted graph and the cluster id of every fine vertex.
    """
    cluster = np.full(graph.nvert, -1, dtype=np.int64)
    next_id = 0
    for line in lines:
        line = np.asarray(line, dtype=np.int64)
        if (cluster[line] != -1).any():
            raise ValueError("lines must be disjoint")
        cluster[line] = next_id
        next_id += 1
    singles = np.flatnonzero(cluster == -1)
    cluster[singles] = next_id + np.arange(len(singles))
    ncluster = next_id + len(singles)
    return graph.contract(cluster, ncluster), cluster


def project_partition(cluster: np.ndarray, coarse_part: np.ndarray) -> np.ndarray:
    """Map a contracted-graph partition back to fine vertices."""
    return np.asarray(coarse_part)[np.asarray(cluster)]
