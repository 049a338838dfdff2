"""Prebuilt scatter operators: compiled sparse products for fixed index sets.

Every edge pass in both solvers ends the same way — per-edge
contributions are accumulated at fixed target rows, ``+f`` at one end
point and ``-f`` at the other.  The targets are mesh constants, so the
index work ``np.add.at`` redoes on every call (bounds checks, one
buffered inner loop per row) can be done once: a
:class:`ScatterOperator` is the weighted incidence matrix of the pass,
and applying it is a compiled sparse product that accumulates straight
into the output.

The matrix is stored one *term* at a time — a term is one index array
with one scalar weight, ``out[idx] += weight * contrib`` — as the CSR
structure of that index array alone (row pointer plus, per row, the
positions that land on it, in ascending order; int32).  Weights are
scalars, not per-entry arrays, so a level pays 4 bytes per edge end and
nothing else, and the signed incidence, its unsigned twin and the
one-sided operators of an edge list all share the same two structures.

Terms are applied in the order they were listed, and within a term a
row adds its entries by ascending position: exactly the order
sequential ``np.add.at`` calls visit them in.  With exact weights
(±1, ±1/2) an operator therefore performs the same floating-point
additions in the same order as the scatter calls it replaces — the
result is bit-identical, not merely close.

Operators are plain objects owned by whatever owns the index arrays
(a level context, a transfer map); nothing here keeps a registry, so
they are released with their owner.  ``engine.scatter_add(out, op,
contrib)`` is the way to apply one — the engine routes an operator to
:meth:`ScatterOperator.add_to`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs


class Term(NamedTuple):
    """``out[idx] += weight * contrib`` for one index array, as CSR."""

    indptr: np.ndarray  # (nrows + 1,) int32
    indices: np.ndarray  # (ncols,) int32: positions, grouped by target row
    weight: float


class ScatterOperator:
    """``out[idx_t] += weight_t * contrib`` over fixed terms ``t``.

    ``ncols`` contributions go in, ``nrows`` accumulator rows come out.
    Build one with :func:`incidence`.
    """

    def __init__(self, nrows: int, ncols: int, terms: tuple[Term, ...]):
        self.nrows = nrows
        self.ncols = ncols
        self.terms = terms
        # the compiled product wants a value per entry: hand it each
        # weight as a zero-stride view of one float, which costs nothing
        self._weights = [
            np.broadcast_to(np.float64(t.weight), (ncols,)) for t in terms
        ]

    def __reduce__(self) -> tuple:
        # rebuilt through __init__, so the weight views never pickle
        # (they would materialize as full arrays)
        return ScatterOperator, (self.nrows, self.ncols, self.terms)

    @property
    def nbytes(self) -> int:
        return sum(t.indptr.nbytes + t.indices.nbytes for t in self.terms)

    def reweighted(self, *weights: float | None) -> "ScatterOperator":
        """The same index structures (shared, not copied) under other
        weights, one per term; ``None`` drops a term.  The signed
        incidence ``(a, +1), (b, -1)`` of an edge list gives its
        unsigned twin as ``reweighted(1.0, 1.0)`` and the one-sided
        operator of its first end as ``reweighted(1.0, None)``."""
        if len(weights) != len(self.terms):
            raise ValueError("one weight (or None) per term")
        return ScatterOperator(self.nrows, self.ncols, tuple(
            Term(t.indptr, t.indices, float(w))
            for t, w in zip(self.terms, weights) if w is not None
        ))

    def add_to(self, out: np.ndarray, contrib: np.ndarray | float) -> None:
        """Accumulate ``contrib`` — ``(ncols,) + out.shape[1:]``, or
        anything broadcastable to it — into ``out`` in place."""
        if out.shape[0] != self.nrows:
            raise ValueError(
                f"operator scatters into {self.nrows} rows, "
                f"out has {out.shape[0]}"
            )
        shape = (self.ncols,) + out.shape[1:]
        x = np.asarray(contrib, dtype=np.float64)
        if x.shape != shape:
            x = np.broadcast_to(x, shape)
        x = np.ascontiguousarray(x).reshape(-1)
        direct = (
            out.dtype == np.float64
            and out.flags.c_contiguous
            and out.flags.writeable
        )
        # the compiled product writes through a flat view; anything it
        # would have to copy first accumulates in a temporary instead
        acc = out if direct else np.zeros(out.shape, dtype=np.float64)
        flat = acc.reshape(-1)
        width = x.size // self.ncols if self.ncols else 0
        for (indptr, indices, _), weights in zip(self.terms, self._weights):
            if width == 1:
                csr_matvec(self.nrows, self.ncols, indptr, indices,
                           weights, x, flat)
            elif width:
                csr_matvecs(self.nrows, self.ncols, width, indptr, indices,
                            weights, x, flat)
        if not direct:
            out += acc


def incidence(
    nrows: int, *terms: tuple[np.ndarray, float]
) -> ScatterOperator:
    """Operator for ``out[idx] += weight * contrib`` over every
    ``(idx, weight)`` term, in that order.

    All index arrays share one length (the number of contributions):
    ``incidence(n, (a, 1.0), (b, -1.0))`` is the signed edge-to-vertex
    incidence of an edge list, ``incidence(n, (cluster, 1.0))`` a
    restriction by cluster.  Repeated indices accumulate.
    """
    ncols = len(terms[0][0])
    built = []
    for idx, weight in terms:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.shape != (ncols,):
            raise ValueError("every term must index the same contributions")
        if ncols and (idx.min() < 0 or idx.max() >= nrows):
            raise IndexError(f"scatter target out of range for {nrows} rows")
        indptr = np.zeros(nrows + 1, dtype=np.int32)
        np.cumsum(np.bincount(idx, minlength=nrows), out=indptr[1:])
        # stable: a row adds its entries by ascending position — the
        # order np.add.at visits them in
        indices = np.argsort(idx, kind="stable").astype(np.int32)
        built.append(Term(indptr, indices, float(weight)))
    return ScatterOperator(nrows, ncols, tuple(built))
