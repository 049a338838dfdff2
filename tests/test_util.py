"""Tests for shared utilities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    csr_from_edges,
    fmt_bytes,
    fmt_time,
    invert_permutation,
)


class TestCsr:
    def test_triangle(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        xadj, adjncy, eind = csr_from_edges(3, edges)
        assert list(xadj) == [0, 2, 4, 6]
        assert sorted(adjncy[xadj[0] : xadj[1]]) == [1, 2]
        assert sorted(adjncy[xadj[1] : xadj[2]]) == [0, 2]

    def test_eind_maps_back_to_edges(self):
        edges = np.array([[0, 1], [1, 2]])
        xadj, adjncy, eind = csr_from_edges(3, edges)
        for v in range(3):
            for k in range(xadj[v], xadj[v + 1]):
                u = adjncy[k]
                e = edges[eind[k]]
                assert {u, v} == set(e)

    def test_asymmetric(self):
        edges = np.array([[0, 1], [0, 2]])
        xadj, adjncy, _ = csr_from_edges(3, edges, symmetric=False)
        assert xadj[1] - xadj[0] == 2
        assert xadj[3] - xadj[1] == 0

    def test_isolated_vertices(self):
        xadj, adjncy, _ = csr_from_edges(5, np.array([[0, 4]]))
        assert list(xadj) == [0, 1, 1, 1, 1, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            csr_from_edges(2, np.array([[0, 5]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            csr_from_edges(2, np.array([0, 1, 2]))

    def test_empty_edges(self):
        xadj, adjncy, _ = csr_from_edges(3, np.empty((0, 2), dtype=np.int64))
        assert list(xadj) == [0, 0, 0, 0]
        assert len(adjncy) == 0


class TestPermutation:
    @given(n=st.integers(min_value=1, max_value=200), seed=st.integers(0, 2**31))
    def test_inverse_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        inv = invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(n))
        assert np.array_equal(inv[perm], np.arange(n))


class TestFormatting:
    def test_fmt_bytes(self):
        assert fmt_bytes(9 * 1024 * 1024) == "9.0 MB"
        assert fmt_bytes(100) == "100.0 B"

    def test_fmt_time(self):
        assert fmt_time(31.3) == "31.30 s"
        assert fmt_time(1.95) == "1.95 s"
        assert fmt_time(2e-6) == "2.0 us"
        assert fmt_time(1800) == "30.0 min"
        assert fmt_time(4.5 * 3600) == "4.50 h"
