"""Shared low-level helpers used across the reproduction."""

from .arrays import (
    csr_from_edges,
    invert_permutation,
)
from .units import GB, GHZ, KB, MB, MICROSEC, fmt_bytes, fmt_time

__all__ = [
    "csr_from_edges",
    "invert_permutation",
    "KB",
    "MB",
    "GB",
    "GHZ",
    "MICROSEC",
    "fmt_bytes",
    "fmt_time",
]
