"""Unified kernel-engine selection (PR 9).

One frozen :class:`KernelConfig` names the implementation of the hot
numerical kernels — the 6x6 block assembly/solves, the batched
line-tridiagonal (Thomas) sweeps, the scatter-accumulations and the RK
stage updates — exactly the way :class:`~repro.runtime.config.
RuntimeConfig` names the execution backend:

* ``"numpy"`` — the reference engine: today's code, extracted verbatim
  and kept bit-compatible.  Every result in the repo reproduces on it.
* ``"batched"`` — loop-free rewrites of the same kernels: stacked
  block-Jacobian assembly, ``bincount``-based scatter accumulation,
  Thomas sweeps fused across line groups of similar length (the paper's
  "sets of 64 lines" strategy, section III), and prefactored
  point-implicit diagonals.  Results agree with ``"numpy"`` to the
  1e-10 parity window pinned by ``tests/test_kernel_engines.py``.

``KernelConfig(engine=...)`` is the only spelling: the serial solver
factories take it as ``kernel_config=``, and a decomposed solve runs
the engine of the serial solver it decomposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

#: The blessed engine names, in documentation order.
ENGINES = ("numpy", "batched")

#: Default line-fusion batch width (the paper's "sets of 64 lines").
DEFAULT_BLOCK_SIZE = 64


@dataclass(frozen=True)
class KernelConfig:
    """How the hot kernels execute — engine plus its tuning knobs, in
    one immutable (and picklable) value.

    ``block_size`` is the line-fusion batch width: the batched engine
    concatenates sorted line groups into fused Thomas slabs of at least
    this many lines (padding short lines within a slab), bounding
    per-group dispatch overhead the way the paper batches "sets of 64
    lines of similar length".  The reference ``"numpy"`` engine takes
    no tuning knobs at all.
    """

    engine: str = "numpy"
    block_size: int | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown kernel engine {self.engine!r}; choose one of "
                f"{ENGINES}"
            )
        if self.block_size is not None:
            if self.engine == "numpy":
                raise ConfigurationError(
                    "block_size tunes the batched line fusion; the "
                    "reference 'numpy' engine takes no tuning knobs"
                )
            if self.block_size < 1:
                raise ConfigurationError("block_size must be >= 1")

    @property
    def resolved_block_size(self) -> int:
        """The effective line-fusion width (default 64)."""
        return (
            self.block_size if self.block_size is not None
            else DEFAULT_BLOCK_SIZE
        )

