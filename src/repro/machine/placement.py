"""Placement of an MPI x OpenMP job onto Columbia boxes.

A placement fixes: how many CPUs, how many OpenMP threads per MPI rank
(1 = pure MPI), which boxes host how many CPUs, and which box-to-box
fabric joins them.  From it the performance model derives everything
communication-related: which rank pairs share a box, how many boxes the
job spans, whether the InfiniBand connection limit (eq. 1) is honored —
and, if it is not, the silent fallback to 10GigE that the paper warns
about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .interconnect import INFINIBAND, NUMALINK4, TENGIGE, FabricModel
from .limits import infiniband_feasible
from .topology import CPUS_PER_BRICK, CPUS_PER_NODE, AltixNode, vortex_subcluster


def even_spread(ncpus: int, nboxes: int) -> tuple[int, ...]:
    """Distribute ``ncpus`` as evenly as possible over ``nboxes`` boxes."""
    if nboxes < 1:
        raise ValueError("nboxes must be >= 1")
    base, extra = divmod(ncpus, nboxes)
    return tuple(base + (1 if i < extra else 0) for i in range(nboxes))


@dataclass(frozen=True)
class JobPlacement:
    """An MPI/OpenMP job laid out on specific boxes.

    Attributes
    ----------
    cpus_per_box:
        CPUs used in each participating box (order matters; ranks are
        assigned box-major).
    omp_threads:
        OpenMP threads per MPI rank; each rank's threads always live in
        one box (threads share memory).
    fabric:
        Requested box-to-box fabric.
    nodes:
        The physical boxes; defaults to the Vortex set c17-c20.
    """

    cpus_per_box: tuple[int, ...]
    omp_threads: int = 1
    fabric: FabricModel = NUMALINK4
    nodes: tuple[AltixNode, ...] = field(
        default_factory=lambda: vortex_subcluster().nodes
    )

    def __post_init__(self):
        if self.omp_threads < 1:
            raise ValueError("omp_threads must be >= 1")
        if len(self.cpus_per_box) > len(self.nodes):
            raise ValueError(
                f"placement spans {len(self.cpus_per_box)} boxes but only "
                f"{len(self.nodes)} are available"
            )
        for count in self.cpus_per_box:
            if count < 0 or count > CPUS_PER_NODE:
                raise ValueError(f"invalid per-box CPU count {count}")
            if count % self.omp_threads:
                raise ValueError(
                    f"per-box CPU count {count} not divisible by "
                    f"{self.omp_threads} OpenMP threads"
                )
        if self.ncpus == 0:
            raise ValueError("placement uses no CPUs")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def pack(
        ncpus: int,
        omp_threads: int = 1,
        fabric: FabricModel = NUMALINK4,
        nboxes: int | None = None,
    ) -> "JobPlacement":
        """Lay out ``ncpus`` CPUs, filling boxes in order.

        With ``nboxes`` given, spread evenly over exactly that many boxes
        (the paper's 128-CPU study runs 128 CPUs as 1x128, 2x64, 4x32).
        Jobs larger than the four Vortex boxes draw nodes from the full
        supercluster (the section-VI 4016-CPU projections).
        """
        if ncpus % omp_threads:
            raise ValueError("ncpus must be divisible by omp_threads")
        if nboxes is None:
            counts = []
            remaining = ncpus
            per_box_cap = CPUS_PER_NODE - CPUS_PER_NODE % omp_threads
            while remaining > 0:
                take = min(remaining, per_box_cap)
                counts.append(take)
                remaining -= take
        else:
            # spread whole ranks (omp_threads CPUs each) over the boxes
            counts = [
                r * omp_threads
                for r in even_spread(ncpus // omp_threads, nboxes)
            ]
        kwargs = {}
        if len(counts) > 4:
            from .topology import Columbia

            kwargs["nodes"] = Columbia.build().nodes[12:]  # the BX2 boxes
        return JobPlacement(
            cpus_per_box=tuple(counts), omp_threads=omp_threads,
            fabric=fabric, **kwargs,
        )

    # -- derived quantities --------------------------------------------------

    @property
    def ncpus(self) -> int:
        return sum(self.cpus_per_box)

    @property
    def nranks(self) -> int:
        return self.ncpus // self.omp_threads

    @property
    def nboxes(self) -> int:
        return sum(1 for c in self.cpus_per_box if c > 0)

    def ranks_per_box(self) -> tuple[int, ...]:
        return tuple(c // self.omp_threads for c in self.cpus_per_box)

    def box_of_rank(self) -> np.ndarray:
        """Box index for every rank (ranks are numbered box-major)."""
        out = np.empty(self.nranks, dtype=np.int64)
        start = 0
        for box, count in enumerate(self.ranks_per_box()):
            out[start : start + count] = box
            start += count
        return out

    def same_box(self, rank_a: int, rank_b: int) -> bool:
        boxes = self.box_of_rank()
        return bool(boxes[rank_a] == boxes[rank_b])

    def spans_bricks(self) -> bool:
        """Whether any box's CPU allocation exceeds one 128-CPU cabinet.

        OpenMP global-address traffic beyond a cabinet pays the
        coarse-mode penalty (fig. 20b's slope break at 128 CPUs).
        """
        return any(c > CPUS_PER_BRICK for c in self.cpus_per_box)

    # -- fabric feasibility ----------------------------------------------------

    def effective_fabric(self) -> FabricModel:
        """The fabric traffic actually rides on.

        InfiniBand jobs that exceed the eq. (1) connection limit drop to
        10GigE, exactly as the paper describes ("the system will give a
        warning message, and then drop down to the 10Gig-E network").
        """
        if self.nboxes <= 1:
            return self.fabric
        if self.fabric.name == INFINIBAND.name and not infiniband_feasible(
            self.nranks, self.nboxes
        ):
            return TENGIGE
        return self.fabric

    def validate(self) -> None:
        """Raise if the placement is physically impossible (as opposed to
        merely slow): NUMAlink reach, box capacity."""
        if self.nboxes > self.fabric.max_span_boxes:
            raise ValueError(
                f"{self.fabric.name} joins at most {self.fabric.max_span_boxes} "
                f"boxes; placement spans {self.nboxes}"
            )
