"""Static verifier for halo :class:`~repro.comm.exchange.ExchangePlan` sets.

The paper's exchanges (fig. 6a) work only because the preprocessing in
:func:`~repro.comm.exchange.build_halos` establishes invariants that the
runtime then assumes without checking:

* **pairwise buffer agreement** — ``ghost_slots[p][q]`` and
  ``owned_slots[q][p]`` name the same global vertices in the same
  (ascending global id) order, so packed buffers need no index metadata;
* **neighbor symmetry** — whenever ``p`` expects traffic from ``q``,
  ``q`` knows about ``p``;
* **unique ownership** — every ghost slot mirrors exactly one owned
  vertex on exactly one peer rank;
* **schedule liveness** — the receive-before-send order of the copy and
  add exchanges admits no wait-for cycle, and every posted receive is
  matched by a send.

:func:`check_plans` proves all four statically — no SimMPI run needed —
and reports violations as :class:`~repro.analysis.diagnostics.Diagnostic`
records carrying rank/peer/slot detail.  A clean ``build_halos`` output
yields an empty list; corrupting any plan field produces a targeted,
explained finding instead of a wrong answer (or a 120-second hang) at
solve time.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .diagnostics import Diagnostic


def check_plans(halos: list) -> list[Diagnostic]:
    """Run every static check over the per-rank halos from ``build_halos``.

    Returns all findings; an empty list means the plans are provably
    consistent for both exchange operations.
    """
    diags = check_ownership(halos)
    diags += check_pairwise(halos)
    diags += check_schedule([h.plan for h in halos], op="copy")
    diags += check_schedule([h.plan for h in halos], op="add")
    return diags


# -- structural checks --------------------------------------------------------


def check_ownership(halos: list) -> list[Diagnostic]:
    """Every ghost slot maps to exactly one owner that really owns it."""
    diags: list[Diagnostic] = []
    for h in halos:
        plan = h.plan
        seen: dict[int, int] = {}
        for q, slots in plan.ghost_slots.items():
            for slot in np.asarray(slots):
                slot = int(slot)
                if not h.nowned <= slot < h.nlocal:
                    diags.append(
                        Diagnostic(
                            rule="plan/ghost-slot-range",
                            severity="error",
                            message=(
                                f"ghost slot {slot} outside ghost range "
                                f"[{h.nowned}, {h.nlocal})"
                            ),
                            rank=h.rank,
                            peer=q,
                            slot=slot,
                        )
                    )
                    continue
                if slot in seen:
                    diags.append(
                        Diagnostic(
                            rule="plan/multiple-owners",
                            severity="error",
                            message=(
                                f"ghost slot {slot} claimed by both rank "
                                f"{seen[slot]} and rank {q}"
                            ),
                            rank=h.rank,
                            peer=q,
                            slot=slot,
                        )
                    )
                    continue
                seen[slot] = q
                gid = int(h.ghost_global[slot - h.nowned])
                owner = halos[q] if 0 <= q < len(halos) else None
                if owner is None or gid not in set(
                    int(g) for g in owner.owned_global
                ):
                    diags.append(
                        Diagnostic(
                            rule="plan/wrong-owner",
                            severity="error",
                            message=(
                                f"ghost slot {slot} (global vertex {gid}) "
                                f"attributed to rank {q}, which does not own it"
                            ),
                            rank=h.rank,
                            peer=q,
                            slot=slot,
                        )
                    )
        nghost_listed = len(seen)
        nghost = h.nlocal - h.nowned
        if nghost_listed != nghost:
            diags.append(
                Diagnostic(
                    rule="plan/unmapped-ghosts",
                    severity="error",
                    message=(
                        f"{nghost - nghost_listed} of {nghost} ghost slots "
                        "appear in no ghost_slots list (never updated)"
                    ),
                    rank=h.rank,
                )
            )
        for q, slots in plan.owned_slots.items():
            bad = np.asarray(slots)[np.asarray(slots) >= h.nowned]
            for slot in bad:
                diags.append(
                    Diagnostic(
                        rule="plan/owned-slot-range",
                        severity="error",
                        message=(
                            f"owned_slots entry {int(slot)} is not an owned "
                            f"slot (nowned={h.nowned})"
                        ),
                        rank=h.rank,
                        peer=q,
                        slot=int(slot),
                    )
                )
    return diags


def check_pairwise(halos: list) -> list[Diagnostic]:
    """Ghost/owner buffer lists agree in length and global-id order."""
    diags: list[Diagnostic] = []
    nranks = len(halos)
    for p in range(nranks):
        plan_p = halos[p].plan
        l2g_p = halos[p].local_to_global()
        for q, ghost in plan_p.ghost_slots.items():
            if not 0 <= q < nranks:
                diags.append(
                    Diagnostic(
                        rule="plan/bad-peer",
                        severity="error",
                        message=f"ghost_slots names nonexistent rank {q}",
                        rank=p,
                        peer=q,
                    )
                )
                continue
            mirror = halos[q].plan.owned_slots.get(p)
            if mirror is None:
                diags.append(
                    Diagnostic(
                        rule="plan/missing-mirror",
                        severity="error",
                        message=(
                            f"rank {p} expects {len(ghost)} ghosts from rank "
                            f"{q}, but rank {q} has no owned_slots[{p}]"
                        ),
                        rank=p,
                        peer=q,
                    )
                )
                continue
            if len(mirror) != len(ghost):
                diags.append(
                    Diagnostic(
                        rule="plan/length-mismatch",
                        severity="error",
                        message=(
                            f"ghost buffer holds {len(ghost)} slots but the "
                            f"owner-side mirror holds {len(mirror)}"
                        ),
                        rank=p,
                        peer=q,
                    )
                )
                continue
            ghost_gids = l2g_p[np.asarray(ghost)]
            owned_gids = halos[q].owned_global[np.asarray(mirror)]
            if not np.array_equal(ghost_gids, owned_gids):
                first = int(np.flatnonzero(ghost_gids != owned_gids)[0])
                diags.append(
                    Diagnostic(
                        rule="plan/order-mismatch",
                        severity="error",
                        message=(
                            f"buffer orderings disagree at position {first}: "
                            f"ghost side expects global vertex "
                            f"{int(ghost_gids[first])}, owner side sends "
                            f"{int(owned_gids[first])}"
                        ),
                        rank=p,
                        peer=q,
                        slot=first,
                    )
                )
            elif np.any(np.diff(ghost_gids) <= 0):
                diags.append(
                    Diagnostic(
                        rule="plan/order-not-ascending",
                        severity="warning",
                        message=(
                            "buffer global ids are not strictly ascending "
                            "(documented invariant of build_halos)"
                        ),
                        rank=p,
                        peer=q,
                    )
                )
        for q in plan_p.owned_slots:
            if 0 <= q < nranks and p not in halos[q].plan.ghost_slots:
                diags.append(
                    Diagnostic(
                        rule="plan/missing-mirror",
                        severity="error",
                        message=(
                            f"rank {p} would send "
                            f"{len(plan_p.owned_slots[q])} owner values to "
                            f"rank {q}, but rank {q} has no ghost_slots[{p}]"
                        ),
                        rank=p,
                        peer=q,
                    )
                )
    for p in range(nranks):
        for q in halos[p].plan.neighbors:
            if 0 <= q < nranks and p not in halos[q].plan.neighbors:
                diags.append(
                    Diagnostic(
                        rule="plan/asymmetric-neighbors",
                        severity="error",
                        message=(
                            f"rank {q} is a neighbor of rank {p} but not "
                            "vice versa"
                        ),
                        rank=p,
                        peer=q,
                    )
                )
    return diags


# -- schedule liveness --------------------------------------------------------

_IRECV, _ISEND, _WAIT = "irecv", "isend", "wait"


def _schedule_ops(plan, op: str) -> list[tuple[str, int]]:
    """The (operation, peer) sequence a rank executes for one exchange.

    Mirrors :meth:`~repro.comm.hybrid.HybridProcess.post` and its
    pending's ``finish`` at one partition per rank: a receive posted
    from every neighbor, one (possibly empty) send to each, then waits —
    first for the neighbors that ship rows, then for the empty ones.
    For ``add`` the ghost/owner roles are swapped.
    """
    recv_side = plan.ghost_slots if op == "copy" else plan.owned_slots
    ops = [(_IRECV, q) for q in plan.neighbors]
    ops += [(_ISEND, q) for q in plan.neighbors]
    ops += [(_WAIT, q) for q in plan.neighbors if q in recv_side]
    ops += [(_WAIT, q) for q in plan.neighbors if q not in recv_side]
    return ops


def check_schedule(plans: list, op: str = "copy") -> list[Diagnostic]:
    """Abstract-interpret one exchange round and prove it terminates.

    Sends are buffered (SimMPI standard mode, matching the paper's
    packed-buffer strategy), so the only way to hang is a wait/recv whose
    matching send never happens.  The simulator runs every rank's op
    sequence to quiescence; leftover blocked receives become deadlock
    diagnostics — including the wait-for cycle, when one exists — and
    undelivered messages become leak warnings.
    """
    if op not in ("copy", "add"):
        raise ValueError(f"op must be 'copy' or 'add', got {op!r}")
    nranks = len(plans)
    progs = {p.rank: deque(_schedule_ops(p, op)) for p in plans}
    channels: dict[tuple[int, int], int] = {}  # (src, dst) -> queued messages

    progress = True
    while progress:
        progress = False
        for rank, ops in progs.items():
            while ops:
                kind, peer = ops[0]
                if kind in (_IRECV, _ISEND):
                    if kind == _ISEND:
                        channels[rank, peer] = channels.get((rank, peer), 0) + 1
                    ops.popleft()
                    progress = True
                    continue
                # wait: consume one queued message or block
                if channels.get((peer, rank), 0) > 0:
                    channels[peer, rank] -= 1
                    ops.popleft()
                    progress = True
                    continue
                break  # blocked; try other ranks

    diags: list[Diagnostic] = []
    blocked = {rank: ops[0][1] for rank, ops in progs.items() if ops}
    cycle = _find_cycle(blocked)
    if cycle:
        chain = " -> ".join(str(r) for r in cycle + [cycle[0]])
        diags.append(
            Diagnostic(
                rule="plan/wait-cycle",
                severity="error",
                message=(
                    f"exchange_{op} schedule has a wait-for cycle: {chain}"
                ),
                rank=cycle[0],
                peer=cycle[1] if len(cycle) > 1 else cycle[0],
            )
        )
    for rank, peer in sorted(blocked.items()):
        diags.append(
            Diagnostic(
                rule="plan/schedule-deadlock",
                severity="error",
                message=(
                    f"exchange_{op} blocks: rank {rank} waits for a message "
                    f"from rank {peer} that is never sent"
                ),
                rank=rank,
                peer=peer,
            )
        )
    for (src, dst), count in sorted(channels.items()):
        if count > 0:
            diags.append(
                Diagnostic(
                    rule="plan/message-leak",
                    severity="warning",
                    message=(
                        f"exchange_{op} leaves {count} message(s) from rank "
                        f"{src} to rank {dst} unreceived"
                    ),
                    rank=src,
                    peer=dst,
                )
            )
    # sanity: a plan set over nranks must not address ranks outside it
    for p in plans:
        for q in p.neighbors:
            if not 0 <= q < max(nranks, p.rank + 1):
                diags.append(
                    Diagnostic(
                        rule="plan/bad-peer",
                        severity="error",
                        message=f"neighbor list names nonexistent rank {q}",
                        rank=p.rank,
                        peer=q,
                    )
                )
    return diags


def _find_cycle(blocked: dict) -> list:
    """First cycle in the wait-for graph ``rank -> rank it waits on``."""
    for start in blocked:
        seen: list = []
        node = start
        while node in blocked and node not in seen:
            seen.append(node)
            node = blocked[node]
        if node in seen:
            return seen[seen.index(node):]
    return []
