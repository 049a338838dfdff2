"""Trace-based deadlock, mismatch, and race detection for SimMPI runs.

Run a program under ``SimMPI(nranks, trace=True)`` and hand the recorded
event log to :func:`check_trace`.  The analysis derives per-event vector
clocks — program order within a rank, matched send->recv edges across
ranks, and a full join at every collective — and uses the happens-before
relation to explain failures the runtime reports only as a one-line
:class:`~repro.errors.DeadlockError` (or not at all):

* **deadlock** — a posted receive that never completed, reported with
  the stuck rank, the awaited peer, and the tag;
* **tag mismatch** — an unmatched send to the stuck rank whose tag
  differs from the one awaited (the classic ``exchange_copy`` vs
  ``exchange_add`` tag confusion);
* **unreceived messages** — sends no receive ever consumed;
* **divergent collectives** — ranks entering round ``k`` with different
  operations (``barrier`` vs ``allreduce:sum``), or not at all, which
  the shared collective context would otherwise scramble silently;
* **data races** — conflicting accesses to a traced shared buffer (see
  :meth:`~repro.comm.simmpi.Comm.trace_access`) that are unordered by
  happens-before, including the conceptually thread-parallel hybrid
  pack/copy/unpack phases of fig. 7b where two "threads" of one rank
  touch overlapping slots in the same phase.
"""

from __future__ import annotations

from collections import defaultdict

from .diagnostics import Diagnostic


def check_world(world) -> list[Diagnostic]:
    """Analyze a traced :class:`~repro.comm.simmpi.SimMPI` world."""
    if not world.trace_enabled:
        raise ValueError("world was not run with trace=True; nothing to analyze")
    return check_trace(world.trace, world.nranks)


def check_trace(events: list, nranks: int) -> list[Diagnostic]:
    """All trace findings: deadlocks, mismatches, divergence, races."""
    events = sorted(events, key=lambda e: e.eid)
    diags = check_matching(events, nranks)
    diags += check_collectives(events, nranks)
    diags += check_races(events, nranks)
    return diags


# -- vector clocks ------------------------------------------------------------


def vector_clocks(events: list, nranks: int) -> dict:
    """Per-event vector clocks, keyed by event eid.

    Events are processed in recording (eid) order, which is a valid
    linearization: a matched send always precedes its receive, and all
    entries of collective round ``k`` precede any participant's next
    event.  Collective rounds join the clocks of every participant; an
    incomplete round (a rank never arrived) leaves its entrants with
    their entry clocks, which is exactly right for hang analysis.
    """
    clocks: dict = {}
    vc = [[0] * nranks for _ in range(nranks)]
    coll_count = [0] * nranks
    pending: dict = defaultdict(list)  # round -> [(rank, eid), ...]
    for e in events:
        r = e.rank
        vc[r][r] += 1
        if e.op == "recv" and e.matched is not None and e.matched in clocks:
            vc[r] = [max(a, b) for a, b in zip(vc[r], clocks[e.matched])]
        clocks[e.eid] = tuple(vc[r])
        if e.op == "collective":
            k = coll_count[r]
            coll_count[r] += 1
            pending[k].append((r, e.eid))
            if len(pending[k]) == nranks:
                joined = tuple(
                    max(vals)
                    for vals in zip(*(clocks[eid] for _, eid in pending[k]))
                )
                for pr, eid in pending[k]:
                    clocks[eid] = joined
                    vc[pr] = list(joined)
    return clocks


def happens_before(clocks: dict, a: int, b: int) -> bool:
    """True when event ``a`` happens-before event ``b``."""
    ca, cb = clocks[a], clocks[b]
    return ca != cb and all(x <= y for x, y in zip(ca, cb))


def concurrent(clocks: dict, a: int, b: int) -> bool:
    return not happens_before(clocks, a, b) and not happens_before(clocks, b, a)


# -- point-to-point matching --------------------------------------------------


def check_matching(events: list, nranks: int) -> list[Diagnostic]:
    """Unmatched receives (deadlock), tag mismatches, unreceived sends."""
    diags: list[Diagnostic] = []
    posts = defaultdict(int)  # (rank, peer, tag) -> outstanding recv posts
    consumed = set()  # eids of sends some recv matched
    sends = []  # send events in order
    for e in events:
        if e.op == "recv_post":
            posts[e.rank, e.peer, e.tag] += 1
        elif e.op == "recv":
            posts[e.rank, e.peer, e.tag] -= 1
            if e.matched is not None:
                consumed.add(e.matched)
        elif e.op == "send":
            sends.append(e)

    unreceived = [s for s in sends if s.eid not in consumed]
    for (rank, peer, tag), outstanding in sorted(posts.items()):
        for _ in range(outstanding):
            diags.append(
                Diagnostic(
                    rule="trace/deadlock",
                    severity="error",
                    message=(
                        f"rank {rank} is stuck waiting for a message from "
                        f"rank {peer} with tag {tag}; no matching send was "
                        "ever issued"
                    ),
                    rank=rank,
                    peer=peer,
                )
            )
        for s in unreceived:
            if s.rank == peer and s.peer == rank and s.tag != tag:
                diags.append(
                    Diagnostic(
                        rule="trace/tag-mismatch",
                        severity="error",
                        message=(
                            f"tag mismatch: rank {peer} sent tag {s.tag} to "
                            f"rank {rank}, which is waiting on tag {tag}"
                        ),
                        rank=rank,
                        peer=peer,
                    )
                )
    for s in unreceived:
        diags.append(
            Diagnostic(
                rule="trace/unreceived-message",
                severity="warning",
                message=(
                    f"send from rank {s.rank} to rank {s.peer} (tag {s.tag}, "
                    f"{s.nbytes:.0f} bytes) was never received"
                ),
                rank=s.rank,
                peer=s.peer,
            )
        )
    return diags


# -- collectives --------------------------------------------------------------


def check_collectives(events: list, nranks: int) -> list[Diagnostic]:
    """Every rank must issue the same collective sequence, in lockstep."""
    diags: list[Diagnostic] = []
    per_rank: dict = defaultdict(list)
    for e in events:
        if e.op == "collective":
            per_rank[e.rank].append(e)
    nrounds = max((len(v) for v in per_rank.values()), default=0)
    for k in range(nrounds):
        entrants = {r: per_rank[r][k] for r in per_rank if len(per_rank[r]) > k}
        kinds = {e.detail for e in entrants.values()}
        if len(kinds) > 1:
            by_kind = sorted(
                (e.detail, r) for r, e in entrants.items()
            )
            (kind_a, rank_a), (kind_b, rank_b) = by_kind[0], by_kind[-1]
            diags.append(
                Diagnostic(
                    rule="trace/collective-divergence",
                    severity="error",
                    message=(
                        f"collective round {k} diverges: rank {rank_a} "
                        f"called {kind_a} while rank {rank_b} called "
                        f"{kind_b}"
                    ),
                    rank=rank_a,
                    peer=rank_b,
                )
            )
        missing = sorted(set(range(nranks)) - set(entrants))
        if missing:
            kind = sorted(kinds)[0] if kinds else "?"
            diags.append(
                Diagnostic(
                    rule="trace/collective-incomplete",
                    severity="error",
                    message=(
                        f"collective round {k} ({kind}) never completed: "
                        f"rank(s) {missing} did not participate"
                    ),
                    rank=missing[0],
                )
            )
    return diags


# -- data races ---------------------------------------------------------------


def check_races(events: list, nranks: int) -> list[Diagnostic]:
    """Conflicting, unordered accesses to traced shared buffers.

    Two accesses conflict when they touch the same buffer with
    overlapping indices and at least one writes.  They are unordered
    when they belong to different ranks with concurrent vector clocks,
    or to the same rank but different conceptual threads of the same
    phase token (the hybrid fig. 7b model: phases are thread-parallel,
    so program order between threads is an accident of the simulation).
    """
    clocks = vector_clocks(events, nranks)
    accesses = [e for e in events if e.op == "access"]
    by_buffer: dict = defaultdict(list)
    for e in accesses:
        by_buffer[e.buffer].append(e)

    diags: list[Diagnostic] = []
    reported = set()
    for buffer, evs in sorted(by_buffer.items()):
        for i, a in enumerate(evs):
            for b in evs[i + 1:]:
                if not (a.write or b.write):
                    continue
                overlap = set(a.indices) & set(b.indices)
                if not overlap:
                    continue
                if a.rank == b.rank:
                    unordered = (
                        a.phase is not None
                        and a.phase == b.phase
                        and a.thread != b.thread
                    )
                else:
                    unordered = concurrent(clocks, a.eid, b.eid)
                if not unordered:
                    continue
                key = (buffer, a.eid, b.eid)
                if key in reported:
                    continue
                reported.add(key)
                slot = min(overlap)
                kind = "write/write" if (a.write and b.write) else "read/write"
                where_a = _access_origin(a)
                where_b = _access_origin(b)
                diags.append(
                    Diagnostic(
                        rule="trace/race",
                        severity="error",
                        message=(
                            f"{kind} race on buffer {buffer!r} slot {slot} "
                            f"(and {len(overlap) - 1} more): {where_a} is "
                            f"unordered with {where_b}"
                        ),
                        rank=a.rank,
                        peer=b.rank if b.rank != a.rank else None,
                        slot=slot,
                    )
                )
    return diags


def _access_origin(e) -> str:
    out = f"rank {e.rank}"
    if e.thread is not None:
        out += f" thread {e.thread}"
    if e.phase is not None:
        out += f" ({e.phase})"
    return out + (" write" if e.write else " read")
