"""Bulk-asynchronous parallel (BASP) execution engine (Section III-B,
Gluon-Async).

There is no global round barrier.  Each partition runs *local rounds*:
drain whatever messages have arrived by its local clock, apply the operator
to its frontier, run its master phase, and send messages — then continue
immediately.  A partition with nothing to do blocks until its next message
arrives (that gap is its wait time).

The engine is a deterministic discrete-event simulation ordered by local
clocks: the runnable partition with the smallest local time executes next.
Because partitions compute with whatever values have *arrived* (possibly
stale), redundant work appears organically — extra local rounds and extra
work items versus BSP, exactly the effect behind the paper's bfs/uk14
anecdote where Async loses (Section V-B4).  Monotone apps still converge to
the identical fixpoint, which the integration tests assert.

The stages live in :mod:`repro.engine.core`; this module is the BASP
*policy*: the event loop over local clocks, arrival-ordered drain, per-flush
pricing, and the throttle/overlap budgets.  A flush is priced as one batch
(its network legs scheduled by the router's one scheduler when contention
or two-level sync is on) and then split into light in-flight records that
carry their receiver targets, values and priced H2D leg, so the drain
neither re-prices nor re-resolves a plan.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.comm.buffers import pricing_columns
from repro.comm.gluon import CommConfig
from repro.engine.core import Engine, RoundCore
from repro.engine.operator import RunContext, VertexProgram
from repro.engine.result import RunResult
from repro.errors import ConfigurationError, ConvergenceError
from repro.hw.cluster import Cluster
from repro.hw.memory import MemoryProfile, DIRGL_PROFILE
from repro.loadbalance.base import LoadBalancer
from repro.partition.base import PartitionedGraph

__all__ = ["BASPEngine", "POLL_INTERVAL_S"]

#: Simulated seconds every local round costs before any work.  Gluon-Async
#: polls for messages once per local round, and every round launches the
#: full kernel pipeline (worklist compaction, per-field extraction/apply,
#: bitset maintenance) whether or not much work exists.  This pacing is
#: what batches message arrivals into rounds on real hardware — an idle
#: partition that blocks on a receive picks up everything arriving within
#: roughly one round's pacing rather than waking per message — and keeps
#: the local-round count within a small multiple of BSP's.  It is also
#: what makes a message emitted at time ``t`` arrive strictly after ``t``.
POLL_INTERVAL_S = 1e-3


class BASPEngine(Engine):
    """Runs one vertex program bulk-asynchronously."""

    execution_model = "basp"

    def __init__(
        self,
        pg: PartitionedGraph,
        cluster: Cluster,
        app: VertexProgram,
        comm_config: CommConfig = CommConfig(),
        balancer: LoadBalancer | str = "alb",
        scale_factor: float = 1.0,
        memory_profile: MemoryProfile = DIRGL_PROFILE,
        check_memory: bool = True,
        throttle_wait: float = 0.0,
        overlap_comm: float = 0.0,
        fault_plan=None,
        executor: str = "serial",
        check=None,
    ):
        """``throttle_wait`` implements the paper's proposed *dynamic
        throttling* of asynchronous execution (Section VII): before each
        local round a partition lingers this many (simulated) seconds so
        more partner messages arrive, trading blocked time for less
        redundant computation from stale reads.  ``0`` (the default) is
        unthrottled BASP as shipped in D-IrGL.

        ``executor`` is accepted because ``Framework.run`` builds both
        engines from one argument list; a BASP event is one partition's
        local round, so there is nothing to dispatch and both values run
        the same loop.

        ``overlap_comm`` in [0, 1] mirrors BSP's async-copy hiding for
        local rounds: within one local round, the drained H2D legs and the
        outgoing extraction+D2H legs share a single hiding budget equal to
        that round's compute time (recv hides first — it precedes the
        sends on the local clock — then sends split the remainder)."""
        if not app.async_capable:
            raise ConfigurationError(
                f"{app.name} cannot run bulk-asynchronously"
            )
        if throttle_wait < 0:
            raise ConfigurationError("throttle_wait must be non-negative")
        super().__init__(
            pg, cluster, app, comm_config, balancer, scale_factor,
            memory_profile, check_memory, overlap_comm, fault_plan, executor,
            check,
        )
        self.throttle_wait = float(throttle_wait)

    # ------------------------------------------------------------------ #
    def run(self, ctx: RunContext) -> RunResult:
        core = RoundCore(self, ctx)
        app, cost, tracer, stats = core.app, core.cost, core.tracer, core.stats
        P, plan, topology, netmode = core.P, core.plan, core.topology, core.netmode
        gated = not core.comm.config.update_only  # AS: send only dirty fields
        # per-partition buffers of activated IDs awaiting the next local round
        pending = [[f] if len(f) else [] for f in core.frontier]

        # per-partition clocks and counters; the three the event loop reads
        # one element at a time are plain lists (no numpy scalar boxing)
        local_time = [0.0] * P
        local_rounds = [0] * P
        residual = [np.inf] * P  # last master residual per partition
        compute_t = np.zeros(P)
        wait_t = np.zeros(P)
        device_t = np.zeros(P)

        # inbox[q] = heap of in-flight records (arrival, seq, (field,
        # phase), targets, values, h2d); seq is unique, so a comparison
        # never reaches the arrays
        inbox: list[list] = [[] for _ in range(P)]
        seq = in_flight = rounds_total = 0
        max_local_rounds = ctx.max_rounds * max(P, 1) * 4

        def runnable(p: int) -> bool:
            if pending[p]:
                return True
            if inbox[p] and inbox[p][0][0] <= local_time[p]:
                return True
            return topology and not residual[p] < ctx.tolerance

        # ``ready[p]`` caches ``runnable(p)``.  It can only change where
        # its inputs do: on the partition that just ran or an idle jump
        # moved (re-probed), and on a receiver of a flush, which becomes
        # runnable exactly when the new arrival is not after its clock —
        # so the loop does not probe every partition every event.
        ready = [runnable(p) for p in range(P)]
        comm, router = core.comm, cost.router
        while True:
            cand = [p for p in range(P) if ready[p]]
            if not cand:
                if in_flight == 0:
                    break  # global quiescence
                # everyone idle: jump the earliest receiver to its arrival,
                # plus one poll interval so co-arriving partner messages
                # batch into a single local round
                nxt, q = min(
                    (inbox[p][0][0], p) for p in range(P) if inbox[p]
                )
                nxt += POLL_INTERVAL_S
                wait_t[q] += max(nxt - local_time[q], 0.0)
                local_time[q] = max(local_time[q], nxt)
                ready[q] = runnable(q)
                continue

            # one event = one local round (drain, compute, master, flush)
            # of the runnable partition with the smallest (local time, pid)
            p = min(cand, key=local_time.__getitem__)
            if self.fault_plan is not None:
                self.fault_plan.check(p, local_rounds[p])
            t = local_time[p]
            r_ev = core.begin("local_round", "round", p, local_round=local_rounds[p])
            if self.throttle_wait > 0.0:
                # dynamic async throttle: linger so straggler messages
                # land in this round instead of triggering redundant later
                # rounds (the control knob of the paper's conclusion)
                wait_t[p] += self.throttle_wait
                t += self.throttle_wait

            # -------- drain arrived messages, in arrival order ---------- #
            drained: dict = {}  # (field, phase) -> (targets, values) lists
            round_h2d = 0.0  # drained recv legs, candidate for overlap hiding
            box = inbox[p]
            device = float(device_t[p])  # same float sequence, no boxing
            while box and box[0][0] <= t:
                _, _, key, targets, values, h2d = heapq.heappop(box)
                t += h2d
                device += h2d
                round_h2d += h2d
                in_flight -= 1
                group = drained.get(key)
                if group is None:
                    group = drained[key] = ([], [])
                group[0].append(targets)
                group[1].append(values)
            device_t[p] = device
            n_bufs = len(pending[p])
            core.deliver(p, drained, pending)
            n_activating = len(pending[p]) - n_bufs

            frontier = core.next_frontier(p, pending[p])
            pending[p] = []
            t += POLL_INTERVAL_S

            did_work = False
            round_compute = 0.0  # this round's hiding budget
            # -------- compute phase (only on a non-empty frontier) ------- #
            if len(frontier):
                out = core.compute(p, frontier, pending)
                dt = core.compute_time(p, out)
                t += dt
                compute_t[p] += dt
                round_compute += dt
                stats.work_items += out.edges_processed
                did_work = True

            # -------- sync plan (local) ---------------------------------- #
            flush = []  # this round's non-empty batches, in plan order
            for step in plan:
                if step.kind != "master":
                    batch = core.extract(step, range(p, p + 1), gated)
                    if len(batch):
                        flush.append(batch)
                    continue
                touched, residual[p] = core.master(p, pending)
                if touched:  # an untouched master phase launches nothing
                    dt = cost.master_time(p, touched)
                    t += dt
                    compute_t[p] += dt
                    round_compute += dt
                    did_work = True

            hidden = 0.0
            if self.overlap_comm > 0.0 and round_compute > 0.0:
                # async-copy hiding, one budget per local round: drained
                # H2D first (it preceded the compute on this clock), then
                # sends take the remainder below
                hidden = min(self.overlap_comm * round_h2d, round_compute)
                t -= hidden
                device_t[p] -= hidden

            n_out = 0
            if flush:
                # price the flush in one vectorized pass; each message still
                # departs after the previous one finished its extraction and
                # D2H leg (the device link is serialized), so arrivals ride
                # on the running prefix sum of those send-side costs.
                pr = core.price(
                    flush[0] if len(flush) == 1 else pricing_columns(flush)
                )
                n_out = len(pr.src)
                send_cost = pr.extraction + pr.d2h
                if self.overlap_comm > 0.0:
                    total = float(send_cost.sum())
                    hidden_s = min(
                        self.overlap_comm * total, round_compute - hidden
                    )
                    if total > 0.0 and hidden_s > 0.0:
                        send_cost = send_cost * ((total - hidden_s) / total)
                departs = t + np.cumsum(send_cost)
                t = float(departs[-1])
                device_t[p] += float(send_cost.sum())
                did_work = True

                if netmode:
                    # on the absolute clock: resource queues persist across
                    # the run, and one flush can mix fields and phases, so
                    # aggregates key on them too
                    net = router.schedule_network(
                        pr, departs, core.hier,
                        [(b.field, b.phase) for b in flush for _ in range(len(b))],
                    )
                    arrivals = net.done
                    wire_n = n_out - net.messages_saved
                    inter_n = net.inter_host_messages
                    wire_bytes = float(pr.scaled_bytes.sum()) - net.saved_bytes
                    stats.hier_aggregates += net.aggregates
                else:
                    arrivals = departs + pr.inter
                    wire_n, inter_n, wire_bytes = core.flat_wire(pr)
                stats.comm_volume_bytes += wire_bytes
                stats.num_messages += wire_n
                stats.inter_host_messages += inter_n
                # split the flush into in-flight records, in batch order
                arrivals, h2d = arrivals.tolist(), pr.h2d.tolist()
                i = 0
                for batch in flush:
                    key = (batch.field, batch.phase)
                    for dst, targets, values in comm.records(batch):
                        arrival = arrivals[i]
                        heapq.heappush(
                            inbox[dst],
                            (arrival, seq, key, targets, values, h2d[i]),
                        )
                        if arrival <= local_time[dst]:
                            ready[dst] = True
                        i += 1
                        seq += 1
                in_flight += n_out

            if topology and not did_work and not len(frontier):
                # quiescent topology partition: mark converged this pass
                residual[p] = 0.0
            tracer.end(
                r_ev, messages=n_out, drained=n_activating, did_work=did_work
            )
            local_time[p] = float(t)
            if did_work or len(frontier):
                local_rounds[p] += 1
                rounds_total += 1
            ready[p] = runnable(p)
            if core.watch is not None:
                core.watch.observe(core.views, pid=p)
            if rounds_total > max_local_rounds:
                raise ConvergenceError(
                    f"{app.name} (BASP) exceeded {max_local_rounds} local rounds"
                )

        # ------------------------------------------------------------------ #
        if core.check_full:
            # quiescence: no message in flight and every dirty bit drained,
            # so the mid-flight exemption ends
            core.check_post_sync()
        stats.execution_time = max(local_time)
        stats.per_partition_compute = compute_t
        stats.per_partition_wait = wait_t
        stats.per_partition_device_comm = device_t
        stats.rounds = stats.local_rounds_max = max(local_rounds)
        stats.local_rounds_min = min(local_rounds)
        if tracer.enabled:
            core.round_sim(compute_t, wait_t, device_t)
        return core.finish()
