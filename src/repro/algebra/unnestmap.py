"""Unnest-Map: the Simple method's step operator (paper Sec. 5.1).

One Unnest-Map per location step; each reads complete path instances and
extends them by one step using *full-tree* navigation — every border
crossing pays a swizzle and, on a miss, synchronous I/O immediately.
This is the baseline the cost-sensitive plans are measured against.

The kernel runs the traversal of
:func:`~repro.algebra.fullnav.full_axis` — same candidate orders, same
hop/test charges, same buffer fix/unfix sequence and therefore the same
simulated I/O timeline — over per-page
:class:`~repro.storage.colview.ColumnView` candidate arrays.  Step
predicates are evaluated per node-test match through
:func:`~repro.algebra.fullnav.predicate_holds`.
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.fullnav import predicate_holds
from repro.algebra.pathinstance import PathInstance
from repro.algebra.steps import CompiledStep
from repro.storage.nodeid import page_of, slot_of


class UnnestMap(Operator):
    """Extend complete path instances by one location step."""

    __slots__ = ("producer", "step_index", "step")

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator,
        step_index: int,
        step: CompiledStep,
    ) -> None:
        super().__init__(ctx)
        self.producer = producer
        self.step_index = step_index
        self.step = step

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    def _produce(self) -> Iterator[PathInstance]:
        """Full-tree traversal over columnar candidate batches.

        Replays :func:`~repro.algebra.fullnav.full_axis` exactly: an
        explicit stack of per-page candidate streams, each stream a
        memoized :class:`~repro.storage.colview.ColumnView` batch with
        its charge shape, node tests precomputed by one ``match_batch``
        call per stream.  A border candidate crosses eagerly — the
        stream's position is saved, the buffer unfixes/fixes, and a
        resume stream is pushed.

        Clock values accumulate in locals and stats/tracer counters in
        integer deltas, flushed before every yield, every buffer call
        (``fix``/``unfix`` advance the clock and stamp tracer events with
        it) and every predicate evaluation (which fixes pages and charges
        through the ``EvalContext`` helpers), then reloaded; the
        per-charge float additions happen in charge order, so results,
        ``Stats`` and simulated time match charging each primitive
        through the helpers.
        """
        ctx = self.ctx
        step = self.step
        axis = step.axis
        batch_key = step.batch_key
        match_batch = step.match_batch
        predicates = step.predicates
        step_index = self.step_index
        buffer = ctx.buffer
        clock = ctx.clock
        stats = ctx.stats
        tracer = ctx.tracer
        cost_hop = ctx._cost_hop
        cost_test = ctx._cost_test
        cost_instance = ctx._cost_instance
        for p in self.producer:
            assert p.page_no is not None and not p.is_border
            s_l = p.s_l
            n_l = p.n_l
            frame = buffer.fix(p.page_no)
            try:
                page = frame.page
                view = page._colview
                if view is None:
                    view = page.colview()
                upfront, free_head, cands, flags = view.extension_batch(
                    batch_key, match_batch, p.slot, axis, False
                )
                if tracer is not None and cands:
                    tracer.event(
                        clock.now,
                        "op",
                        "unnest-batch",
                        page=p.page_no,
                        args={"step": step_index, "batch_size": len(cands)},
                    )
                # stream: [page_no, page, view, cands, flags, index, end,
                #          free_head, upfront_pending]
                stack = [
                    [p.page_no, page, view, cands, flags, 0, len(cands), free_head, upfront]
                ]
                now = clock.now
                cpu = clock.cpu_time
                d_hops = d_tests = 0
                while stack:
                    top = stack[-1]
                    page_no = top[0]
                    page = top[1]
                    view = top[2]
                    cands = top[3]
                    flags = top[4]
                    index = top[5]
                    end = top[6]
                    free_head = top[7]
                    if top[8]:
                        # the stream's upfront hops fire on its first
                        # advance, before any candidate (and even when
                        # the stream is empty)
                        now += cost_hop
                        cpu += cost_hop
                        d_hops += top[8]
                        top[8] = 0
                    kinds = view.kinds
                    crossed = False
                    while index < end:
                        slot = cands[index]
                        if index >= free_head:
                            now += cost_hop
                            cpu += cost_hop
                            d_hops += 1
                        index += 1
                        if kinds[slot] < 0:
                            # border: cross eagerly, exactly as full_axis
                            top[5] = index
                            target = page.records[slot].target()
                            target_page = page_of(target)
                            clock.now = now
                            clock.cpu_time = cpu
                            buffer.unfix(frame)
                            frame = buffer.fix(target_page)
                            now = clock.now
                            cpu = clock.cpu_time
                            page = frame.page
                            view = page._colview
                            if view is None:
                                view = page.colview()
                            r_up, r_free, r_cands, r_flags = view.extension_batch(
                                batch_key, match_batch, slot_of(target), axis, True
                            )
                            stack.append(
                                [
                                    target_page,
                                    page,
                                    view,
                                    r_cands,
                                    r_flags,
                                    0,
                                    len(r_cands),
                                    r_free,
                                    r_up,
                                ]
                            )
                            crossed = True
                            break
                        now += cost_test
                        cpu += cost_test
                        d_tests += 1
                        if flags[index - 1]:
                            if predicates:
                                clock.now = now
                                clock.cpu_time = cpu
                                if d_hops:
                                    stats.intra_hops += d_hops
                                    if tracer is not None:
                                        tracer.count("intra_hops", d_hops)
                                stats.node_tests += d_tests
                                if tracer is not None:
                                    tracer.count("node_tests", d_tests)
                                d_hops = d_tests = 0
                                holds = all(
                                    predicate_holds(ctx, page_no, slot, predicate)
                                    for predicate in predicates
                                )
                                now = clock.now
                                cpu = clock.cpu_time
                                if not holds:
                                    continue
                            now += cost_instance
                            cpu += cost_instance
                            clock.now = now
                            clock.cpu_time = cpu
                            stats.intra_hops += d_hops
                            stats.node_tests += d_tests
                            stats.instances_created += 1
                            if tracer is not None:
                                if d_hops:
                                    tracer.count("intra_hops", d_hops)
                                tracer.count("node_tests", d_tests)
                                tracer.count("instances_created")
                            d_hops = d_tests = 0
                            yield PathInstance(
                                s_l, n_l, False, step_index, slot, False, False, page_no
                            )
                            now = clock.now
                            cpu = clock.cpu_time
                    if crossed:
                        continue
                    # stream exhausted: pop back to the previous page
                    stack.pop()
                    clock.now = now
                    clock.cpu_time = cpu
                    buffer.unfix(frame)
                    frame = None
                    if stack:
                        frame = buffer.fix(stack[-1][0])
                    now = clock.now
                    cpu = clock.cpu_time
                clock.now = now
                clock.cpu_time = cpu
                # only hop/test deltas can be pending here: instance
                # charges always flush at their yield
                if d_hops:
                    stats.intra_hops += d_hops
                    if tracer is not None:
                        tracer.count("intra_hops", d_hops)
                if d_tests:
                    stats.node_tests += d_tests
                    if tracer is not None:
                        tracer.count("node_tests", d_tests)
            finally:
                if frame is not None:
                    buffer.unfix(frame)
