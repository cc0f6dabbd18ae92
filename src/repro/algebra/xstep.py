"""XStep: intra-cluster step evaluation (paper Sec. 5.3.2).

XStep performs all of the *cheap* navigation in cost-sensitive plans.
It extends applicable path instances by one step using intra-cluster
edges only; a border encountered during enumeration is returned as a
right-incomplete path instance instead of being crossed.  Non-applicable
instances pass through unchanged.

In fallback mode (Sec. 5.4.6) XStep behaves as a plain Unnest-Map,
crossing borders eagerly with full-tree navigation.
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.fullnav import full_step
from repro.algebra.pathinstance import PathInstance
from repro.algebra.steps import CompiledStep
from repro.errors import PlanError


class XStep(Operator):
    """Extend path instances by step ``step_index`` without leaving the cluster.

    Each extension is evaluated against the page's
    :class:`~repro.storage.colview.ColumnView`: the whole candidate
    array first, node-tested in one batch, charges replayed after.
    """

    __slots__ = ("producer", "step_index", "step")

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator,
        step_index: int,
        step: CompiledStep,
    ) -> None:
        super().__init__(ctx)
        if step.predicates:
            raise PlanError(
                "XStep does not evaluate nested predicates "
                "(paper: instances with more than two incomplete ends are future work)"
            )
        self.producer = producer
        self.step_index = step_index
        self.step = step

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    # ------------------------------------------------------------- pipeline

    def _produce(self) -> Iterator[PathInstance]:
        """Batch-at-a-time pipeline over the pinned page's columnar view.

        An instance is applicable when it ends at the previous step and
        is either complete or a paused instance the I/O operator
        re-delivered at its entry border (resumed); all others pass
        through.  Candidate discovery charges nothing (pure page reads,
        and the page stays pinned for the whole extension), so the full
        candidate array of each (instance, step) extension is computed
        eagerly from the :class:`~repro.storage.colview.ColumnView` and
        node-tested with one ``match_batch`` call.  The simulated charges
        are then replayed candidate-for-candidate in the flat emit loop
        below: a hop per candidate past ``free_head`` (plus the upfront
        hops), a node test per core candidate, and an instance per result
        or deferred border.  Clock values accumulate in locals and
        stats/tracer increments in integer deltas; both flush *before
        every yield* and at batch end, and the clock locals reload after
        each yield (the consumer advances the clock between pulls).  The
        float additions happen in charge order, so simulated time matches
        charging each primitive through the ``EvalContext`` helpers.
        """
        ctx = self.ctx
        step = self.step
        axis = step.axis
        test = step.test
        match_batch = step.match_batch
        step_index = self.step_index
        prev_index = step_index - 1
        clock = ctx.clock
        stats = ctx.stats
        tracer = ctx.tracer
        cost_hop = ctx._cost_hop
        cost_test = ctx._cost_test
        cost_instance = ctx._cost_instance
        for p in self.producer:
            if p.s_r != prev_index or (p.is_border and not p.resumed):
                yield p
                continue
            if ctx.fallback:
                yield from self._extend_full(p)
                continue
            page = self._pinned_page(p)
            view = page._colview
            if view is None:
                view = page.colview()
            upfront, free_head, cands, flags = view.extension_batch(
                test, match_batch, p.slot, axis, p.resumed
            )
            kinds = view.kinds
            page_no = page.page_no
            s_l = p.s_l
            n_l = p.n_l
            left_open = p.left_open
            if tracer is not None and cands:
                tracer.event(
                    clock.now,
                    "op",
                    "xstep-batch",
                    page=page_no,
                    args={"step": step_index, "batch_size": len(cands)},
                )
            now = clock.now
            cpu = clock.cpu_time
            d_hops = d_tests = 0
            if upfront:
                now += cost_hop
                cpu += cost_hop
                d_hops = upfront
            for i, slot in enumerate(cands):
                if i >= free_head:
                    now += cost_hop
                    cpu += cost_hop
                    d_hops += 1
                if kinds[slot] < 0:
                    now += cost_instance
                    cpu += cost_instance
                    clock.now = now
                    clock.cpu_time = cpu
                    stats.intra_hops += d_hops
                    stats.node_tests += d_tests
                    stats.border_crossings_deferred += 1
                    stats.instances_created += 1
                    if tracer is not None:
                        if d_hops:
                            tracer.count("intra_hops", d_hops)
                        if d_tests:
                            tracer.count("node_tests", d_tests)
                        tracer.count("border_crossings_deferred")
                        tracer.count("instances_created")
                    d_hops = d_tests = 0
                    yield PathInstance(
                        s_l=s_l,
                        n_l=n_l,
                        left_open=left_open,
                        s_r=prev_index,
                        slot=slot,
                        is_border=True,
                        page_no=page_no,
                    )
                    now = clock.now
                    cpu = clock.cpu_time
                elif flags[i]:
                    now += cost_test
                    cpu += cost_test
                    d_tests += 1
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
                        s_l=s_l,
                        n_l=n_l,
                        left_open=left_open,
                        s_r=step_index,
                        slot=slot,
                        is_border=False,
                        page_no=page_no,
                    )
                    now = clock.now
                    cpu = clock.cpu_time
                else:
                    now += cost_test
                    cpu += cost_test
                    d_tests += 1
            clock.now = now
            clock.cpu_time = cpu
            # only hop/test deltas can be pending here: instance charges
            # always flush at their yield
            if d_hops:
                stats.intra_hops += d_hops
                if tracer is not None:
                    tracer.count("intra_hops", d_hops)
            if d_tests:
                stats.node_tests += d_tests
                if tracer is not None:
                    tracer.count("node_tests", d_tests)

    def _extend_full(self, p: PathInstance) -> Iterator[PathInstance]:
        """Fallback: unrestricted navigation, as an Unnest-Map would do."""
        ctx = self.ctx
        assert p.page_no is not None
        for page_no, slot, matched in full_step(ctx, p.page_no, p.slot, self.step, p.resumed):
            ctx.charge_test()
            if matched:
                ctx.charge_instance()
                yield PathInstance(
                    s_l=p.s_l,
                    n_l=p.n_l,
                    left_open=p.left_open,
                    s_r=self.step_index,
                    slot=slot,
                    is_border=False,
                    page_no=page_no,
                )

    def _pinned_page(self, p: PathInstance):
        """The current cluster's page; instances in flight must live on it."""
        frame = self.ctx.current_frame
        if frame is None or (p.page_no is not None and p.page_no != frame.page.page_no):
            raise PlanError(
                f"XStep {self.step_index}: instance references page {p.page_no}, "
                f"current cluster is "
                f"{frame.page.page_no if frame else None}"
            )
        return frame.page
