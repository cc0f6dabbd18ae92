"""Shared scan: several location paths over one physical pass.

The paper's outlook: "Our method can be easily extended to evaluate
multiple location paths with a single I/O-performing operator."  This
module implements that extension for the scan operator: one sequential
pass over the document drives the XStep chains and XAssembly instances
of *all* paths — Q7's three descendant counts read the document once
instead of three times.

Mechanics: the driver performs XScan's physical work (sequential page
loads, current-cluster pinning).  For every cluster it feeds each path
its context instances and its speculative left-incomplete instances
through a per-cluster XStep chain into that path's persistent XAssembly
(whose R and S state spans the whole scan — re-opening an XAssembly over
a new producer preserves its execution state by design).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import PathInstance
from repro.algebra.xassembly import XAssembly
from repro.algebra.xstep import XStep
from repro.errors import BudgetExceededError, PlanError
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.store import StoredDocument
from repro.storage.synopsis import cost_effective_skips


class _Replay(Operator):
    """Producer replaying a fixed batch of instances (one cluster's feed)."""

    __slots__ = ("items",)

    def __init__(self, ctx: EvalContext, items: list[PathInstance]) -> None:
        super().__init__(ctx)
        self.items = items

    def _produce(self) -> Iterator[PathInstance]:
        yield from self.items


class _PathState:
    """Per-path machinery persisting across clusters."""

    __slots__ = ("steps", "assembly", "results", "postings")

    def __init__(
        self, ctx: EvalContext, steps, descendant_root_opt: bool, postings=None
    ) -> None:
        self.steps = steps
        self.postings = postings
        # the producer is swapped per cluster; XAssembly's R/S survive
        self.assembly = XAssembly(
            ctx,
            producer=_Replay(ctx, []),
            path_len=len(steps),
            schedule=None,
            descendant_root_opt=descendant_root_opt,
        )
        self.results: list[NodeID] = []

    def feed(self, ctx: EvalContext, batch: list[PathInstance]) -> None:
        source: Operator = _Replay(ctx, batch)
        top = source
        for index, step in enumerate(self.steps, start=1):
            top = XStep(ctx, top, index, step)
        self.assembly.producer = top
        self.assembly.open()
        while True:
            item = self.assembly.next()
            if item is None:
                break
            assert item.page_no is not None
            self.results.append(make_nodeid(item.page_no, item.slot))
        self.assembly.close()


def shared_scan(
    ctx: EvalContext,
    document: StoredDocument,
    paths: Sequence,  # CompiledPathPlan-like: .steps, .descendant_root_opt
) -> list[list[NodeID]]:
    """Evaluate several paths with one sequential scan; returns result
    NodeIDs per path (unordered)."""
    if not paths:
        raise PlanError("shared_scan needs at least one path")
    states = [
        _PathState(
            ctx,
            plan.steps,
            getattr(plan, "descendant_root_opt", False),
            postings=getattr(plan, "postings", None),
        )
        for plan in paths
    ]
    root = document.root
    context_cluster = page_of(root)
    synopsis = document.synopsis if ctx.options.synopsis else None
    page_nos = document.page_nos
    if synopsis is not None:
        # skip clusters no path can draw a candidate or transit from
        # (the context cluster always stays in); only runs long enough
        # to beat the seek their gap induces are actually dropped
        prunable = [
            page_no != context_cluster
            and all(
                synopsis.prunable_for_scan(page_no, state.steps)
                for state in states
            )
            for page_no in page_nos
        ]
        skips = cost_effective_skips(page_nos, prunable, ctx.iosys.disk.geometry)
        if skips:
            ctx.stats.synopsis_clusters_pruned += len(skips)
            if ctx.tracer is not None:
                ctx.tracer.count("synopsis_clusters_pruned", len(skips))
        if any(state.postings is not None for state in states):
            # widen the prunable vector with each path's cluster postings
            # (a page is skippable only when *every* path rules it out;
            # paths without postings keep their synopsis-only verdict);
            # the synopsis-only skips above are a pointwise subset, so the
            # union attributes only the extra skips to the path summary
            def ruled_out(state: _PathState, page_no: int) -> bool:
                if state.postings is not None:
                    return state.postings.prunable_for_scan(synopsis, page_no)
                return synopsis.prunable_for_scan(page_no, state.steps)

            combined = [
                flag
                or (
                    page_no != context_cluster
                    and all(ruled_out(state, page_no) for state in states)
                )
                for flag, page_no in zip(prunable, page_nos)
            ]
            extra = (
                cost_effective_skips(page_nos, combined, ctx.iosys.disk.geometry)
                - skips
            )
            if extra:
                ctx.stats.pathsummary_clusters_pruned += len(extra)
                if ctx.tracer is not None:
                    ctx.tracer.count("pathsummary_clusters_pruned", len(extra))
                skips = skips | extra
        if skips:
            page_nos = [p for p in page_nos if p not in skips]

    try:
        for page_no in page_nos:
            if not ctx.buffer.is_resident(page_no):
                pass  # synchronous sequential read below (O_DIRECT semantics)
            frame = ctx.buffer.try_fix_resident(page_no)
            if frame is None:
                frame = ctx.buffer.fix(page_no)
            ctx.set_current_frame(frame)
            ctx.stats.clusters_visited += 1
            if ctx.tracer is not None:
                ctx.tracer.count("clusters_visited")
            page = frame.page
            for state in states:
                batch: list[PathInstance] = []
                if page_no == context_cluster:
                    ctx.charge_instance()
                    batch.append(
                        PathInstance(
                            s_l=0,
                            n_l=root,
                            left_open=False,
                            s_r=0,
                            slot=slot_of(root),
                            is_border=False,
                            page_no=page_no,
                        )
                    )
                for step_index, step in enumerate(state.steps):
                    if synopsis is not None and not synopsis.can_contribute(
                        page_no, step
                    ):
                        ctx.stats.synopsis_entries_pruned += 1
                        if ctx.tracer is not None:
                            ctx.tracer.count("synopsis_entries_pruned")
                        continue
                    if (
                        synopsis is not None
                        and state.postings is not None
                        and not state.postings.can_contribute(
                            synopsis, page_no, step_index
                        )
                    ):
                        # the postings place this step's path set elsewhere
                        ctx.stats.pathsummary_entries_pruned += 1
                        if ctx.tracer is not None:
                            ctx.tracer.count("pathsummary_entries_pruned")
                        continue
                    for border_slot in page.colview().entry_slots(step.axis):
                        ctx.charge_instance()
                        ctx.stats.speculative_instances += 1
                        if ctx.tracer is not None:
                            ctx.tracer.count("speculative_instances")
                        batch.append(
                            PathInstance(
                                s_l=step_index,
                                n_l=make_nodeid(page_no, border_slot),
                                left_open=True,
                                s_r=step_index,
                                slot=border_slot,
                                is_border=True,
                                resumed=True,
                                page_no=page_no,
                            )
                        )
                state.feed(ctx, batch)
    except BudgetExceededError as exc:
        # a "partial" budget stops the scan; each path keeps what it has
        if not exc.partial:
            ctx.release()
            raise
    ctx.release()
    return [state.results for state in states]
