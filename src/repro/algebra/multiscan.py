"""Shared scan: several location paths over one physical pass.

The paper's outlook: "Our method can be easily extended to evaluate
multiple location paths with a single I/O-performing operator."  This
module implements that extension for the scan operator: one sequential
pass over the document drives the step loops and XAssembly instances
of *all* paths — Q7's three descendant counts read the document once
instead of three times.

Mechanics: the driver performs XScan's physical work (sequential page
loads, current-cluster pinning).  For every cluster it hands each path
its context instances and its speculative left-incomplete instances as
one list to that path's persistent XAssembly, which runs them through
the path's steps (whose R and S state spans the whole scan — re-opening
an XAssembly over a new input preserves its execution state by design).
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import PathInstance
from repro.algebra.xassembly import XAssembly
from repro.errors import BudgetExceededError, PlanError
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.store import StoredDocument
from repro.storage.synopsis import cost_effective_skips


class _PathState:
    """Per-path machinery persisting across clusters."""

    __slots__ = ("steps", "assembly", "results", "postings")

    def __init__(
        self, ctx: EvalContext, steps, descendant_root_opt: bool, postings=None
    ) -> None:
        self.steps = steps
        self.postings = postings
        # the input batch is swapped per cluster; XAssembly's R/S survive
        self.assembly = XAssembly(
            ctx, [], steps, schedule=None, descendant_root_opt=descendant_root_opt
        )
        self.results: list[NodeID] = []

    def feed(self, batch: list[PathInstance]) -> None:
        """Run one cluster's instances through the path's XAssembly."""
        assembly = self.assembly
        assembly.producer = batch
        assembly.open()
        while True:
            item = assembly.next()
            if item is None:
                break
            assert item.page_no is not None
            self.results.append(make_nodeid(item.page_no, item.slot))
        assembly.close()


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
            frame = ctx.buffer.try_fix_resident(page_no)
            if frame is None:
                # synchronous sequential read (O_DIRECT semantics)
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
                        PathInstance(0, root, False, 0, slot_of(root), False, False, page_no)
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
                                step_index,
                                make_nodeid(page_no, border_slot),
                                True,
                                step_index,
                                border_slot,
                                True,
                                True,
                                page_no,
                            )
                        )
                state.feed(batch)
    except BudgetExceededError as exc:
        # a "partial" budget stops the scan; each path keeps what it has
        if not exc.partial:
            ctx.release()
            raise
    ctx.release()
    return [state.results for state in states]
