"""Full-tree navigation: axis iteration that crosses cluster borders.

This is the navigation style of the paper's *Simple* method (Sec. 5.1)
and of fallback mode (Sec. 5.4.6): every border crossing immediately
swizzles and — on a buffer miss — performs synchronous I/O.  The
cost-sensitive operators exist to avoid exactly this code path.

Candidates come from the pages' :class:`~repro.storage.colview.ColumnView`
batches; their ``(upfront_hops, free_head)`` charge shape is replayed
lazily, one ``ctx.charge_hop`` per hop as each candidate is reached, so
a consumer that stops early (``exists_path``) pays only for the
candidates it actually saw.
"""

from __future__ import annotations

from typing import Iterator

from repro.axes import Axis
from repro.algebra.context import EvalContext
from repro.algebra.steps import CompiledPredicate, CompiledStep
from repro.model.tree import Kind
from repro.storage.colview import KIND_BORDER
from repro.storage.nodeid import page_of, slot_of


def _walk(
    ctx: EvalContext,
    page_no: int,
    slot: int,
    axis: Axis,
    resumed: bool,
    step: CompiledStep | None,
) -> Iterator[tuple[int, int, bool]]:
    """Yield ``(page_no, slot, matched)`` for every core candidate of ``axis``.

    ``matched`` is ``step``'s node test on the candidate (always True
    without a step).  Implemented iteratively with an explicit stack of
    per-page candidate streams: only the page being navigated is pinned.
    Descending across a border unfixes the source page and returning to
    it re-fixes it (another buffer-hash lookup, and another read if it
    was evicted meanwhile) — exactly the repeated swizzling cost the
    Simple method pays and the cost-sensitive plans avoid.  Continuation
    chains in wide child lists can be hundreds of crossings long, so
    neither recursion depth nor pin count may grow with them.
    """

    def stream(page, start: int, resumed: bool) -> list:
        # [page_no, page, view, upfront_hops, free_head, cands, flags, index]
        view = page.colview()
        if step is not None:
            upfront, free_head, cands, flags = view.extension_batch(
                step.batch_key, step.match_batch, start, axis, resumed
            )
        else:
            if resumed:
                upfront, free_head, cands = view.resume_candidates(start, axis)
            else:
                upfront, free_head, cands = view.axis_candidates(start, axis)
            flags = None
        return [page.page_no, page, view, upfront, free_head, cands, flags, 0]

    buffer = ctx.buffer
    charge_hop = ctx.charge_hop
    frame = buffer.fix(page_no)
    stack = [stream(frame.page, slot, resumed)]
    try:
        while stack:
            top = stack[-1]
            # the stream's upfront hops fire on its first advance, before
            # any candidate (and even when the stream is empty)
            if top[3]:
                for _ in range(top[3]):
                    charge_hop()
                top[3] = 0
            index = top[7]
            cands = top[5]
            if index == len(cands):
                stack.pop()
                buffer.unfix(frame)
                frame = None
                if stack:
                    frame = buffer.fix(stack[-1][0])
                continue
            top[7] = index + 1
            if index >= top[4]:
                charge_hop()
            candidate = cands[index]
            if top[2].kinds[candidate] != KIND_BORDER:
                flags = top[6]
                yield top[0], candidate, True if flags is None else flags[index]
                continue
            target = top[1].records[candidate].target()
            buffer.unfix(frame)
            frame = buffer.fix(page_of(target))
            stack.append(stream(frame.page, slot_of(target), True))
    finally:
        if frame is not None and stack:
            buffer.unfix(frame)


def full_axis(
    ctx: EvalContext, page_no: int, slot: int, axis: Axis, resumed: bool = False
) -> Iterator[tuple[int, int]]:
    """Apply ``axis`` from ``(page_no, slot)``, crossing borders eagerly.

    Yields ``(page_no, slot)`` of core candidate nodes.  ``resumed`` means
    the starting slot is an entry border record of a paused step.
    """
    walk = _walk(ctx, page_no, slot, axis, resumed, None)
    try:
        for candidate_page, candidate_slot, _ in walk:
            yield candidate_page, candidate_slot
    finally:
        walk.close()


def full_step(
    ctx: EvalContext, page_no: int, slot: int, step: CompiledStep, resumed: bool = False
) -> Iterator[tuple[int, int, bool]]:
    """:func:`full_axis` along ``step.axis``, each candidate paired with
    ``step``'s node test.  Node tests are charged by the caller."""
    return _walk(ctx, page_no, slot, step.axis, resumed, step)


def string_value(ctx: EvalContext, page_no: int, slot: int) -> str:
    """XPath string value of a node.

    Text and attribute nodes carry their value; elements (and the
    document root) concatenate the values of their text descendants in
    document order — crossing borders, as ``full_axis`` does.
    """
    record = ctx.segment.page(page_no).record(slot)
    if record.kind in (Kind.TEXT, Kind.ATTRIBUTE):
        return record.value or ""
    pieces: list[str] = []
    for text_page, text_slot in full_axis(ctx, page_no, slot, Axis.DESCENDANT):
        descendant = ctx.segment.page(text_page).record(text_slot)
        if descendant.kind == Kind.TEXT:
            pieces.append(descendant.value or "")
    return "".join(pieces)


def predicate_holds(
    ctx: EvalContext, page_no: int, slot: int, predicate: CompiledPredicate
) -> bool:
    """Evaluate one compiled predicate at a context node."""
    if predicate.op is None:
        return exists_path(ctx, page_no, slot, predicate.steps)
    if not predicate.steps:
        # comparison against the context node itself (e.g. ``[. = "x"]``)
        ctx.charge_test()
        return predicate.matches_value(string_value(ctx, page_no, slot))
    return _exists_matching(ctx, page_no, slot, predicate.steps, predicate)


def _exists_matching(
    ctx: EvalContext,
    page_no: int,
    slot: int,
    steps: list[CompiledStep],
    predicate: CompiledPredicate,
) -> bool:
    step = steps[0]
    rest = steps[1:]
    for candidate_page, candidate_slot, matched in full_step(ctx, page_no, slot, step):
        ctx.charge_test()
        if not matched:
            continue
        if any(
            not predicate_holds(ctx, candidate_page, candidate_slot, nested)
            for nested in step.predicates
        ):
            continue
        if rest:
            if _exists_matching(ctx, candidate_page, candidate_slot, rest, predicate):
                return True
        else:
            ctx.charge_test()
            if predicate.matches_value(string_value(ctx, candidate_page, candidate_slot)):
                return True
    return False


def exists_path(ctx: EvalContext, page_no: int, slot: int, steps: list[CompiledStep]) -> bool:
    """Existence check for a relative path (predicate evaluation).

    Nested-loop with early exit; only used by the Simple plan.
    """
    if not steps:
        return True
    step = steps[0]
    rest = steps[1:]
    for candidate_page, candidate_slot, matched in full_step(ctx, page_no, slot, step):
        ctx.charge_test()
        if not matched:
            continue
        if any(
            not predicate_holds(ctx, candidate_page, candidate_slot, nested)
            for nested in step.predicates
        ):
            continue
        if exists_path(ctx, candidate_page, candidate_slot, rest):
            return True
    return False
