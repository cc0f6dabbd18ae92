"""XStep: intra-cluster step evaluation (paper Sec. 5.3.2), fused.

XStep performs all of the *cheap* navigation in cost-sensitive plans.
It extends applicable path instances by one step using intra-cluster
edges only; a border encountered during enumeration is returned as a
right-incomplete path instance instead of being crossed.  Non-applicable
instances pass through unchanged.  In fallback mode (Sec. 5.4.6) XStep
behaves as a plain Unnest-Map, crossing borders eagerly with full-tree
navigation.

The paper's plan stacks one XStep per location step between the
I/O-performing operator and XAssembly.  This module runs that whole
chain, together with XAssembly's intake, as one loop (:func:`run_path`,
XAssembly's generator): each instance goes straight to the step it
applies to (``s_r + 1``) or to intake, instance fields travel as plain
locals, and the simulated charges of the operator pipeline — call
crossings, hops, node tests, instances, R/S operations — are replayed
in the order the pipeline would have added them (see docs/algebra.md,
"The fused step loop").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.algebra.fullnav import full_step
from repro.algebra.pathinstance import PathInstance
from repro.errors import PlanError
from repro.storage.nodeid import SLOT_BITS

if TYPE_CHECKING:
    from repro.algebra.xassembly import XAssembly

_SLOT_MASK = (1 << SLOT_BITS) - 1


def _flush(stats, tracer, hops: int, tests: int, instances: int, borders: int) -> None:
    """Add the loop's pending counter deltas to ``Stats`` (and the tracer)."""
    if hops:
        stats.intra_hops += hops
    if tests:
        stats.node_tests += tests
    if instances:
        stats.instances_created += instances
    if borders:
        stats.border_crossings_deferred += borders
    if tracer is not None:
        if hops:
            tracer.count("intra_hops", hops)
        if tests:
            tracer.count("node_tests", tests)
        if instances:
            tracer.count("instances_created", instances)
        if borders:
            tracer.count("border_crossings_deferred", borders)


def run_path(asm: "XAssembly") -> Iterator[PathInstance]:
    """XAssembly's pipeline: the XStep chain and intake as one loop.

    Levels ``1..n`` are the steps; level 0 is the input operator (or the
    fixed batch of a shared scan) and level ``n + 1`` is intake.  The
    loop keeps an explicit stack of the levels whose candidate batch is
    unfinished.  A pull from intake descends to the highest such level,
    paying one ``iterator_call`` for every operator boundary it crosses
    (each followed by the budget check when a budget is armed), and
    resumes that batch; an exhausted batch descends further, down to
    the input.  An instance a level emits rises to the level it applies
    to or to intake without any charge, as a pass-through did.

    The clock accumulates in locals, added in the pipeline's order; they
    are written back before every call out of the loop (input pulls,
    R/S helpers that notify XSchedule, fallback navigation, budget
    checks) and reloaded after it.  Counter deltas reach ``Stats`` (and
    the tracer) before every result is yielded and when the loop ends;
    nothing called out reads them.  With a tracer the loop also counts
    each boundary's calls and outputs for the per-operator rollups and
    emits ``xstep-batch`` events in place.
    """
    ctx = asm.ctx
    steps = asm.steps
    n = len(steps)
    width = n + 1
    intake = n + 1
    clock = ctx.clock
    stats = ctx.stats
    tracer = ctx.tracer
    budget = ctx._budget
    cost_call = ctx._cost_call
    cost_hop = ctx._cost_hop
    cost_test = ctx._cost_test
    cost_instance = ctx._cost_instance
    cost_set = ctx._cost_set
    r = asm._r
    s = asm._s
    ready = asm._ready
    droot = asm.descendant_root_opt
    limit = ctx.options.memory_limit
    # per-level step columns (index = level; level 0 is the input)
    step_of = [None, *steps]
    axes = [None, *(step.axis for step in steps)]
    keys = [None, *(step.batch_key for step in steps)]
    matchers = [None, *(step.match_batch for step in steps)]

    # the input: a shared scan's list, or an operator pulled inline like
    # ``Operator.__iter__`` does (through ``next()`` when traced)
    source = asm.producer
    batch = type(source) is list
    if batch:
        src_iter = iter(source)
    elif tracer is None:
        src_iter = source._iter
        if src_iter is None:
            raise PlanError(f"{type(source).__name__}.next() before open()")
    else:
        src_iter = None
    taken = 0

    # traced rollups: outs per boundary as a difference array over levels
    outs = [0] * (n + 2) if tracer is not None else None
    ended = False

    now = clock.now
    cpu = clock.cpu_time
    d_hops = d_tests = d_inst = d_border = 0
    stack: list[tuple] = []
    level = 0  # highest level with an unfinished batch (0: none)
    # the current level's cursor
    full = None  # fallback: the full-tree step generator
    cands: list[int] = []
    flags: list[bool] = []
    i = nc = free_head = 0
    c_sl = 0
    c_nl = None
    c_open = False
    # the pinned cluster
    page = None
    page_no = -1
    kinds: list[int] = []
    records: list = []
    view = None

    try:
        while True:
            # -- XAssembly: activate instances whose left end is reachable,
            #    and deduplicate/emit full results (packed: right, step, bit)
            while ready:
                packed = ready.popleft()
                right, s_r = divmod(packed >> 1, width)
                if packed & 1:
                    clock.now = now
                    clock.cpu_time = cpu
                    asm._prove(s_r, right, 0, None)
                    now = clock.now
                    cpu = clock.cpu_time
                    continue
                if s_r != n:
                    raise PlanError(
                        f"complete non-full instance in S (s_r={s_r}, len={n})"
                    )
                now += cost_set
                cpu += cost_set
                key = right * width + n
                if key in r:
                    stats.duplicates_suppressed += 1
                    if tracer is not None:
                        tracer.count("duplicates_suppressed")
                    continue
                r.add(key)
                now += cost_instance
                cpu += cost_instance
                d_inst += 1
                clock.now = now
                clock.cpu_time = cpu
                _flush(stats, tracer, d_hops, d_tests, d_inst, d_border)
                d_hops = d_tests = d_inst = d_border = 0
                yield PathInstance(
                    0, None, False, n, right & _SLOT_MASK, False, False, right >> SLOT_BITS
                )
                now = clock.now
                cpu = clock.cpu_time

            # -- pull: descend from intake, one call per boundary crossed,
            #    then run batches until an instance reaches intake
            top = intake
            while True:
                for _ in range(top - (level or 1)):
                    now += cost_call
                    cpu += cost_call
                    if budget is not None:
                        clock.now = now
                        clock.cpu_time = cpu
                        ctx.check_budget()
                if level == 0:
                    # the input boundary (XStep 1 pulls its producer)
                    if src_iter is not None:
                        now += cost_call
                        cpu += cost_call
                        clock.now = now
                        clock.cpu_time = cpu
                        if budget is not None:
                            ctx.check_budget()
                        y = next(src_iter, None)
                    else:
                        clock.now = now
                        clock.cpu_time = cpu
                        y = source.next()
                    now = clock.now
                    cpu = clock.cpu_time
                    if y is None:
                        ended = True
                        return
                    taken += 1
                    e_sl = y.s_l
                    e_nl = y.n_l
                    e_open = y.left_open
                    e_sr = y.s_r
                    e_slot = y.slot
                    e_border = y.is_border
                    e_resumed = y.resumed
                    e_page = y.page_no
                    if e_sr >= n or (e_border and not e_resumed):
                        t = intake  # applies to no step: passes them all
                    else:
                        t = e_sr + 1
                    if outs is not None and t > 1:
                        outs[1] += 1
                        outs[t] -= 1
                    if t == intake:
                        break
                    if not ctx.fallback:
                        frame = ctx.current_frame
                        if frame is None or (
                            e_page is not None and e_page != frame.page.page_no
                        ):
                            clock.now = now
                            clock.cpu_time = cpu
                            raise PlanError(
                                f"XStep {t}: instance references page {e_page}, "
                                f"current cluster is "
                                f"{frame.page.page_no if frame else None}"
                            )
                        if frame.page is not page:
                            page = frame.page
                            page_no = page.page_no
                            records = page.records
                            view = page._colview
                            if view is None:
                                view = page.colview()
                            kinds = view.kinds
                else:
                    # resume the unfinished batch at ``level``
                    t = 0

                # -- run batches; ``t`` > 0 starts one at level ``t``
                while True:
                    if t:
                        level = t
                        c_sl = e_sl
                        c_nl = e_nl
                        c_open = e_open
                        if ctx.fallback:
                            assert e_page is not None
                            full = full_step(ctx, e_page, e_slot, step_of[t], e_resumed)
                        else:
                            full = None
                            upfront, free_head, cands, flags = view.extension_batch(
                                keys[t], matchers[t], e_slot, axes[t], e_resumed
                            )
                            nc = len(cands)
                            i = 0
                            if tracer is not None and nc:
                                tracer.event(
                                    now,
                                    "op",
                                    "xstep-batch",
                                    page=page_no,
                                    args={"step": t, "batch_size": nc},
                                )
                            if upfront:
                                now += cost_hop
                                cpu += cost_hop
                                d_hops += upfront
                    emit = 0
                    if full is None:
                        while i < nc:
                            slot = cands[i]
                            if i >= free_head:
                                now += cost_hop
                                cpu += cost_hop
                                d_hops += 1
                            if kinds[slot] < 0:
                                now += cost_instance
                                cpu += cost_instance
                                d_border += 1
                                d_inst += 1
                                i += 1
                                emit = 1
                                break
                            now += cost_test
                            cpu += cost_test
                            d_tests += 1
                            if flags[i]:
                                now += cost_instance
                                cpu += cost_instance
                                d_inst += 1
                                i += 1
                                emit = 2
                                break
                            i += 1
                        e_page = page_no
                    else:
                        # fallback: unrestricted navigation through the
                        # context, as an Unnest-Map would do
                        clock.now = now
                        clock.cpu_time = cpu
                        for e_page, slot, matched in full:
                            ctx.charge_test()
                            if matched:
                                ctx.charge_instance()
                                emit = 2
                                break
                        now = clock.now
                        cpu = clock.cpu_time
                    if emit == 0:
                        # batch exhausted: descend to the next unfinished
                        # level below (or to the input)
                        top = level
                        if stack:
                            (level, full, cands, flags, i, nc, free_head,
                             c_sl, c_nl, c_open) = stack.pop()
                        else:
                            level = 0
                        break
                    e_sl = c_sl
                    e_nl = c_nl
                    e_open = c_open
                    e_slot = slot
                    e_resumed = False
                    if emit == 1:
                        # deferred border crossing: paused inside this step
                        e_sr = level - 1
                        e_border = True
                        t = intake
                    else:
                        e_sr = level
                        e_border = False
                        t = level + 1
                    if outs is not None:
                        outs[level] += 1
                        outs[t] -= 1
                    if t == intake:
                        break
                    stack.append(
                        (level, full, cands, flags, i, nc, free_head, c_sl, c_nl, c_open)
                    )
                if emit:
                    break

            # -- XAssembly intake of one instance
            if e_border:
                if e_page == page_no:
                    junction = records[e_slot].target()
                else:
                    assert e_page is not None
                    junction = ctx.segment.page(e_page).record(e_slot).target()
                if not e_open:
                    clock.now = now
                    clock.cpu_time = cpu
                    asm._prove(e_sr, junction, e_sl, e_nl)
                    now = clock.now
                    cpu = clock.cpu_time
                    continue
                packed = (junction * width + e_sr) * 2 + 1
            else:
                assert e_page is not None
                nid = (e_page << SLOT_BITS) | e_slot
                if not e_open:
                    if e_sr != n:
                        clock.now = now
                        clock.cpu_time = cpu
                        raise PlanError(
                            f"XAssembly received a complete non-full instance (s_r={e_sr})"
                        )
                    ready.append(nid * width * 2 + n * 2)
                    continue
                packed = (nid * width + e_sr) * 2
            # a left-incomplete instance: activate now or park in S
            if ctx.fallback:
                # complete re-evaluation covers all speculative results
                continue
            now += cost_set
            cpu += cost_set
            left_key = e_nl * width + e_sl
            if (droot and e_sl == 1) or left_key in r:
                stats.merges += 1
                if tracer is not None:
                    tracer.count("merges")
                ready.append(packed)
                continue
            now += cost_set
            cpu += cost_set
            parked = s.get(left_key)
            if parked is None:
                s[left_key] = packed
            elif type(parked) is list:
                parked.append(packed)
            else:
                s[left_key] = [parked, packed]
            asm._s_size += 1
            if limit is not None and asm._s_size > limit:
                clock.now = now
                clock.cpu_time = cpu
                asm._enter_fallback()
                now = clock.now
                cpu = clock.cpu_time
    finally:
        # counters still held here (an exception, or the input's end)
        _flush(stats, tracer, d_hops, d_tests, d_inst, d_border)
        if outs is not None:
            step_out = asm._step_out
            running = 0
            for k in range(1, n + 1):
                running += outs[k]
                step_out[k - 1] += running
            asm._trace_calls(sum(step_out), ended, taken if batch else None)
