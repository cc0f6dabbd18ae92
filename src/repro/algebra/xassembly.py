"""XAssembly: result filtering, dedup, and speculative merging.

Implements both the restricted XAssembly^R (paper Sec. 5.3.3) and the
general XAssembly (Sec. 5.4.5): the general behaviour degenerates to the
restricted one when no left-incomplete instances arrive.

Execution state (paper's terms):

* ``R`` — set of *reachable right ends*: keys ``(step, NodeID)``.  For a
  paused crossing the NodeID is the junction (the entry border record on
  the target side, i.e. ``target(N_R)``); for a full result it is the
  result node itself — which is how final duplicates are eliminated for
  free.
* ``S`` — left-incomplete (speculative) instances, keyed by their left
  junction ``(S_L, N_L)``, waiting for that junction to become reachable.

Keys and S entries are packed ints, so R and S hold no tuples or
instance objects: a key ``(step, nid)`` is ``nid * (n + 1) + step``
(``0 <= step <= n`` for a path of ``n`` steps, so the packing is
injective for any path length), and an S entry with right end
``(s_r, right)`` is ``(right * (n + 1) + s_r) * 2 + incomplete``.  An S
value is one packed entry, or a list of them once a junction holds more
than one.

When a key enters R, all S-instances parked under it activate, possibly
cascading (a speculative fragment can end at yet another border).  With
an XSchedule input, proving a junction also enqueues a visit of the
junction's cluster; with an XScan input the scan visits every cluster
anyway, so no notification is needed (``schedule is None``).

The ``//``-prefix optimisation (Sec. 5.4.5.4) treats every key of step 1
as present in R without storing it; it is only sound when all clusters
are guaranteed to be visited (an XScan input) *and* the second step is
not a sibling axis — sibling steps enter plain up-borders as candidate
crossings whose junctions are not implied by the ``//`` prefix (the
compiler disables the flag in that case).

If ``|S|`` exceeds the memory limit, the plan trips into *fallback mode*
(Sec. 5.4.6): S is discarded, arriving left-incomplete instances are
dropped (the complete re-evaluation regenerates their results), and only
R survives as the duplicate filter.

XAssembly takes the path's compiled steps and drives the XStep chain
itself: :func:`repro.algebra.xstep.run_path` evaluates every step and
the intake above as one loop over the input's instances.  The input is
an operator (XSchedule, XScan) or, for a shared scan, a fixed list of
one cluster's instances, swapped per cluster while R and S persist.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import PathInstance
from repro.algebra.steps import CompiledStep
from repro.algebra.xstep import run_path
from repro.errors import PlanError
from repro.storage.nodeid import NodeID

#: operator name under which traces report a fixed list input (a shared
#: scan's per-cluster batch)
BATCH_INPUT = "_Replay"


class XAssembly(Operator):
    """Topmost operator of a cost-sensitive path plan."""

    __slots__ = (
        "producer",
        "steps",
        "path_len",
        "schedule",
        "descendant_root_opt",
        "_r",
        "_s",
        "_s_size",
        "_ready",
        "_step_out",
        "_batch_out",
    )

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator | list[PathInstance],
        steps: Sequence[CompiledStep],
        schedule=None,
        descendant_root_opt: bool = False,
    ) -> None:
        super().__init__(ctx)
        for step in steps:
            if step.predicates:
                raise PlanError(
                    "XStep does not evaluate nested predicates "
                    "(paper: instances with more than two incomplete ends are future work)"
                )
        #: the input operator, or a list of one cluster's instances
        self.producer = producer
        self.steps = list(steps)
        self.path_len = len(self.steps)
        #: the associated XSchedule, or None when the input is an XScan
        self.schedule = schedule
        #: step-1 keys are implicitly reachable (``//`` prefix + scan input)
        self.descendant_root_opt = descendant_root_opt and self.path_len > 1
        self._r: set[int] = set()
        self._s: dict[int, int | list[int]] = {}
        self._s_size = 0
        #: S entries whose left end became reachable, awaiting activation
        self._ready: deque[int] = deque()
        #: traced outputs of each XStep boundary (and of a list input)
        #: since open
        self._step_out: list[int] = []
        self._batch_out = 0

    def open(self) -> None:
        if isinstance(self.producer, Operator):
            self.producer.open()
        # lower operators (XSchedule giving up on a dead page) trip
        # fallback through the context; this hook discards S for them
        self.ctx.fallback_hooks.append(self._on_fallback_trip)
        self._step_out = [0] * self.path_len
        self._batch_out = 0
        super().open()

    def _produce(self) -> Iterator[PathInstance]:
        return run_path(self)

    def close(self) -> None:
        t0 = self._trace_t0
        # closing the loop first settles its traced call counts
        super().close()
        try:
            self.ctx.fallback_hooks.remove(self._on_fallback_trip)
        except ValueError:
            pass
        tracer = self.ctx.tracer
        if tracer is not None and t0 is not None:
            # the spans of the XStep chain and the input, in close order
            t1 = self.ctx.clock.now
            for out in reversed(self._step_out):
                tracer.op_span("XStep", t0, t1, out)
            if not isinstance(self.producer, Operator):
                tracer.op_span(BATCH_INPUT, t0, t1, self._batch_out)
        if isinstance(self.producer, Operator):
            self.producer.close()

    def _trace_calls(self, out: int, ended: bool, batch_out: int | None) -> None:
        """Add the loop's boundary crossings to the tracer's rollups."""
        tracer = self.ctx.tracer
        if tracer is None:
            return
        calls = out + self.path_len * ended
        if calls:
            tracer.op_calls("XStep", calls, out)
        if batch_out is not None:
            self._batch_out = batch_out
            if batch_out + ended:
                tracer.op_calls(BATCH_INPUT, batch_out + ended, batch_out)

    # ------------------------------------------------------------- R and S

    def _prove(
        self, step: int, junction: NodeID, origin_step: int, origin_node: NodeID | None
    ) -> None:
        """Record that ``junction`` is reachable after ``step`` steps.

        Adds the key to R, schedules a visit of the junction's cluster
        (XSchedule input only), and queues any S-instances waiting on
        the key for activation.
        """
        ctx = self.ctx
        ctx.charge_set_op()
        key = junction * (self.path_len + 1) + step
        if (self.descendant_root_opt and step == 1) or key in self._r:
            ctx.stats.duplicates_suppressed += 1
            if ctx.tracer is not None:
                ctx.tracer.count("duplicates_suppressed")
            return
        self._r.add(key)
        if self.schedule is not None:
            self.schedule.add_from_assembly(
                s_l=origin_step,
                n_l=origin_node,
                s_r=step,
                target=junction,
            )
        pending = self._s.pop(key, None)
        if pending is None:
            return
        if type(pending) is list:
            count = len(pending)
            self._ready.extend(pending)
        else:
            count = 1
            self._ready.append(pending)
        ctx.stats.merges += count
        if ctx.tracer is not None:
            ctx.tracer.count("merges", count)
        self._s_size -= count

    # -------------------------------------------------------------- fallback

    def _enter_fallback(self) -> None:
        """Memory limit exceeded: revert to the Simple method (Sec. 5.4.6)."""
        self.ctx.trip_fallback(
            "memory-limit",
            detail=f"|S|={self._s_size} exceeded memory_limit="
            f"{self.ctx.options.memory_limit}",
        )

    def _on_fallback_trip(self) -> None:
        """Context hook: discard S, keep R as the duplicate filter."""
        self._s.clear()
        self._s_size = 0
        self._ready.clear()
        if self.schedule is not None:
            self.schedule.enter_fallback()
