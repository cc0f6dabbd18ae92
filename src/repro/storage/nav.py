"""Intra-cluster navigational primitives (paper Sec. 3.5).

The paper requires navigation primitives that "efficiently return nodes
using intra-cluster navigation only", yielding border nodes where the
axis would leave the cluster.  This module provides exactly that, as
generators over page records:

* :func:`iter_axis` — apply an axis from a core node; yields
  ``(is_border, slot)`` pairs, never crossing a page boundary.
* :func:`iter_resume` — continue a *paused* step inside the cluster it
  crossed into; the entry point is the border record the crossing edge
  targets.  The effective semantics per axis are documented in
  :data:`repro.axes.RESUME_AXIS`.
* :func:`speculative_entries` — the border records of a page at which a
  given axis could enter: where XScan/XSchedule generate left-incomplete
  path instances (paper Sec. 5.4.3).

Every traversed intra-cluster edge charges one ``intra_hop`` through the
``charge`` callback; node tests are applied (and charged) by the caller,
because border candidates cannot be tested before crossing.

This module is a test reference; no query path calls it.  The operators
navigate :class:`repro.storage.colview.ColumnView` batches, which
replicate these generators' candidate orders, charge placements and
corrupt-store exceptions as eager array computations
(``tests/storage/test_colview.py`` checks every slot and axis).  A
change to an iteration order or a ``charge()`` site must be made on
both sides.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.axes import Axis
from repro.errors import StorageError, StoreCorruptError
from repro.storage.page import Page
from repro.storage.record import BorderRecord, CoreRecord

#: A navigation result: (is_border, slot-on-this-page).
NavResult = tuple[bool, int]
Charge = Callable[[], None]


# --------------------------------------------------------------------- axis


def iter_axis(page: Page, slot: int, axis: Axis, charge: Charge) -> Iterator[NavResult]:
    """Apply ``axis`` from the core node at ``slot``, intra-cluster only."""
    record = page.record(slot)
    if not isinstance(record, CoreRecord):
        raise StorageError(f"iter_axis from non-core slot {slot} on page {page.page_no}")
    if axis is Axis.SELF:
        yield (False, slot)
    elif axis is Axis.CHILD or axis is Axis.ATTRIBUTE:
        yield from _iter_child_list(page, record.child_slots, charge)
    elif axis is Axis.DESCENDANT:
        yield from _iter_descendants(page, record, charge)
    elif axis is Axis.DESCENDANT_OR_SELF:
        yield (False, slot)
        yield from _iter_descendants(page, record, charge)
    elif axis is Axis.PARENT:
        yield from _iter_parent(page, record, charge)
    elif axis is Axis.ANCESTOR:
        yield from _iter_ancestors(page, record, charge)
    elif axis is Axis.ANCESTOR_OR_SELF:
        yield (False, slot)
        yield from _iter_ancestors(page, record, charge)
    elif axis is Axis.FOLLOWING_SIBLING:
        yield from _iter_siblings(page, slot, record, charge, forward=True)
    elif axis is Axis.PRECEDING_SIBLING:
        yield from _iter_siblings(page, slot, record, charge, forward=False)
    else:  # pragma: no cover - exhaustive over Axis
        raise StorageError(f"unsupported axis {axis}")


def _iter_child_list(page: Page, slots: list[int], charge: Charge) -> Iterator[NavResult]:
    records = page.records
    for child_slot in slots:
        charge()
        yield (records[child_slot].is_border, child_slot)


def _iter_descendants(page: Page, record: CoreRecord, charge: Charge) -> Iterator[NavResult]:
    """Preorder DFS below ``record`` within this page."""
    records = page.records
    stack = record.child_slots[::-1]
    pop = stack.pop
    while stack:
        child_slot = pop()
        charge()
        entry = records[child_slot]
        if entry.is_border:
            yield (True, child_slot)
            continue
        yield (False, child_slot)
        children = entry.child_slots
        if children:
            stack.extend(children[::-1])


def _iter_parent(page: Page, record: CoreRecord, charge: Charge) -> Iterator[NavResult]:
    parent_slot = record.parent_slot
    if parent_slot < 0:
        return
    charge()
    entry = page.record(parent_slot)
    yield (isinstance(entry, BorderRecord), parent_slot)


def _iter_ancestors(page: Page, record: CoreRecord, charge: Charge) -> Iterator[NavResult]:
    records = page.records
    current = record
    while True:
        parent_slot = current.parent_slot
        if parent_slot < 0:
            return
        charge()
        entry = records[parent_slot]
        if entry.is_border:
            yield (True, parent_slot)
            return
        yield (False, parent_slot)
        current = entry


def _iter_siblings(
    page: Page, slot: int, record: CoreRecord, charge: Charge, forward: bool
) -> Iterator[NavResult]:
    """Siblings after/before ``slot`` via the holder's child list.

    The holder is the parent core record or a continuation proxy.  If the
    node is a cluster root (parent link is an up-border), the whole
    sibling scan happens across the border; if the holder is a proxy, the
    part of the child list stored in other clusters is reached through the
    proxy's companion.
    """
    parent_slot = record.parent_slot
    if parent_slot < 0:
        return
    charge()
    holder = page.record(parent_slot)
    if isinstance(holder, BorderRecord) and not holder.continuation:
        # cluster root: siblings live with the parent, across this border
        yield (True, parent_slot)
        return
    slots = holder.child_slots if isinstance(holder, BorderRecord) else holder.child_slots
    if slots is None:
        raise StoreCorruptError(
            f"holder at page {page.page_no} slot {parent_slot} has no child list"
        )
    index = slots.index(slot)
    if forward:
        yield from _iter_child_list(page, slots[index + 1 :], charge)
    else:
        yield from _iter_child_list(page, list(reversed(slots[:index])), charge)
        if isinstance(holder, BorderRecord):
            # earlier chunks of the child list live across the proxy's edge
            charge()
            yield (True, parent_slot)


# ------------------------------------------------------------------- resume


def iter_resume(page: Page, entry_slot: int, axis: Axis, charge: Charge) -> Iterator[NavResult]:
    """Continue a paused ``axis`` step at the border record ``entry_slot``.

    ``entry_slot`` is the *target side* of the crossing: an up-border or
    continuation proxy for downward axes, a down-border for upward and
    sibling crossings.  Candidates yielded here are results of the same
    location step that paused in the source cluster.
    """
    entry = page.record(entry_slot)
    if not isinstance(entry, BorderRecord):
        raise StorageError(f"iter_resume at non-border slot {entry_slot}")

    if axis in (Axis.CHILD, Axis.ATTRIBUTE):
        if entry.continuation:
            if entry.child_slots is None:
                raise StoreCorruptError(
                    f"continuation proxy at page {page.page_no} slot {entry_slot} "
                    "has no child list"
                )
            yield from _iter_child_list(page, entry.child_slots, charge)
        else:
            charge()
            yield (False, entry.local_slot)
    elif axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        if entry.continuation:
            if entry.child_slots is None:
                raise StoreCorruptError(
                    f"continuation proxy at page {page.page_no} slot {entry_slot} "
                    "has no child list"
                )
            for is_border, slot in _iter_child_list(page, entry.child_slots, charge):
                if is_border:
                    yield (True, slot)
                else:
                    child = page.record(slot)
                    if not isinstance(child, CoreRecord):
                        raise StoreCorruptError(
                            f"proxy child at page {page.page_no} slot {slot} "
                            "is not a core record"
                        )
                    yield (False, slot)
                    yield from _iter_descendants(page, child, charge)
        else:
            charge()
            root = page.record(entry.local_slot)
            if not isinstance(root, CoreRecord):
                raise StoreCorruptError(
                    f"up-border at page {page.page_no} slot {entry_slot} points at "
                    f"slot {entry.local_slot}, which is not a core record"
                )
            yield (False, entry.local_slot)
            yield from _iter_descendants(page, root, charge)
    elif axis is Axis.SELF:
        charge()
        yield (False, entry.local_slot)
    elif axis in (Axis.PARENT, Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        yield from _resume_upward(page, entry, axis, charge)
    elif axis is Axis.FOLLOWING_SIBLING:
        yield from _resume_sibling(page, entry_slot, entry, charge, forward=True)
    elif axis is Axis.PRECEDING_SIBLING:
        yield from _resume_sibling(page, entry_slot, entry, charge, forward=False)
    else:  # pragma: no cover - exhaustive over Axis
        raise StorageError(f"unsupported resume axis {axis}")


def _resume_upward(
    page: Page, entry: BorderRecord, axis: Axis, charge: Charge
) -> Iterator[NavResult]:
    """Resume parent/ancestor at the downward border in the parent cluster.

    ``entry.local_slot`` is the holder: the parent core record, or a
    continuation proxy when the crossing edge hangs off a split child
    list — in that case the true parent is yet another cluster away.
    """
    charge()
    holder_slot = entry.local_slot
    holder = page.record(holder_slot)
    if isinstance(holder, BorderRecord):
        # holder is a proxy: the parent core node lies across its edge
        yield (True, holder_slot)
        return
    if axis is Axis.PARENT:
        yield (False, holder_slot)
        return
    # ancestor / ancestor-or-self: the holder and its ancestors all qualify
    yield (False, holder_slot)
    yield from _iter_ancestors(page, holder, charge)


def _resume_sibling(
    page: Page, entry_slot: int, entry: BorderRecord, charge: Charge, forward: bool
) -> Iterator[NavResult]:
    """Resume a sibling scan across a border.

    Three entry shapes occur:

    * a plain *upward* border: the crossing edge led to an exiled sibling
      itself (a candidate), so the local subtree root is the result;
    * a *downward* border (plain or continuation): the scan continues in
      the holder's child list, after (forward) or before (backward) the
      border's own position;
    * a continuation *proxy* (upward side): a forward scan enters the next
      chunk of the child list, so all of the proxy's children qualify.
    """
    if not entry.down:
        if not entry.continuation:
            # candidate crossing: the sibling is this cluster's local root
            charge()
            yield (False, entry.local_slot)
            return
        if entry.child_slots is None:
            raise StoreCorruptError(
                f"continuation proxy at page {page.page_no} slot {entry_slot} "
                "has no child list"
            )
        if forward:
            yield from _iter_child_list(page, entry.child_slots, charge)
        else:
            # backward scan entering a previous chunk: all children of the
            # chunk precede the origin, in reverse order; earlier chunks
            # follow through the proxy's own companion if any precede it.
            yield from _iter_child_list(page, list(reversed(entry.child_slots)), charge)
        return
    charge()
    holder = page.record(entry.local_slot)
    slots = holder.child_slots
    if slots is None:
        raise StoreCorruptError(
            f"holder at page {page.page_no} slot {entry.local_slot} has no child list"
        )
    index = slots.index(entry_slot)
    if forward:
        yield from _iter_child_list(page, slots[index + 1 :], charge)
    else:
        yield from _iter_child_list(page, list(reversed(slots[:index])), charge)
        if isinstance(holder, BorderRecord):
            charge()
            yield (True, entry.local_slot)


# -------------------------------------------------------------- speculation


def speculative_entries(page: Page, axis: Axis) -> Iterator[int]:
    """Border slots of ``page`` at which a paused ``axis`` step could enter.

    XScan (and speculative XSchedule) generate one left-incomplete path
    instance per entry border per step (paper Sec. 5.4.3).

    A ``self`` step can never pause at a border (it yields only its own
    core node), so no junction for it can ever be proven: no entries.

    The operators serve the same enumeration from the columnar view's
    precomputed border lists
    (:meth:`~repro.storage.colview.ColumnView.entry_slots`); both sides
    must keep yielding ascending slot order and charging nothing.
    """
    if axis is Axis.SELF:
        return
    for slot, record in enumerate(page.records):
        if not isinstance(record, BorderRecord):
            continue
        if axis.is_downward:
            # downward steps enter through upward borders (incl. proxies)
            if not record.down:
                yield slot
        elif axis.is_upward:
            if record.down:
                yield slot
        else:
            # sibling axes can enter through every border kind: plain
            # upward (an exiled sibling candidate), downward (scan resumes
            # in the holder's list) and continuations (next/previous chunk)
            yield slot
