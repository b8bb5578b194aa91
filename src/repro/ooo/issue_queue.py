"""Issue-queue occupancy tracking.

The 40-entry issue queue (80 for the 256-window machine) holds dispatched,
not-yet-issued instructions.  NoSQ frees issue-queue entries and issue slots
by never dispatching stores or bypassed loads into the out-of-order engine --
one of the three secondary benefits enumerated in Section 4.3.

The tracker keeps a min-heap of scheduled issue cycles (``_scheduled``)
and a count of entries whose issue cycle is not yet known
(``_unscheduled``: NoSQ *delayed* loads waiting for a store commit), which
occupy the queue until they are given an issue cycle.  The processor's
dispatch loop reads both directly, once per fetch group: it pops the issue
cycles that have passed and pushes each newly scheduled entry's cycle
(DESIGN.md §4).
"""

from __future__ import annotations

import heapq


class IssueQueueTracker:
    """Counts issue-queue occupancy over time."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._scheduled: list[int] = []  # heap of issue cycles
        self._unscheduled = 0            # entries with unknown issue cycle

    def add_unscheduled(self) -> None:
        """Dispatch an entry waiting on an external event (delayed load)."""
        self._unscheduled += 1

    def schedule_unscheduled(self, issue_cycle: int) -> None:
        """Give a previously unscheduled entry its issue cycle."""
        if self._unscheduled <= 0:
            raise RuntimeError("no unscheduled issue-queue entries")
        self._unscheduled -= 1
        heapq.heappush(self._scheduled, issue_cycle)

    def remove_unscheduled(self, count: int) -> None:
        """Squash *count* unscheduled entries (verification flush)."""
        if count > self._unscheduled:
            raise RuntimeError("squashing more unscheduled entries than exist")
        self._unscheduled -= count

    def remove_scheduled(self, issue_cycle: int) -> None:
        """Squash an entry that had a booked issue cycle.

        The heap is rebuilt lazily; squashes are rare (verification flushes
        only), so a linear removal is acceptable.
        """
        try:
            self._scheduled.remove(issue_cycle)
        except ValueError:
            return
        heapq.heapify(self._scheduled)
