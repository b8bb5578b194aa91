"""Reorder buffer and the in-flight instruction record.

Under NoSQ the ROB also buffers the store/load base register tags, data
register tags, and displacements that the extended commit pipeline reads
(Section 3.4, "these fields can (logically) be stored in the re-order
buffer").  In this model those fields live on :class:`InFlightInst`.
"""

from __future__ import annotations

from collections import deque
from repro.isa.trace import DynInst


class InFlightInst:
    """Per-instruction timing and speculation state while in the window.

    A plain ``__slots__`` class with a hand-written constructor rather
    than a dataclass: one instance is created per dispatched instruction
    (including flush replays), making construction itself a measured hot
    path.  Field meanings:

    * ``ssn`` -- store sequence number assigned at rename (stores only);
    * ``issue_cycle`` / ``complete_cycle`` -- selection / result cycles
      (-1 = not scheduled yet);
    * ``dcache_read_cycle`` -- cycle of the out-of-order D$ read (loads);
    * ``bypassed`` / ``delayed`` / ``predicted_ssn`` / ``predicted_shift``
      / ``pred_hit`` -- NoSQ bypassing state;
    * ``sq_forwarded`` -- forwarded from the store queue (baseline);
    * ``allocated_preg`` -- allocated a physical register at rename;
    * ``shared_with_seq`` -- shares the register allocated by that seq
      (SMB; -1 = none);
    * ``predicted_store_seq`` -- dense store_seq of the predicted
      bypassing/delaying store (-1 = none);
    * ``ssn_rename_at_dispatch`` -- SSNrename observed just before this
      instruction renamed (set for loads and stores);
    * ``injected_op`` -- partial-word bypass realized as an injected
      shift & mask operation;
    * ``smb_applied`` -- opportunistic SMB short-circuit applied;
    * ``squashed`` -- squashed by a verification flush;
    * ``producers`` / ``sched_kind`` / ``port_class`` / ``min_ready`` /
      ``in_iq`` -- greedy-scheduling info: gating in-flight producers,
      how the instruction executes ("exec" = issue to a port, "load" =
      issue + D$ read, "bypass" = completes with its producer, "none" =
      completes at dispatch), an extra readiness floor, and issue-queue
      occupancy;
    * ``seq`` -- dynamic sequence number mirrored from ``inst.seq`` (a
      plain field, read on every wakeup, squash, and release);
    * ``undo_producer`` -- the rename-map producer this instruction's
      destination overwrote, restored if it is squashed (set by
      :meth:`~repro.ooo.rename.RegisterMapper.define`, cleared at commit).
    """

    __slots__ = (
        "inst", "dispatch_cycle", "ssn", "issue_cycle",
        "complete_cycle", "dcache_read_cycle",
        "bypassed", "delayed", "predicted_ssn", "predicted_shift",
        "pred_hit", "sq_forwarded", "allocated_preg", "shared_with_seq",
        "predicted_store_seq", "ssn_rename_at_dispatch", "injected_op",
        "smb_applied", "squashed", "producers", "sched_kind",
        "port_class", "min_ready", "in_iq", "seq", "undo_producer",
    )

    def __init__(self, inst: DynInst, dispatch_cycle: int) -> None:
        self.inst = inst
        self.dispatch_cycle = dispatch_cycle
        self.seq = inst.seq
        self.ssn = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.allocated_preg = False
        self.shared_with_seq = -1
        self.ssn_rename_at_dispatch = 0
        self.squashed = False
        self.producers = ()
        self.sched_kind = "none"
        self.port_class = 0
        self.min_ready = 0
        self.in_iq = False
        if not inst.is_load:
            return
        # Bypassing/verification state only loads carry (and only loads
        # read): the ~75% of instructions that are not loads skip ten
        # slot initializations.
        self.dcache_read_cycle = -1
        self.bypassed = False
        self.delayed = False
        self.predicted_ssn = -1
        self.predicted_shift = -1
        self.pred_hit = False
        self.sq_forwarded = False
        self.predicted_store_seq = -1
        self.injected_op = False
        self.smb_applied = False


class ReorderBuffer:
    """A bounded in-order window of :class:`InFlightInst`.

    Entries enter at dispatch and leave either at commit (from the head) or
    through a squash (from the tail, on a verification flush).  The
    processor appends and pops ``_entries`` itself, once per dispatched
    and committed instruction; only the rare squash is a method.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: deque[InFlightInst] = deque()

    def squash_younger(self, seq: int) -> list[InFlightInst]:
        """Remove and return all entries younger than dynamic *seq*.

        Used by verification flushes: the mis-speculated load commits with
        its corrected value and everything younger re-enters the pipeline
        from the front end.
        """
        squashed: list[InFlightInst] = []
        while self._entries and self._entries[-1].seq > seq:
            squashed.append(self._entries.pop())
        squashed.reverse()
        return squashed
