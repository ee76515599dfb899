"""The batched multi-integrand scheduler.

PAGANI parallelises *one* integral across a device; production workloads
carry *many* independent integrals at once.  The scheduler interleaves any
number of :class:`~repro.core.pagani.PaganiRun` state machines over one
shared :class:`~repro.backends.base.ArrayBackend`:

* each scheduling **round** serves every live member exactly one
  breadth-first iteration — no member can be starved by construction, and
  the service order rotates round-robin so no member is systematically
  first (or last) in the fused submission either;
* the members' ``EVALUATE`` chunk thunks for the round are concatenated
  into **one** ``run_chunks`` submission, so a parallel backend sees one
  large uniform batch of independent chunks instead of N small
  per-integral sweeps (a thread pool gets chunk-level parallelism even
  when every member's sweep is a single chunk; a device backend amortises
  launch overhead);
* a member that reaches a terminal status **exits early**: its region
  store is released inside ``complete_iteration`` (device-memory
  accounting drops to zero, the arrays become collectable) while the
  stragglers keep iterating.

Numerics: a thunk only ever writes its own member's pre-allocated output
slices, so fusing changes nothing — each member computes exactly the bits
it would have computed alone.  The chunk decomposition is each member's
``chunk_budget``; :func:`repro.api.integrate_many` sets it to the
backend's ``preferred_batch_chunk_budget``, a speed setting that never
changes a bit (see :mod:`repro.cubature.evaluation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.backends import BackendLike, get_backend
from repro.core.pagani import PaganiRun
from repro.core.result import IntegrationResult
from repro.errors import ConfigurationError

class BatchMemberError(RuntimeError):
    """One or more batch members' integrands raised during a fused round.

    Every offending member was abandoned (memory released, no result);
    the rest of the batch is intact and a subsequent
    ``run()``/``run_round()`` continues without them.  ``member`` is the
    first offender's index and its exception is chained as
    ``__cause__``; ``failures`` maps every offending member index of the
    round to its exception, so no failure is lost when several members
    die in the same fused submission.
    """

    def __init__(self, failures: "Dict[int, BaseException]"):
        members = sorted(failures)
        if len(members) == 1:
            label = f"batch member {members[0]} raised ", "was abandoned"
        else:
            label = f"batch members {members} raised ", "were abandoned"
        super().__init__(
            f"{label[0]}during evaluation and {label[1]}; the remaining "
            "members are intact — call run() again to continue without "
            "the dead ones"
        )
        self.member = members[0]
        self.failures = dict(failures)


class _GuardedTask:
    """Per-member isolation wrapper around one evaluation chunk task.

    Captures ordinary exceptions into the scheduler's per-round failure
    map instead of letting them abort the fused submission
    (``Exception``, not ``BaseException``: a ``KeyboardInterrupt`` inside
    a thunk must interrupt the batch, not masquerade as an integrand
    bug).  The wrapper is transparent to the process backend's
    remote-chunk protocol: it forwards the wrapped task's ``remote_spec``
    and guards ``complete_remote`` the same way, so a remote integrand
    failure is isolated to its member exactly like a local one.
    """

    __slots__ = ("_task", "_member", "_failures", "remote_spec")

    def __init__(self, task, member: int, failures: "Dict[int, BaseException]"):
        self._task = task
        self._member = member
        self._failures = failures
        self.remote_spec = getattr(task, "remote_spec", None)

    def __call__(self) -> None:
        try:
            self._task()
        except Exception as exc:
            self._failures.setdefault(self._member, exc)

    def complete_remote(self, result=None, error=None) -> None:
        try:
            self._task.complete_remote(result=result, error=error)
        except Exception as exc:
            self._failures.setdefault(self._member, exc)


class _RetiredRun:
    """Tombstone for a retired member: finished, memoryless, resultless."""

    finished = True
    has_result = False

    def abandon(self) -> None:
        pass

    @property
    def result(self):
        raise RuntimeError("this batch member was retired; its result was "
                           "consumed and released")


_RETIRED = _RetiredRun()


@dataclass
class BatchStats:
    """Observable scheduler behaviour (tested for fairness guarantees)."""

    #: scheduling rounds executed (== max member iteration count)
    rounds: int = 0
    #: fused ``run_chunks`` submissions (one per round)
    fused_submissions: int = 0
    #: total chunk thunks submitted across all rounds
    chunks_submitted: int = 0
    #: peak number of simultaneously live members
    peak_live: int = 0
    #: iterations served per member index — fairness: while a member is
    #: live, its count equals the round number
    iterations_served: Dict[int, int] = field(default_factory=dict)
    #: member index -> round (1-based) in which it exited
    exit_round: Dict[int, int] = field(default_factory=dict)


class BatchScheduler:
    """Round-robin interleaver of PAGANI runs over one shared backend.

    Parameters
    ----------
    backend:
        The shared execution backend.  Every member run must have been
        built on this backend — fusing thunks across array libraries is a
        contradiction, and the scheduler refuses it.

    Usage::

        sched = BatchScheduler(backend="threaded")
        for run in runs:   # one PaganiIntegrator.start_run(...) each —
            sched.add(run)  # an integrator's device hosts one live run
        sched.run()
        results = [r.result for r in runs]
    """

    def __init__(self, backend: BackendLike = None):
        self.backend = get_backend(backend)
        self._runs: List[PaganiRun] = []
        self.stats = BatchStats()
        #: member index -> exception captured from its thunks this round
        self._thunk_failures: Dict[int, BaseException] = {}

    # ------------------------------------------------------------------
    def add(self, run: PaganiRun) -> int:
        """Register a run; returns its member index.

        Admission is **dynamic**: calling ``add`` between rounds splices
        the new member into the live rotation — the next ``run_round``
        serves it alongside the existing members.  (The service layer
        admits queued jobs this way as earlier jobs converge and free
        their ``max_concurrent`` slots.)  Adding *during* a round is not
        supported; rounds are atomic.
        """
        if run.backend is not self.backend:
            raise ConfigurationError(
                "batch member was built on a different backend instance "
                f"({run.backend!r}) than the scheduler's ({self.backend!r})"
            )
        if run.finished:
            raise ConfigurationError("cannot add an already-finished run")
        self._runs.append(run)
        idx = len(self._runs) - 1
        self.stats.iterations_served[idx] = 0
        return idx

    # ------------------------------------------------------------------
    @property
    def members(self) -> List[PaganiRun]:
        return list(self._runs)

    def member(self, index: int) -> PaganiRun:
        """The run at ``index`` without copying the member list."""
        return self._runs[index]

    @property
    def live(self) -> List[int]:
        """Indices of members that have not reached a terminal status."""
        return [i for i, r in enumerate(self._runs) if not r.finished]

    # ------------------------------------------------------------------
    def retire_member(self, index: int) -> None:
        """Release a finished member's run entirely (long-lived rotations).

        ``add`` only ever appends, so a scheduler hosting a stream of
        jobs would otherwise pin every finished run — with its result
        and trace — for its own lifetime.  Retiring replaces the run
        with a tombstone: the index keeps its slot (later members keep
        their indices), the member stays non-live, and :meth:`run`
        yields ``None`` for it.  Only finished members can be retired;
        the caller must have consumed the result first.
        """
        if not self._runs[index].finished:
            raise ConfigurationError("cannot retire a live member")
        self._runs[index] = _RETIRED

    # ------------------------------------------------------------------
    def abandon_member(self, index: int) -> None:
        """Cancel a live member: release its memory, record its exit.

        The member yields ``None`` in :meth:`run`'s result list, exactly
        like one abandoned after an integrand failure.  Abandoning an
        already-finished member is a no-op.  This is the in-flight
        cancellation hook of the service layer.
        """
        run = self._runs[index]
        if run.finished:
            return
        run.abandon()
        self.stats.exit_round[index] = self.stats.rounds

    # ------------------------------------------------------------------
    def run_round(self, only: Optional[Sequence[int]] = None) -> List[int]:
        """Serve one iteration to every live member; returns who exited.

        The round's evaluation thunks are fused into a single backend
        submission; completion then runs member-by-member in the round's
        service order.

        ``only`` restricts the round to a subset of member indices (the
        live members not listed simply sit the round out).  This is the
        weighted-rotation hook: a caller that serves high-priority
        members in more rounds than low-priority ones gets
        priority-proportional progress while each individual round keeps
        the fused-submission shape.  The default serves everyone —
        plain round-robin fairness, as the fairness tests assert.

        A member whose integrand raises is **isolated**: its run is
        abandoned (memory released, no result) and the exception
        re-raised after the round's healthy members complete their
        iteration, so the rest of the batch stays consistent and a
        subsequent :meth:`run`/:meth:`run_round` simply continues without
        the dead member.
        """
        live = self.live
        if only is not None:
            chosen = set(only)
            live = [i for i in live if i in chosen]
        if not live:
            return []
        # Rotate the service order by the round number: over the batch
        # lifetime every member spends equal time at the head of the fused
        # submission (first chunks scheduled) and at the tail.
        shift = self.stats.rounds % len(live)
        order = live[shift:] + live[:shift]

        tasks: List[Callable[[], None]] = []
        prepared: List[int] = []
        try:
            for i in order:
                for task in self._runs[i].prepare_evaluation():
                    tasks.append(self._guard(task, i))
                prepared.append(i)
        except BaseException:
            # Preparation itself failed: nothing was submitted, so the
            # already-prepared members just roll back and stay live.
            for i in prepared:
                self._runs[i].cancel_evaluation()
            raise

        # The guards capture thunk exceptions instead of letting them
        # abort the fused submission, so every healthy member's chunks
        # run to completion regardless of backend scheduling.  Anything
        # that still escapes (KeyboardInterrupt, a broken pool) aborts
        # the round: every member rolls back to re-preparable state —
        # re-preparing rebuilds and rewrites the output arrays, so
        # partially-executed thunks are harmless.
        self._thunk_failures.clear()
        try:
            self.backend.run_chunks(tasks)
        except BaseException:
            for i in prepared:
                self._runs[i].cancel_evaluation()
            raise
        failed = dict(self._thunk_failures)

        exited: List[int] = []
        self.stats.rounds += 1
        self.stats.fused_submissions += 1
        self.stats.chunks_submitted += len(tasks)
        self.stats.peak_live = max(self.stats.peak_live, len(live))
        for pos, i in enumerate(order):
            self.stats.iterations_served[i] += 1
            if i in failed:
                # Output arrays are indeterminate; the member is dead.
                self._runs[i].abandon()
                self.stats.exit_round[i] = self.stats.rounds
                exited.append(i)
                continue
            try:
                done = self._runs[i].complete_iteration()
            except BaseException:
                # Completion is not transactional: this member's state is
                # indeterminate, so it is abandoned; members later in the
                # service order roll back to re-preparable (their round's
                # work is redone, which is merely wasted, not wrong).
                self._runs[i].abandon()
                for j in order[pos + 1:]:
                    self._runs[j].cancel_evaluation()
                raise
            if done:
                self.stats.exit_round[i] = self.stats.rounds
                exited.append(i)
        if failed:
            raise BatchMemberError(failed) from next(iter(failed.values()))
        return exited

    # ------------------------------------------------------------------
    def _guard(self, task: Callable[[], None], member: int):
        return _GuardedTask(task, member, self._thunk_failures)

    # ------------------------------------------------------------------
    def run(self) -> List[Optional[IntegrationResult]]:
        """Drive every member to completion; results in member order.

        Members abandoned after an integrand exception (see
        :meth:`run_round`) yield ``None`` in the returned list.
        """
        while self.live:
            self.run_round()
        return [r.result if r.has_result else None for r in self._runs]
