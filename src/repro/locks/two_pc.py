"""Two-phase commit over the simulated network — the distributed baseline.

Principle 2.5: "When entities from two different organizational units
are accessed in the same transaction, a distributed (two-phase commit)
transaction is required, which impacts performance and availability."
This module supplies that baseline so experiment E3 can measure the
impact: a textbook presumed-abort 2PC with a coordinator and voting
participants exchanging messages over :class:`~repro.sim.network.Network`.

The two costs the paper alludes to are both observable here:

* **performance** — a distributed commit takes two network round trips
  versus zero for a single-entity local commit;
* **availability** — a participant that voted yes is *in doubt* until it
  hears the decision; if the coordinator crashes in that window the
  participant stays blocked, holding its locks (``in_doubt`` exposes
  this set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.core.policy import Deadline, RetryPolicy, TimeoutPolicy
from repro.errors import CommitInDoubt
from repro.sim.network import Network, Node


@dataclass
class TwoPCResult:
    """Outcome of one distributed transaction."""

    tx_id: str
    decision: str  # "commit" | "abort"
    started_at: float
    decided_at: float
    completed_at: float  # all acks received

    @property
    def decision_latency(self) -> float:
        """Time from start until the coordinator decided."""
        return self.decided_at - self.started_at

    @property
    def total_latency(self) -> float:
        """Time from start until every participant acknowledged."""
        return self.completed_at - self.started_at


@dataclass
class _PendingCommit:
    """Coordinator-side state for one in-flight 2PC round."""

    tx_id: str
    participants: set[str]
    on_complete: Callable[[TwoPCResult], None]
    started_at: float
    votes: dict[str, bool] = field(default_factory=dict)
    acks: set[str] = field(default_factory=set)
    decision: Optional[str] = None
    decided_at: float = 0.0
    timeout_handle: Any = None
    attempts: int = 1
    deadline: Deadline = field(default_factory=Deadline)


class TwoPCParticipant(Node):
    """A resource manager voting in two-phase commit.

    Args:
        node_id: Network id.
        can_commit: Predicate deciding the vote for a transaction id
            (e.g. "are my local constraints satisfiable?").
        on_commit: Callback applying the transaction locally on a
            commit decision.
        on_abort: Callback rolling back on an abort decision.
    """

    def __init__(
        self,
        node_id: str,
        can_commit: Callable[[str], bool] = lambda _tx: True,
        on_commit: Optional[Callable[[str], None]] = None,
        on_abort: Optional[Callable[[str], None]] = None,
    ):
        super().__init__(node_id)
        self.can_commit = can_commit
        self.on_commit = on_commit
        self.on_abort = on_abort
        self.in_doubt: dict[str, float] = {}  # tx -> time it became in doubt
        self.blocked_time_total = 0.0
        self.committed: list[str] = []
        self.aborted: list[str] = []

    def handle_message(self, source: str, message: Mapping[str, Any]) -> None:
        kind = message.get("type")
        tx_id = message.get("tx", "")
        if kind == "prepare":
            vote = bool(self.can_commit(tx_id))
            if vote:
                # Re-prepares (coordinator retries after a lost vote)
                # must not reset the in-doubt clock: the blocking window
                # started at the *first* yes vote.
                self.in_doubt.setdefault(tx_id, self._now())
            self.send(source, {"type": "vote", "tx": tx_id, "yes": vote})
        elif kind in ("commit", "abort"):
            became_in_doubt = self.in_doubt.pop(tx_id, None)
            if became_in_doubt is not None:
                self.blocked_time_total += self._now() - became_in_doubt
            if kind == "commit":
                self.committed.append(tx_id)
                if self.on_commit:
                    self.on_commit(tx_id)
            else:
                self.aborted.append(tx_id)
                if self.on_abort:
                    self.on_abort(tx_id)
            self.send(source, {"type": "ack", "tx": tx_id})

    def _now(self) -> float:
        assert self.network is not None
        return self.network.sim.now

    def check_in_doubt(self, tx_id: str) -> None:
        """Raise :class:`~repro.errors.CommitInDoubt` if this
        participant voted yes on ``tx_id`` and is still awaiting the
        decision — the coordinator-crash blocking window of principle
        2.5, surfaced through the unified fault hierarchy."""
        since = self.in_doubt.get(tx_id)
        if since is not None:
            raise CommitInDoubt(tx_id=tx_id, since=since)


class TwoPCCoordinator(Node):
    """Presumed-abort two-phase commit coordinator.

    Args:
        node_id: Network id.
        timeout: A :class:`~repro.core.policy.TimeoutPolicy` — each
            prepare round waits ``per_attempt`` for votes; ``overall``
            bounds the whole voting phase across retries.  Exhaustion
            means a unilateral abort (covers lost messages and
            partitioned participants — the availability hit principle
            2.5 warns about).
        retry: A :class:`~repro.core.policy.RetryPolicy` re-sending
            ``prepare`` to participants whose votes are missing before
            giving up.  Default: one round, the pre-policy behaviour.
    """

    #: The historical single-round vote timeout.
    DEFAULT_TIMEOUT = TimeoutPolicy(per_attempt=100.0)

    def __init__(
        self,
        node_id: str,
        timeout: Optional[TimeoutPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(node_id)
        self.timeout_policy = timeout if timeout is not None else self.DEFAULT_TIMEOUT
        self.retry_policy = retry if retry is not None else RetryPolicy.none()
        self.retries = 0
        self._rng = None  # forked lazily from the network's simulator
        self._pending: dict[str, _PendingCommit] = {}
        self.results: list[TwoPCResult] = []

    def begin(
        self,
        tx_id: str,
        participants: list[str],
        on_complete: Optional[Callable[[TwoPCResult], None]] = None,
    ) -> None:
        """Start a 2PC round across ``participants``.

        ``on_complete`` fires when every participant acknowledged the
        decision; the result is also appended to :attr:`results`.
        """
        assert self.network is not None
        if tx_id in self._pending:
            raise ValueError(f"transaction {tx_id!r} already running")
        sim = self.network.sim
        if self._rng is None:
            self._rng = sim.fork_rng()
        pending = _PendingCommit(
            tx_id=tx_id,
            participants=set(participants),
            on_complete=on_complete or (lambda _result: None),
            started_at=sim.now,
            deadline=self.timeout_policy.start(sim.now),
        )
        self._pending[tx_id] = pending
        self._send_prepares(pending)

    def _send_prepares(self, pending: _PendingCommit) -> None:
        """One prepare round: solicit the votes still missing and arm
        the round's timeout."""
        assert self.network is not None
        sim = self.network.sim
        wait = self.timeout_policy.attempt_timeout(pending.deadline, sim.now)
        if wait is not None:
            pending.timeout_handle = sim.schedule(
                wait,
                lambda: self._on_vote_timeout(pending.tx_id),
                label=f"2pc-timeout:{pending.tx_id}",
            )
        for participant in pending.participants:
            if participant not in pending.votes:
                self.send(participant, {"type": "prepare", "tx": pending.tx_id})

    def handle_message(self, source: str, message: Mapping[str, Any]) -> None:
        kind = message.get("type")
        tx_id = message.get("tx", "")
        pending = self._pending.get(tx_id)
        if pending is None:
            return
        if kind == "vote" and pending.decision is None:
            pending.votes[source] = bool(message.get("yes"))
            if not message.get("yes"):
                self._decide(pending, "abort")
            elif set(pending.votes) == pending.participants:
                self._decide(pending, "commit")
        elif kind == "ack" and pending.decision is not None:
            pending.acks.add(source)
            if pending.acks == pending.participants:
                self._complete(pending)

    def _on_vote_timeout(self, tx_id: str) -> None:
        pending = self._pending.get(tx_id)
        if pending is None or pending.decision is not None:
            return
        assert self.network is not None
        sim = self.network.sim
        if (
            pending.deadline.remaining(sim.now) <= 0
            or not self.retry_policy.allows_retry(pending.attempts)
        ):
            self._decide(pending, "abort")
            return
        delay = self.retry_policy.delay(pending.attempts, self._rng)
        pending.attempts += 1
        self.retries += 1
        if sim.metrics is not None:
            sim.metrics.counter("twopc.retries").inc()
        sim.schedule(
            delay,
            lambda: self._retry_prepare(tx_id),
            label=f"2pc-retry:{tx_id}",
        )

    def _retry_prepare(self, tx_id: str) -> None:
        pending = self._pending.get(tx_id)
        if pending is not None and pending.decision is None:
            self._send_prepares(pending)

    def _decide(self, pending: _PendingCommit, decision: str) -> None:
        assert self.network is not None
        pending.decision = decision
        pending.decided_at = self.network.sim.now
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        for participant in pending.participants:
            self.send(participant, {"type": decision, "tx": pending.tx_id})

    def _complete(self, pending: _PendingCommit) -> None:
        assert self.network is not None
        result = TwoPCResult(
            tx_id=pending.tx_id,
            decision=pending.decision or "abort",
            started_at=pending.started_at,
            decided_at=pending.decided_at,
            completed_at=self.network.sim.now,
        )
        self.results.append(result)
        del self._pending[pending.tx_id]
        pending.on_complete(result)

    @property
    def in_flight(self) -> int:
        """2PC rounds started but not yet fully acknowledged."""
        return len(self._pending)
