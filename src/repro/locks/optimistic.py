"""Optimistic concurrency control — the abort/retry baseline.

Principle 2.10's other foil: optimistic concurrency control "can cause
rollback if data changed since it was read".  :class:`OCCValidator`
implements classic backward validation: a committing transaction fails
if any transaction that committed after it began wrote an item it read.
Experiment E4 measures the resulting abort/retry rate against 2PL waits
and solipsistic no-conflict commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ValidationFailed


@dataclass
class _ActiveTransaction:
    """Bookkeeping for a transaction between begin and commit/abort."""

    tx_id: str
    begin_serial: int


@dataclass
class _CommittedRecord:
    """The write footprint of a committed transaction."""

    serial: int
    write_set: frozenset[str]


class OCCValidator:
    """Backward-validation optimistic concurrency control.

    Serial numbers stand in for commit timestamps: ``begin`` snapshots
    the current serial, and validation checks the write sets of every
    transaction committed since.

    Example:
        >>> occ = OCCValidator()
        >>> occ.begin("t1"); occ.begin("t2")
        >>> occ.commit("t1", read_set=["x"], write_set=["x"])
        1
        >>> occ.commit("t2", read_set=["x"], write_set=["x"])
        Traceback (most recent call last):
        ...
        repro.errors.ValidationFailed: t2 read {'x'} written by a ...
    """

    def __init__(self, history_limit: int = 10_000):
        self._serial = 0
        self._active: dict[str, _ActiveTransaction] = {}
        self._committed: list[_CommittedRecord] = []
        self._history_limit = history_limit
        self.commits = 0
        self.aborts = 0

    def begin(self, tx_id: str) -> None:
        """Start a transaction (snapshot the current commit serial)."""
        if tx_id in self._active:
            raise ValueError(f"transaction {tx_id!r} already active")
        self._active[tx_id] = _ActiveTransaction(tx_id, self._serial)

    def commit(
        self,
        tx_id: str,
        read_set: Iterable[str],
        write_set: Iterable[str],
    ) -> int:
        """Validate and commit (:meth:`validate` then :meth:`record`).

        Args:
            tx_id: The committing transaction.
            read_set: Items the transaction read.
            write_set: Items it intends to write.

        Returns:
            The commit serial number.

        Raises:
            ValidationFailed: If a concurrent committer wrote something
                in ``read_set``; the caller rolls back and retries.
        """
        self.validate(tx_id, read_set)
        return self.record(tx_id, write_set)

    def validate(self, tx_id: str, read_set: Iterable[str]) -> None:
        """Backward-validate ``read_set`` without committing.

        A transaction that passes stays active: :meth:`record` commits
        it, :meth:`abort` withdraws it (a commit can still fail after
        validation, e.g. on a blocking constraint, and must then leave
        no write behind for concurrent readers to trip over).

        Raises:
            ValidationFailed: If a concurrent committer wrote something
                in ``read_set``; the transaction is aborted.
        """
        active = self._require_active(tx_id)
        conflict = self._conflicting_writes(active.begin_serial, frozenset(read_set))
        if conflict:
            self.aborts += 1
            del self._active[tx_id]
            raise ValidationFailed(
                f"{tx_id} read {set(conflict)!r} written by a concurrent committer"
            )

    def record(self, tx_id: str, write_set: Iterable[str]) -> int:
        """Commit a validated transaction's ``write_set``; returns its
        commit serial number."""
        self._require_active(tx_id)
        self._serial += 1
        self._committed.append(
            _CommittedRecord(self._serial, frozenset(write_set))
        )
        if len(self._committed) > self._history_limit:
            self._committed = self._committed[-self._history_limit :]
        del self._active[tx_id]
        self.commits += 1
        return self._serial

    def abort(self, tx_id: str) -> None:
        """Abandon a transaction without validating."""
        self._require_active(tx_id)
        del self._active[tx_id]
        self.aborts += 1

    def _conflicting_writes(
        self, begin_serial: int, reads: frozenset[str]
    ) -> frozenset[str]:
        conflicts: set[str] = set()
        for record in reversed(self._committed):
            if record.serial <= begin_serial:
                break
            conflicts.update(record.write_set & reads)
        return frozenset(conflicts)

    def _require_active(self, tx_id: str) -> _ActiveTransaction:
        active = self._active.get(tx_id)
        if active is None:
            raise ValueError(f"transaction {tx_id!r} is not active")
        return active

    @property
    def active_count(self) -> int:
        """Transactions begun but not yet committed/aborted."""
        return len(self._active)

    @property
    def abort_rate(self) -> float:
        """Aborts as a fraction of finished transactions."""
        finished = self.commits + self.aborts
        return self.aborts / finished if finished else 0.0
