"""SAP-style logical locks.

Paper principle 2.3 and section 3.1: SAP avoids database bottlenecks
with *logical locks* — coarse-grained, named locks managed outside the
database transaction, held until deferred actions complete.  Crucially,
"these prevent access by other users, not the user who performed the
transaction": the owner can keep working (and re-acquire) while the
infrastructure finishes the asynchronous updates on their behalf.

:class:`LogicalLockManager` implements that model: non-blocking
acquisition, shared/exclusive modes, re-entrant for the same owner, and
explicit release when the deferred work completes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class LockMode(enum.Enum):
    """Lock compatibility modes."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class _LockEntry:
    """Current holders of one named lock."""

    mode: LockMode
    owners: set[str] = field(default_factory=set)


class LogicalLockManager:
    """Coarse-grained, owner-scoped, non-blocking logical locks.

    Args:
        name: Diagnostic name (e.g. the enqueue-server this stands for).

    Example:
        >>> locks = LogicalLockManager()
        >>> locks.acquire("order/o1", "alice", LockMode.EXCLUSIVE)
        True
        >>> locks.acquire("order/o1", "bob", LockMode.EXCLUSIVE)
        False
        >>> locks.acquire("order/o1", "alice", LockMode.EXCLUSIVE)  # re-entrant
        True
        >>> locks.release_all("alice")
        1
        >>> locks.acquire("order/o1", "bob", LockMode.EXCLUSIVE)
        True
    """

    def __init__(self, name: str = "logical-locks"):
        self.name = name
        self._table: dict[str, _LockEntry] = {}
        #: owner -> resources it holds, so releasing an owner's locks
        #: never scans anyone else's.
        self._held_by: dict[str, set[str]] = {}
        self.denied = 0
        self.granted = 0

    def acquire(
        self,
        resource: str,
        owner: str,
        mode: LockMode = LockMode.EXCLUSIVE,
    ) -> bool:
        """Try to take ``resource`` in ``mode`` for ``owner``.

        Returns ``True`` on success (including when ``owner`` already
        holds the lock — the owner is never blocked by their own pending
        work).  Never blocks; a ``False`` means the caller should retry
        later or surface "object locked by another user" to the user, as
        SAP systems do.
        """
        entry = self._table.get(resource)
        if entry is None:
            self._table[resource] = _LockEntry(mode=mode, owners={owner})
            self._held_by.setdefault(owner, set()).add(resource)
            self.granted += 1
            return True
        if owner in entry.owners:
            if mode is LockMode.EXCLUSIVE and (
                entry.mode is LockMode.SHARED and len(entry.owners) > 1
            ):
                self.denied += 1
                return False
            if mode is LockMode.EXCLUSIVE:
                entry.mode = LockMode.EXCLUSIVE
            self.granted += 1
            return True
        if entry.mode is LockMode.SHARED and mode is LockMode.SHARED:
            entry.owners.add(owner)
            self._held_by.setdefault(owner, set()).add(resource)
            self.granted += 1
            return True
        self.denied += 1
        return False

    def release(self, resource: str, owner: str) -> bool:
        """Release ``owner``'s hold on ``resource``.

        Returns ``True`` if something was released.
        """
        entry = self._table.get(resource)
        if entry is None or owner not in entry.owners:
            return False
        entry.owners.discard(owner)
        if not entry.owners:
            del self._table[resource]
        held = self._held_by[owner]
        held.discard(resource)
        if not held:
            del self._held_by[owner]
        return True

    def release_all(self, owner: str) -> int:
        """Release every lock held by ``owner`` (called when the
        deferred actions of their transaction have completed).

        Returns the number of locks released.  O(locks the owner
        holds): an owner that took none costs one dictionary lookup.
        """
        resources = list(self._held_by.get(owner, ()))
        for resource in resources:
            self.release(resource, owner)
        return len(resources)

    def holder_of(self, resource: str) -> Optional[set[str]]:
        """Current owners of ``resource`` (``None`` if unlocked)."""
        entry = self._table.get(resource)
        return set(entry.owners) if entry else None

    def is_locked(self, resource: str) -> bool:
        """Whether anyone holds ``resource``."""
        return resource in self._table

    @property
    def held_count(self) -> int:
        """Number of currently locked resources."""
        return len(self._table)
