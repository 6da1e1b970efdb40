"""Dynamic schema and application migration with continuous availability.

Paper section 3.1: "a timelessly sustainable application environment
must provide both dynamic schema migration and dynamic application
migration capabilities, with continuous availability.  The
infrastructure environment must proscribe admissible changes to schemas
and applications; not all changes will be supportable, and only
supportable changes can be permitted."

This module supplies the three pieces that sentence demands:

* **Admissibility checking** — :func:`classify_changes` diffs two
  schema versions into typed :class:`SchemaChange` records, and
  :class:`MigrationPlan` partitions them into admissible and proscribed
  (adding fields, widening ``int``→``float`` and relaxing requiredness
  are supportable; removing required fields, narrowing kinds and
  tightening requiredness are not, because committed events exist that
  the new schema could not read).
* **Lazy event upcasting** — events are immutable and stay in the log
  at the version they were written under; a
  :class:`MigratingReducer` upcasts each payload *at fold time* through
  the registered upcast chain, so old data is never rewritten and
  readers tolerate every historical version.
* **Dynamic application migration** — :class:`ApplicationMigrator`
  runs two handler versions side by side and cuts traffic over
  per-entity (deterministic hash split), so a new application version
  ramps from 0% to 100% with no pause in service.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.core.entity import EntityCatalog, EntityType
from repro.errors import SchemaViolation
from repro.lsdb.events import LogEvent
from repro.lsdb.rollup import EntityState, GenericReducer, Reducer

#: Kind-widening lattice: a value written under the key kind can always
#: be read under any kind in the value set.
_WIDENINGS: dict[str, set[str]] = {
    "int": {"int", "float", "any"},
    "float": {"float", "any"},
    "str": {"str", "any"},
    "bool": {"bool", "any"},
    "set": {"set", "any"},
    "any": {"any"},
}


class ChangeKind(enum.Enum):
    """Categories of schema change, per admissibility."""

    ADD_FIELD = "add_field"
    REMOVE_OPTIONAL_FIELD = "remove_optional_field"
    REMOVE_REQUIRED_FIELD = "remove_required_field"
    WIDEN_KIND = "widen_kind"
    NARROW_KIND = "narrow_kind"
    RELAX_REQUIRED = "relax_required"
    TIGHTEN_REQUIRED = "tighten_required"
    CHANGE_REFERENCE = "change_reference"


#: Changes the infrastructure permits (section 3.1's "supportable").
ADMISSIBLE_KINDS: frozenset[ChangeKind] = frozenset(
    {
        ChangeKind.ADD_FIELD,
        ChangeKind.REMOVE_OPTIONAL_FIELD,
        ChangeKind.WIDEN_KIND,
        ChangeKind.RELAX_REQUIRED,
        ChangeKind.CHANGE_REFERENCE,
    }
)


@dataclass(frozen=True)
class SchemaChange:
    """One observed difference between two schema versions."""

    kind: ChangeKind
    field_name: str
    detail: str = ""

    @property
    def admissible(self) -> bool:
        """Whether the infrastructure supports this change."""
        return self.kind in ADMISSIBLE_KINDS


def classify_changes(old: EntityType, new: EntityType) -> list[SchemaChange]:
    """Diff two versions of one entity type into typed changes."""
    if old.name != new.name:
        raise ValueError(f"cannot diff {old.name!r} against {new.name!r}")
    changes: list[SchemaChange] = []
    for name, spec in new.fields.items():
        if name not in old.fields:
            changes.append(SchemaChange(ChangeKind.ADD_FIELD, name, spec.kind))
    for name, old_spec in old.fields.items():
        new_spec = new.fields.get(name)
        if new_spec is None:
            kind = (
                ChangeKind.REMOVE_REQUIRED_FIELD
                if old_spec.required
                else ChangeKind.REMOVE_OPTIONAL_FIELD
            )
            changes.append(SchemaChange(kind, name))
            continue
        if old_spec.kind != new_spec.kind:
            widened = new_spec.kind in _WIDENINGS.get(old_spec.kind, set())
            changes.append(
                SchemaChange(
                    ChangeKind.WIDEN_KIND if widened else ChangeKind.NARROW_KIND,
                    name,
                    f"{old_spec.kind} -> {new_spec.kind}",
                )
            )
        if old_spec.required and not new_spec.required:
            changes.append(SchemaChange(ChangeKind.RELAX_REQUIRED, name))
        elif not old_spec.required and new_spec.required:
            changes.append(SchemaChange(ChangeKind.TIGHTEN_REQUIRED, name))
        if old_spec.reference != new_spec.reference:
            changes.append(
                SchemaChange(
                    ChangeKind.CHANGE_REFERENCE,
                    name,
                    f"{old_spec.reference} -> {new_spec.reference}",
                )
            )
    return changes


@dataclass
class MigrationPlan:
    """The admissibility verdict for a proposed schema version."""

    entity_type: str
    from_version: int
    to_version: int
    changes: list[SchemaChange] = field(default_factory=list)

    @property
    def proscribed(self) -> list[SchemaChange]:
        """Changes the infrastructure refuses."""
        return [change for change in self.changes if not change.admissible]

    @property
    def admissible(self) -> bool:
        """Whether every change is supportable."""
        return not self.proscribed


Upcast = Callable[[dict[str, Any]], dict[str, Any]]


class SchemaMigrationManager:
    """Versioned schema evolution over one catalog.

    Args:
        catalog: The entity catalog holding current type declarations.

    Example:
        >>> from repro.core.entity import FieldSpec
        >>> catalog = EntityCatalog()
        >>> v1 = EntityType.define("order", [FieldSpec("total", "int")])
        >>> _ = catalog.register(v1)
        >>> manager = SchemaMigrationManager(catalog)
        >>> v2 = EntityType.define(
        ...     "order",
        ...     [FieldSpec("total", "float"), FieldSpec("currency", "str")],
        ...     schema_version=2)
        >>> manager.propose(v2).admissible
        True
    """

    def __init__(self, catalog: EntityCatalog):
        self.catalog = catalog
        self._upcasts: dict[tuple[str, int], Upcast] = {}
        self.migrations_applied = 0
        self._attached_stores: list = []

    def attach_store(self, store) -> None:
        """Wire a store into the migration machinery.

        Locally written events get stamped with the catalog's *current*
        schema version for their type, and every registered type folds
        through a :class:`MigratingReducer` (lazy upcasting at read
        time).  Call once per store, before or after migrations.  Each
        :meth:`apply` calls ``store.reinterpret``, which drops the
        store's checkpoint, read cache and index folds; call
        ``store.rebuild_cache()`` after it so the state map re-folds
        under the new interpretation too.
        """
        store.schema_version_source = self._current_version
        for type_name in self.catalog.names():
            store.register_reducer(type_name, MigratingReducer(self))
        self._attached_stores.append(store)

    def _current_version(self, entity_type: str) -> int:
        if entity_type in self.catalog:
            return self.catalog.get(entity_type).schema_version
        return 1

    def propose(self, new_type: EntityType) -> MigrationPlan:
        """Classify the proposed version against the current one."""
        current = self.catalog.get(new_type.name)
        return MigrationPlan(
            entity_type=new_type.name,
            from_version=current.schema_version,
            to_version=new_type.schema_version,
            changes=classify_changes(current, new_type),
        )

    def apply(
        self,
        new_type: EntityType,
        upcast: Optional[Upcast] = None,
    ) -> MigrationPlan:
        """Install a new schema version — only if admissible.

        Args:
            new_type: The proposed version (``schema_version`` must be
                strictly newer).
            upcast: Payload transformer from the *previous* version to
                the new one; defaults to identity (appropriate for pure
                additions).  Stored and applied lazily at read time.

        Returns:
            The applied plan.

        Raises:
            SchemaViolation: If any change is proscribed ("only
                supportable changes can be permitted").
        """
        plan = self.propose(new_type)
        if not plan.admissible:
            details = "; ".join(
                f"{change.kind.value}({change.field_name})"
                for change in plan.proscribed
            )
            raise SchemaViolation(
                f"migration of {new_type.name!r} v{plan.from_version}->"
                f"v{plan.to_version} proscribed: {details}"
            )
        # Rows already appended were written under the old chain: fold
        # them before it changes, as an eager store would have.
        for store in self._attached_stores:
            store.fold_pending()
        self.catalog.register(new_type)
        self._upcasts[(new_type.name, plan.from_version)] = upcast or (
            lambda payload: payload
        )
        self.migrations_applied += 1
        # The log's interpretation just changed: every fold an attached
        # store froze under the old upcast chain must go.
        for store in self._attached_stores:
            store.reinterpret()
        return plan

    def upcast_payload(
        self,
        entity_type: str,
        payload: Mapping[str, Any],
        from_version: int,
    ) -> dict[str, Any]:
        """Bring a payload written at ``from_version`` up to the current
        version by chaining registered upcasts."""
        current = self.catalog.get(entity_type).schema_version
        result = dict(payload)
        version = from_version
        while version < current:
            transform = self._upcasts.get((entity_type, version))
            if transform is not None:
                result = dict(transform(result))
            version += 1
        return result


class MigratingReducer:
    """A reducer wrapper that upcasts event payloads at fold time.

    Old events stay in the log untouched (insert-only, principle 2.7);
    the *read path* translates them, so migration requires no data
    rewrite and no downtime.

    Args:
        manager: The schema migration manager holding upcast chains.
        inner: The reducer that implements the type's aggregation
            (defaults to :class:`GenericReducer`).
    """

    def __init__(
        self,
        manager: SchemaMigrationManager,
        inner: Optional[Reducer] = None,
    ):
        self.manager = manager
        self.inner = inner or GenericReducer()

    def apply(self, state: Optional[EntityState], event: LogEvent) -> EntityState:
        return self.inner.apply(state, self._translate(event))

    def fold(self, state: Optional[EntityState], event: LogEvent) -> EntityState:
        """In-place fold (see :class:`~repro.lsdb.rollup.Reducer`):
        upcasting happens per event either way, so the wrapper passes
        the mutation permission straight through to the inner reducer
        when it supports it."""
        inner_fold = getattr(self.inner, "fold", self.inner.apply)
        return inner_fold(state, self._translate(event))

    def _translate(self, event: LogEvent) -> LogEvent:
        current = self.manager.catalog.get(event.entity_type).schema_version
        if event.schema_version >= current or not event.payload:
            return event
        upcasted = self.manager.upcast_payload(
            event.entity_type, event.payload, event.schema_version
        )
        translated = LogEvent(
            lsn=event.lsn,
            timestamp=event.timestamp,
            entity_type=event.entity_type,
            entity_key=event.entity_key,
            kind=event.kind,
            payload=upcasted,
            origin=event.origin,
            origin_seq=event.origin_seq,
            tx_id=event.tx_id,
            schema_version=current,
            tags=event.tags,
        )
        return translated


@dataclass
class CutoverStatus:
    """Progress of an application migration."""

    fraction: float
    routed_to_new: int
    routed_to_old: int

    @property
    def complete(self) -> bool:
        """Whether all traffic goes to the new version."""
        return self.fraction >= 1.0


class ApplicationMigrator:
    """Side-by-side application versions with per-entity cutover.

    The routing split is a deterministic hash of the entity key, so one
    entity always sees one application version at a given fraction —
    the property that keeps per-entity state coherent mid-migration —
    and raising the fraction only ever moves entities old→new.

    Args:
        old_handler: The incumbent version.
        new_handler: The replacement version.
        name: Diagnostic name.
    """

    def __init__(
        self,
        old_handler: Callable[..., Any],
        new_handler: Callable[..., Any],
        name: str = "app-migration",
    ):
        self.old_handler = old_handler
        self.new_handler = new_handler
        self.name = name
        self._fraction = 0.0
        self._routed_new = 0
        self._routed_old = 0

    def set_fraction(self, fraction: float) -> None:
        """Ramp the share of entities served by the new version."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self._fraction = fraction

    def _bucket(self, entity_key: str) -> float:
        digest = hashlib.md5(f"{self.name}/{entity_key}".encode()).hexdigest()
        return int(digest[:8], 16) / 0xFFFFFFFF

    def uses_new(self, entity_key: str) -> bool:
        """Whether ``entity_key`` is served by the new version now."""
        return self._bucket(entity_key) < self._fraction

    def route(self, entity_key: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke whichever version owns ``entity_key``."""
        if self.uses_new(entity_key):
            self._routed_new += 1
            return self.new_handler(entity_key, *args, **kwargs)
        self._routed_old += 1
        return self.old_handler(entity_key, *args, **kwargs)

    def status(self) -> CutoverStatus:
        """Current cutover progress."""
        return CutoverStatus(
            fraction=self._fraction,
            routed_to_new=self._routed_new,
            routed_to_old=self._routed_old,
        )
