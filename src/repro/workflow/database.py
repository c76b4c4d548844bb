"""The workflow database of Figure 4: types and instances, persisted.

Every state advance follows the paper's cycle — "the workflow engine
retrieves the state of the workflow instance in question, advances the
workflow instance and stores the advanced state ... back into the
database".  To make that boundary real (and measurable, experiment F4),
each stored type and instance is kept as one immutable pickle: a store
copies the object graph into bytes and a load copies it back out, so an
engine never holds live references into the database (in either
direction), and the ``*_stores``/``*_loads`` counters expose the
persistence traffic.  A type is validated once, when stored; loads only
unpickle.

The pickles never leave the process: :meth:`WorkflowDatabase.snapshot`
writes JSON through ``to_dict`` and :meth:`WorkflowDatabase.restore`
rebuilds objects from JSON through ``from_dict``, so only bytes this
database produced are ever unpickled.
"""

from __future__ import annotations

import json
import pickle
from typing import Any, Callable

from repro.errors import DocumentError, PersistenceError, WorkflowError
from repro.workflow.definitions import WorkflowType
from repro.workflow.instance import WorkflowInstance

__all__ = ["WorkflowDatabase", "ReplicatedDatabase"]


def _freeze(obj: WorkflowType | WorkflowInstance) -> bytes:
    return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)


class WorkflowDatabase:
    """In-memory workflow database with snapshot persistence semantics."""

    def __init__(self, name: str = "workflow-db"):
        self.name = name
        self._types: dict[tuple[str, str], bytes] = {}
        self._instances: dict[str, bytes] = {}
        self.type_stores = 0
        self.type_loads = 0
        self.instance_stores = 0
        self.instance_loads = 0

    # -- workflow types ----------------------------------------------------------

    def store_type(self, workflow_type: WorkflowType) -> None:
        """Persist (or overwrite) a workflow type definition."""
        validated = WorkflowType.from_dict(workflow_type.to_dict())
        self._put_type((validated.name, validated.version), _freeze(validated))

    def _put_type(self, key: tuple[str, str], blob: bytes) -> None:
        self._types[key] = blob
        self.type_stores += 1

    def has_type(self, name: str, version: str = "") -> bool:
        """True when the type (any version if ``version`` empty) is stored."""
        if version:
            return (name, version) in self._types
        return any(stored_name == name for stored_name, _ in self._types)

    def load_type(self, name: str, version: str = "") -> WorkflowType:
        """Load a type; empty ``version`` resolves to the highest version."""
        self.type_loads += 1
        if version:
            blob = self._types.get((name, version))
            if blob is None:
                raise PersistenceError(
                    f"{self.name}: no workflow type {name!r} version {version!r}"
                )
            return pickle.loads(blob)
        candidates = [key for key in self._types if key[0] == name]
        if not candidates:
            raise PersistenceError(f"{self.name}: no workflow type {name!r}")
        latest = max(candidates, key=lambda key: _version_sort_key(key[1]))
        return pickle.loads(self._types[latest])

    def delete_type(self, name: str, version: str) -> None:
        """Remove a stored type version."""
        try:
            del self._types[(name, version)]
        except KeyError:
            raise PersistenceError(
                f"{self.name}: no workflow type {name!r} version {version!r}"
            ) from None

    def list_types(self) -> list[WorkflowType]:
        """All stored type definitions (used by the exposure metric)."""
        return [pickle.loads(blob) for blob in self._types.values()]

    def type_keys(self) -> list[tuple[str, str]]:
        """All stored (name, version) pairs."""
        return sorted(self._types)

    # -- workflow instances ---------------------------------------------------------

    def store_instance(self, instance: WorkflowInstance) -> None:
        """Persist the instance snapshot."""
        self._put_instance(instance.instance_id, _freeze(instance))

    def _put_instance(self, instance_id: str, blob: bytes) -> None:
        self._instances[instance_id] = blob
        self.instance_stores += 1

    def has_instance(self, instance_id: str) -> bool:
        """True when an instance with this id is stored."""
        return instance_id in self._instances

    def load_instance(self, instance_id: str) -> WorkflowInstance:
        """Load an instance snapshot."""
        self.instance_loads += 1
        blob = self._instances.get(instance_id)
        if blob is None:
            raise PersistenceError(f"{self.name}: no workflow instance {instance_id!r}")
        return pickle.loads(blob)

    def delete_instance(self, instance_id: str) -> None:
        """Remove a stored instance."""
        try:
            del self._instances[instance_id]
        except KeyError:
            raise PersistenceError(
                f"{self.name}: no workflow instance {instance_id!r}"
            ) from None

    def list_instances(self, status: str | None = None) -> list[WorkflowInstance]:
        """All instances, optionally filtered by lifecycle status."""
        instances = [pickle.loads(blob) for blob in self._instances.values()]
        if status is not None:
            instances = [instance for instance in instances if instance.status == status]
        return instances

    def instance_count(self) -> int:
        """Number of stored instances."""
        return len(self._instances)

    # -- durability --------------------------------------------------------------------

    def snapshot(self) -> str:
        """Serialize the whole database to a JSON string."""
        return json.dumps(
            {
                "name": self.name,
                "types": [
                    {
                        "name": name,
                        "version": version,
                        "definition": pickle.loads(blob).to_dict(),
                    }
                    for (name, version), blob in sorted(self._types.items())
                ],
                "instances": [
                    pickle.loads(self._instances[instance_id]).to_dict()
                    for instance_id in sorted(self._instances)
                ],
            }
        )

    @classmethod
    def restore(cls, snapshot: str) -> "WorkflowDatabase":
        """Rebuild a database from :meth:`snapshot` output."""
        try:
            payload = json.loads(snapshot)
            database = cls(payload["name"])
            for entry in payload["types"]:
                workflow_type = WorkflowType.from_dict(entry["definition"])
                database._types[(entry["name"], entry["version"])] = _freeze(workflow_type)
            for entry in payload["instances"]:
                instance = WorkflowInstance.from_dict(entry)
                database._instances[instance.instance_id] = _freeze(instance)
        except (KeyError, TypeError, ValueError, DocumentError, WorkflowError) as exc:
            raise PersistenceError(f"corrupt database snapshot: {exc}") from exc
        return database


def _version_sort_key(version: str) -> tuple[int, Any]:
    """Sort numeric versions numerically, others lexicographically."""
    try:
        return (1, int(version))
    except ValueError:
        return (0, version)


class ReplicatedDatabase(WorkflowDatabase):
    """Write-through replication across replica databases (Section 2.1's
    *workflow instance replication*: "any change in one workflow engine is
    automatically, consistently and immediately reflected in all the other
    workflow engine databases").

    A store is pickled once; every replica keeps the same immutable bytes.
    """

    def __init__(self, name: str, replicas: list[WorkflowDatabase]):
        super().__init__(name)
        self.replicas = list(replicas)

    def _put_type(self, key: tuple[str, str], blob: bytes) -> None:
        super()._put_type(key, blob)
        for replica in self.replicas:
            replica._put_type(key, blob)

    def _put_instance(self, instance_id: str, blob: bytes) -> None:
        super()._put_instance(instance_id, blob)
        for replica in self.replicas:
            replica._put_instance(instance_id, blob)

    def delete_instance(self, instance_id: str) -> None:
        super().delete_instance(instance_id)
        for replica in self.replicas:
            if replica.has_instance(instance_id):
                replica.delete_instance(instance_id)


def apply_to_all(databases: list[WorkflowDatabase], action: Callable[[WorkflowDatabase], None]) -> None:
    """Apply ``action`` to every database (administration helper)."""
    for database in databases:
        action(database)
