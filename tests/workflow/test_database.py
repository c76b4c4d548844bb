"""Tests for the workflow database (Figure 4) and replication."""

import pytest

from repro.analysis.scenarios import build_fig15_community
from repro.core.enterprise import run_community
from repro.documents.model import Document
from repro.errors import PersistenceError
from repro.workflow.database import ReplicatedDatabase, WorkflowDatabase
from repro.workflow.definitions import WorkflowBuilder
from repro.workflow.instance import INSTANCE_COMPLETED, WorkflowInstance


def _type(name="wf", version="1"):
    return (
        WorkflowBuilder(name, version=version)
        .activity("a", "noop", params={"limits": {"max": 10}})
        .build()
    )


def _instance(instance_id="I1"):
    return WorkflowInstance(instance_id, "wf", "1", ["a"])


def _instance_with_state(instance_id="I1"):
    instance = _instance(instance_id)
    instance.variables["po"] = Document(
        "normalized", "purchase_order", {"lines": [{"sku": "X", "q": 1}]}
    )
    instance.record(1.0, "step_completed", "a", "ok")
    return instance


class TestTypes:
    def test_store_and_load(self):
        db = WorkflowDatabase()
        db.store_type(_type())
        loaded = db.load_type("wf", "1")
        assert loaded.name == "wf"
        assert db.type_loads == 1 and db.type_stores == 1

    def test_load_returns_independent_copy(self):
        db = WorkflowDatabase()
        db.store_type(_type())
        first = db.load_type("wf")
        second = db.load_type("wf")
        assert first is not second
        first.metadata["mutated"] = True
        assert "mutated" not in db.load_type("wf").metadata

    def test_loaded_step_params_are_isolated(self):
        db = WorkflowDatabase()
        db.store_type(_type())
        db.load_type("wf").step("a").params["limits"]["max"] = 0
        assert db.load_type("wf").step("a").params == {"limits": {"max": 10}}

    def test_stored_type_is_isolated_from_later_mutation(self):
        db = WorkflowDatabase()
        workflow_type = _type()
        db.store_type(workflow_type)
        workflow_type.step("a").params["limits"]["max"] = 0
        assert db.load_type("wf").step("a").params == {"limits": {"max": 10}}

    def test_latest_version_resolution(self):
        db = WorkflowDatabase()
        db.store_type(_type(version="1"))
        db.store_type(_type(version="2"))
        db.store_type(_type(version="10"))
        assert db.load_type("wf").version == "10"  # numeric, not lexicographic

    def test_has_type(self):
        db = WorkflowDatabase()
        db.store_type(_type(version="2"))
        assert db.has_type("wf")
        assert db.has_type("wf", "2")
        assert not db.has_type("wf", "1")
        assert not db.has_type("other")

    def test_missing_type_raises(self):
        with pytest.raises(PersistenceError):
            WorkflowDatabase().load_type("ghost")

    def test_delete_type(self):
        db = WorkflowDatabase()
        db.store_type(_type())
        db.delete_type("wf", "1")
        assert not db.has_type("wf")
        with pytest.raises(PersistenceError):
            db.delete_type("wf", "1")

    def test_list_types(self):
        db = WorkflowDatabase()
        db.store_type(_type("a"))
        db.store_type(_type("b"))
        assert sorted(t.name for t in db.list_types()) == ["a", "b"]


class TestInstances:
    def test_store_and_load(self):
        db = WorkflowDatabase()
        db.store_instance(_instance())
        assert db.load_instance("I1").instance_id == "I1"
        assert db.instance_count() == 1

    def test_load_is_a_snapshot(self):
        db = WorkflowDatabase()
        db.store_instance(_instance())
        loaded = db.load_instance("I1")
        loaded.variables["leak"] = True
        assert "leak" not in db.load_instance("I1").variables

    def test_loaded_document_variable_is_isolated(self):
        db = WorkflowDatabase()
        db.store_instance(_instance_with_state())
        loaded = db.load_instance("I1")
        loaded.variables["po"].data["lines"][0]["q"] = 99
        assert db.load_instance("I1").variables["po"].get("lines[0].q") == 1

    def test_loaded_history_entry_is_isolated(self):
        db = WorkflowDatabase()
        db.store_instance(_instance_with_state())
        loaded = db.load_instance("I1")
        loaded.history[0]["detail"] = "rewritten"
        assert db.load_instance("I1").history[0]["detail"] == "ok"

    def test_stored_instance_is_isolated_from_later_mutation(self):
        db = WorkflowDatabase()
        instance = _instance_with_state()
        db.store_instance(instance)
        instance.variables["po"].data["lines"][0]["q"] = 99
        instance.history[0]["detail"] = "rewritten"
        loaded = db.load_instance("I1")
        assert loaded.variables["po"].get("lines[0].q") == 1
        assert loaded.history[0]["detail"] == "ok"

    def test_load_preserves_runtime_types(self):
        db = WorkflowDatabase()
        instance = _instance_with_state()
        instance.variables["pair"] = (1, 2)
        instance.set_signal("a", "b", True)
        db.store_instance(instance)
        loaded = db.load_instance("I1")
        assert isinstance(loaded.variables["po"], Document)
        assert loaded.variables["pair"] == (1, 2)
        assert loaded.signal("a", "b") is True
        assert loaded.to_dict() == instance.to_dict()

    def test_store_overwrites(self):
        db = WorkflowDatabase()
        instance = _instance()
        db.store_instance(instance)
        instance.status = INSTANCE_COMPLETED
        db.store_instance(instance)
        assert db.load_instance("I1").status == INSTANCE_COMPLETED

    def test_missing_instance_raises(self):
        with pytest.raises(PersistenceError):
            WorkflowDatabase().load_instance("ghost")

    def test_list_instances_by_status(self):
        db = WorkflowDatabase()
        first = _instance("I1")
        second = _instance("I2")
        second.status = INSTANCE_COMPLETED
        db.store_instance(first)
        db.store_instance(second)
        assert len(db.list_instances()) == 2
        assert [i.instance_id for i in db.list_instances(INSTANCE_COMPLETED)] == ["I2"]

    def test_delete_instance(self):
        db = WorkflowDatabase()
        db.store_instance(_instance())
        db.delete_instance("I1")
        assert not db.has_instance("I1")


class TestDurability:
    def test_snapshot_restore_roundtrip(self):
        db = WorkflowDatabase("primary")
        db.store_type(_type())
        db.store_instance(_instance())
        restored = WorkflowDatabase.restore(db.snapshot())
        assert restored.name == "primary"
        assert restored.has_type("wf", "1")
        assert restored.load_instance("I1").instance_id == "I1"

    def test_fig15_order_survives_json_round_trip(self):
        community = build_fig15_community(seller_delay=0.0)
        for partner_id, buyer in community.buyers.items():
            buyer.submit_order(
                "SAP", "ACME", f"PO-{partner_id}",
                [{"sku": "GPU", "quantity": 2, "unit_price": 90.0}],
            )
        run_community(community.enterprises())
        db = community.seller.wfms.database
        assert db.instance_count() >= 3
        snapshot = db.snapshot()
        restored = WorkflowDatabase.restore(snapshot)
        assert restored.snapshot() == snapshot
        assert restored.type_keys() == db.type_keys()
        for original in db.list_instances():
            copy = restored.load_instance(original.instance_id)
            assert copy.to_dict() == original.to_dict()

    def test_corrupt_snapshot_rejected(self):
        with pytest.raises(PersistenceError):
            WorkflowDatabase.restore("{not json")
        with pytest.raises(PersistenceError):
            WorkflowDatabase.restore('{"missing": "keys"}')
        # definitions are re-validated on restore, not on a later load
        with pytest.raises(PersistenceError):
            WorkflowDatabase.restore(
                '{"name": "db", "instances": [], "types": [{"name": "wf",'
                ' "version": "1", "definition": {"name": "wf", "steps": [],'
                ' "transitions": []}}]}'
            )


class TestReplication:
    def test_write_through(self):
        replica_a, replica_b = WorkflowDatabase("a"), WorkflowDatabase("b")
        primary = ReplicatedDatabase("primary", [replica_a, replica_b])
        primary.store_type(_type())
        primary.store_instance(_instance())
        for replica in (replica_a, replica_b):
            assert replica.has_type("wf", "1")
            assert replica.has_instance("I1")

    def test_delete_propagates(self):
        replica = WorkflowDatabase("a")
        primary = ReplicatedDatabase("primary", [replica])
        primary.store_instance(_instance())
        primary.delete_instance("I1")
        assert not replica.has_instance("I1")

    def test_replicas_stay_consistent_after_update(self):
        replica = WorkflowDatabase("a")
        primary = ReplicatedDatabase("primary", [replica])
        instance = _instance()
        primary.store_instance(instance)
        instance.status = INSTANCE_COMPLETED
        primary.store_instance(instance)
        assert replica.load_instance("I1").status == INSTANCE_COMPLETED

    def test_replicas_return_independent_objects(self):
        replica = WorkflowDatabase("a")
        primary = ReplicatedDatabase("primary", [replica])
        primary.store_type(_type())
        primary.store_instance(_instance_with_state())
        from_primary = primary.load_instance("I1")
        from_replica = replica.load_instance("I1")
        assert from_primary is not from_replica
        assert from_primary.variables["po"] is not from_replica.variables["po"]
        from_primary.variables["po"].data["lines"][0]["q"] = 99
        from_replica.history[0]["detail"] = "rewritten"
        primary.load_type("wf").step("a").params["limits"]["max"] = 0
        for database in (primary, replica):
            loaded = database.load_instance("I1")
            assert loaded.variables["po"].get("lines[0].q") == 1
            assert loaded.history[0]["detail"] == "ok"
            assert database.load_type("wf").step("a").params == {"limits": {"max": 10}}
        assert (primary.instance_stores, replica.instance_stores) == (1, 1)
        assert (primary.type_stores, replica.type_stores) == (1, 1)
