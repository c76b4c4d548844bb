"""Tests of the order benchmark itself.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from layers import COUNT_METRICS  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    DECLARED = json.load(handle)


def span(span_id, start, end, parent=None, layer="x"):
    return Span(span_id, layer, "op", start, end, parent, None)


class TestSelfTime:
    def test_nested_tree(self):
        spans = [
            span(0, 0.0, 10.0, layer="client"),
            span(1, 1.0, 4.0, parent=0, layer="a"),
            span(2, 5.0, 9.0, parent=0, layer="b"),
            span(3, 6.0, 7.0, parent=2, layer="a"),
        ]
        own = self_times(spans)
        assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
        # Self times partition the root's wall time.
        assert sum(own.values()) == pytest.approx(10.0)

    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span(7, 1.5, 2.0)]) == {7: pytest.approx(0.5)}


def shrink(monkeypatch, workload, orders=6):
    """Make ``workload`` send only ``orders`` orders per repetition."""
    monkeypatch.setitem(WORKLOADS, workload, dataclasses.replace(WORKLOADS[workload],
                                                                 orders=orders))


def smoke(capsys, workload, seed=1, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
class TestSmoke:
    @pytest.fixture(autouse=True)
    def small(self, monkeypatch, workload):
        shrink(monkeypatch, workload)

    def test_end_to_end_metrics_present_with_units(self, capsys, workload):
        code, result = smoke(capsys, workload)
        assert code == 0 and result["correct"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] == 12  # two repetitions of six orders
        declared = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
        assert {name: value["unit"] for name, value in result["metrics"].items()} == declared
        assert all(value["value"] > 0 for value in result["metrics"].values())

    def test_per_layer_metrics_present_with_units(self, capsys, workload):
        code, result = smoke(capsys, workload, trace=1)
        assert code == 0 and result["correct"]
        declared = {metric["name"]: metric["unit"] for metric in DECLARED["per_layer"]}
        assert {name: value["unit"] for name, value in result["metrics"].items()} == declared
        metrics = {name: value["value"] for name, value in result["metrics"].items()}
        assert metrics["workflow.database.instance_stores"] > 0
        assert metrics["documents.wire_bytes"] > 0
        assert 0 <= metrics["trace.unattributed_share"] < 1
        assert (metrics["runtime.journal.bytes"] > 0) == WORKLOADS[workload].lossy_durable

    def test_seed_changes_inputs_not_metric_names(self, capsys, workload):
        spec = WORKLOADS[workload]
        assert make_inputs(spec, 1) == make_inputs(spec, 1)
        assert make_inputs(spec, 1) != make_inputs(spec, 2)
        _, first = smoke(capsys, workload, seed=1)
        _, second = smoke(capsys, workload, seed=2)
        assert first["metrics"].keys() == second["metrics"].keys()


def test_wrong_routing_is_reported(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.ROUTES, "TP2", "SAP")
    spec = dataclasses.replace(WORKLOADS["steady-small"], orders=3)
    repetition = workloads.run_repetition(spec, make_inputs(spec, 1), str(tmp_path))
    assert any("PO-1-00001" in error for error in repetition.errors)


@pytest.mark.parametrize("lossless", [True, False])
def test_lost_order_is_wrong_only_on_a_lossless_network(tmp_path, lossless):
    spec = dataclasses.replace(WORKLOADS["steady-small"], orders=3)
    hub, _ = workloads.build_hub(spec, 1, str(tmp_path))
    repetition = workloads.Repetition(setup_s=0.0)
    # Nothing was sent, so none of the orders completed.
    workloads.check_outputs(hub.community, make_inputs(spec, 1).orders, {}, repetition,
                            lossless=lossless)
    hub.close()
    assert len(repetition.errors) == (3 if lossless else 0)


# Runs the benchmark on 40 lossy-durable orders in a fresh interpreter.
SMALL_LOSSY_RUN = """
import dataclasses, sys
sys.path[:0] = ["perfbench", "src"]
import run
from workloads import WORKLOADS
WORKLOADS["lossy-durable"] = dataclasses.replace(WORKLOADS["lossy-durable"], orders=40)
sys.exit(run.main(["--workload", "lossy-durable", "--seed", "3", "--seconds", "0",
                   "--trace", "1"]))
"""


def test_same_seed_repeats_counts_across_processes():
    """Hash randomization differs between processes; the counts must not."""
    results = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", SMALL_LOSSY_RUN],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert done.returncode == 0, done.stdout[-2000:]
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["failed"] == second["failed"]
    for metric in COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_workloads_match_declaration():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in DECLARED["workloads"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
