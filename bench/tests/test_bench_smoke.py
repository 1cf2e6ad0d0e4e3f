"""Smoke test of the benchmark: the smallest tier of every workload, end to
end through the CLI, with the output check, plus one traced run."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from foldbetti import cli  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# The smallest tiers of each workload.
SMOKE_TIERS = {
    "betti_sweep": ("ex4_3", "k4_n12"),
    "betti_multiplicity": ("k3_n24_g5",),
    "verify_oracle": ("ex4_3", "k3_n7"),
}


def _run(workload, trace):
    result = run.run_workload(run.ROOT, workload, seed=0, seconds=0, trace=trace,
                              only=SMOKE_TIERS[workload])
    assert result is not None, "foldbetti sources not found"
    return result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smallest_tier_passes_the_output_check(workload):
    attempted, failed, metrics, info = _run(workload, trace=False)
    assert attempted >= 2
    assert failed == 0, info["failures"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", ["betti_sweep", "verify_oracle"])
def test_traced_run_reports_every_layer(workload):
    attempted, failed, metrics, info = _run(workload, trace=True)
    assert failed == 0, info["failures"]
    assert info["missing_wrappers"] == []
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    nodes = metrics["betti.recursion.nodes"][0]
    dispatched = sum(metrics["betti.dispatch." + kind][0] for kind in run.DISPATCH_KINDS)
    assert 0 < dispatched <= nodes
    hilbert_calls = metrics["oracle.hilbert_function.calls"][0]
    assert (hilbert_calls > 0) == (workload == "verify_oracle")


def test_golden_digests_cover_every_suite_instance():
    for workload, spec in workloads.WORKLOADS.items():
        if spec["command"] != "betti":
            continue
        golden = json.loads((BENCH / "golden" / ("%s.json" % workload)).read_text())
        keys = {hashlib.sha256(workloads.instance_text(body)).hexdigest()
                for _, _, body in workloads.suite(workload)}
        assert keys == set(golden["digests"]), workload


def test_presentations_normalize_to_the_suite_instance():
    for workload in workloads.WORKLOADS:
        block = next(workloads.block_stream(workload, 7))
        assert any(inst.text != inst.base for inst in block)
        for inst in block:
            presented = cli.to_collection(cli.parse_instance(inst.text))
            assert presented == cli.to_collection(cli.parse_instance(inst.base)), inst.key


def _first_blocks(workload, seed, count=3):
    stream = workloads.block_stream(workload, seed)
    return [inst.text for _ in range(count) for inst in next(stream)]


def test_same_seed_gives_same_instances():
    for workload in workloads.WORKLOADS:
        first = _first_blocks(workload, 7)
        assert first == _first_blocks(workload, 7)
        assert first != _first_blocks(workload, 8)
