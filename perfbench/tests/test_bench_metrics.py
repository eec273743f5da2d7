"""The metrics a run reports are the ones BENCHMARK.json declares, and the
traced report names a layer share that disagrees with the stated one."""

from __future__ import annotations

import json

import run
import spans

from kirwan.generators import gen_cpn
from kirwan.momentdata import manifold_to_json

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_are_the_declared_ones():
    untraced = [{"job_s": 0.1 * k, "import_s": 0.05, "rss_mb": 20.0} for k in range(1, 11)]
    metrics = run.end_to_end(untraced, wall=2.0, failed=0, attempted=10, setup=[0.2, 0.3, 0.25])
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert metrics["setup_s"]["value"] == 0.25


def test_traced_metrics_are_the_declared_ones(tmp_path):
    (tmp_path / "d.json").write_text(manifold_to_json(gen_cpn([0, 1, 3, 6])))
    argv = ["betti", "--input", "d.json", "--cut", "2"]
    untraced = run.run_child(0, argv, tmp_path, False)
    traced = run.run_child(0, argv, tmp_path, True)
    assert "failure" not in traced and "failure" not in untraced
    metrics, lines = spans.summarize("betti-cpn", [traced], [untraced])
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["exactmath.rref_s"]["value"] > 0
    assert metrics["kernels.serialize_s"]["value"] == 0


def test_report_names_a_share_that_disagrees():
    # 10% of job_s in pairing_matrix, against a stated 58%; 50% in rref, against 26%
    recorded = [["kernels.pairing_matrix", 0.0, 0.1, -1, 0], ["exactmath.rref", 0.2, 0.7, -1, 0]]
    traced = {"job_s": 1.0, "stdout": "", "trace": {"spans": recorded, "counters": {}, "missing": []}}
    metrics, lines = spans.summarize("betti-cpn", [traced], [{"job_s": 1.0}])
    verdicts = {line.split(":")[0]: line.rsplit(" ", 1)[1] for line in lines if line.startswith("stated")}
    assert verdicts["stated pairing_matrix about 58% cumulative (cProfile)"] == "DISAGREES"
    assert verdicts["stated rref about 26% (cProfile)"] == "DISAGREES"
    assert verdicts["stated serialization 0"] == "agrees"
    assert metrics["kernels.pairing_s"]["value"] == 0.1
