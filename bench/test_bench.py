"""Self-test of the benchmark at toy sizes.

    python3 -m pytest bench

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both modes and on both KL paths, and that a model with a stage removed is
counted as a failed operation and kept out of the timings.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pipeline  # noqa: E402
import run  # noqa: E402
from ctxtree import CStree  # noqa: E402
from workloads import JOINT_LIMIT, WORKLOADS, Workload, make_inputs  # noqa: E402

TOYS = (
    Workload("toy-exact", (2, 3, 2, 2, 2), n=300, k_size=3, pp_rule="truth", iterations=60, exact_kl=True),
    Workload("toy-balanced", (2, 3) * 11, n=200, k_size=2, pp_rule="balanced", iterations=60),
)


BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_toys_cover_both_kl_paths():
    assert TOYS[0].exact_kl and not TOYS[1].exact_kl
    # the second toy's joint table is of its leading marginal only
    assert TOYS[1].joint_size > JOINT_LIMIT


def test_exact_kl_fits_the_joint_limit():
    assert all(w.joint_size <= JOINT_LIMIT for w in (*WORKLOADS.values(), *TOYS) if w.exact_kl)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("w", TOYS, ids=lambda w: w.name)
def test_every_metric_is_emitted_with_its_unit(w, trace, tmp_path):
    result, info = run.run(w, seed=3, seconds=0.01, trace=trace, workdir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, info
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    json.dumps(result, allow_nan=False)
    assert {"host_probe.before", "host_probe.after"} <= set(info["samples"])


def without_a_stage(tree: CStree) -> CStree:
    doc = tree.to_json_dict()
    level = next(stages for stages in doc["stagings"] if len(stages) > 1)
    del level[0]
    return CStree.from_json_dict(doc)


def test_model_with_a_stage_removed_fails_and_is_not_timed(tmp_path, monkeypatch):
    inp = make_inputs(TOYS[0], 3, tmp_path)
    good = pipeline.run_job(inp)
    assert all(pipeline.check_job(inp, good, None).values())
    calls = []

    def broken_then_good(_inp, sides):
        calls.append(None)
        if len(calls) == 2:  # the first call is the reference's warm-up
            # built inside the job: a library that refuses the model fails the job instead
            broken = replace(good, fitted=without_a_stage(good.fitted), job_s=1e-9, learn_s=1e-9)
            return [broken, good]  # the tested side goes first in the first pair
        return [good] * len(sides)

    monkeypatch.setattr(pipeline, "run_jobs", broken_then_good)
    tally = run.Tally()
    samples = run.timed_run(inp, 0.5, tally, None)
    assert tally.failed >= 1
    assert 1e-9 not in samples["job_s"] and 1e-9 not in samples["learn_s"]
    assert samples["job_s"]
