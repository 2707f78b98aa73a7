"""BENCHMARK.json and the baseline record agree with what the runner does."""
import json

import run


def load(name):
    return json.loads((run.ROOT / name).read_text())


def test_benchmark_json_names_what_the_runner_reports():
    spec = load("BENCHMARK.json")
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_recorded_inputs_are_the_inputs_read(tmp_path):
    baseline = load("bench/baseline.json")
    assert list(baseline["workloads"]) == list(run.WORKLOADS)
    for name, record in baseline["workloads"].items():
        digest = run.input_digest(name, record["default_seed"], tmp_path / name)
        assert digest == record["input_sha256"], name
