"""The traced run must not change what the CLI prints, and must leave nothing behind.

    PYTHONPATH=src python -m pytest -q bench/test_bench_trace.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import spinorkit.cli as cli  # noqa: E402


def _bindings():
    """Every attribute of every spinorkit module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "spinorkit" or name.startswith("spinorkit."):
            for key, value in vars(module).items():
                out[(name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    out.update({(name, key, k): id(v) for k, v in vars(value).items()})
    return out


def _golden(workload):
    calls = workloads.make_calls(workload, workloads.DEFAULT_SEED, workloads.GOLDEN_CALLS[workload])
    return [worker.run_call(cli, c) for c in calls]


def test_traced_digests_match_untraced_and_stored():
    stored = json.loads((HERE / "digests.json").read_text())
    for workload in workloads.WORKLOADS:
        plain = worker.digest(_golden(workload))
        before = _bindings()
        with spans.Tracer() as tracer:
            traced = worker.digest(_golden(workload))
        assert traced == plain == stored[workload], workload
        assert tracer.calls["cli"] == workloads.GOLDEN_CALLS[workload]
        assert spans.leftover_wrappers() == []
        assert _bindings() == before


def test_wrappers_reach_every_binding():
    from spinorkit import diracw, exactfield, suites

    with spans.Tracer():
        assert suites.gamma is diracw.gamma
        for bound in (suites.gamma, suites.fn_bracket, suites.stream_for, exactfield.Scalar.__rmul__):
            assert hasattr(bound, spans.MARK)
        assert exactfield.Scalar(2) * 3 == 6 and 3 * exactfield.Scalar(2) == 6
    assert not hasattr(suites.gamma, spans.MARK)
    assert spans.leftover_wrappers() == []


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(spans.Tracer().layer_metrics()) | {"trace.overhead_ratio"} == {m for m, _ in spans.LAYER_METRICS}
