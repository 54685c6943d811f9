"""Self-tests of the end-to-end benchmark harness in ``benchmarks/suite``.

Fast by construction: the tracer and comparator are tested on a fake
clock and hand-made samples, and the workloads run at tiny sizes for no
measured time, which still exercises every set-up, operation and check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))

import compare  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import (  # noqa: E402
    Target,
    Tracer,
    installed,
    reportable_percentile,
    resolve,
    tail_percentile,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(services=2, length=160, train_epochs=1,
                       setup_epochs=1, served=2, history=96)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def helper():
    return "helper"


class Base:
    def method(self):
        return "base"


class Child(Base):
    pass


class TestTailPercentile:
    @pytest.mark.parametrize("count, expected", [
        (10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0),
        (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (0, None),
    ])
    def test_highest_percentile_with_ten_samples_beyond(self, count,
                                                        expected):
        assert reportable_percentile(count) == expected

    def test_value_and_sample_count(self):
        samples = list(np.random.default_rng(0).permutation(
            np.arange(1.0, 1001.0)))
        percentile, value, count = tail_percentile(samples)
        assert (percentile, count) == (99.0, 1000)
        assert value == pytest.approx(np.percentile(samples, 99.0))

    def test_too_few_samples_report_nothing(self):
        assert tail_percentile([1.0] * 19) is None


class TestSelfTime:
    def test_nested_wrappers_split_wall_time(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def inner():
            clock.advance(5.0)

        inner = tracer.wrap("inner", inner)

        def outer():
            clock.advance(1.0)
            inner()
            inner()
            clock.advance(2.0)

        outer = tracer.wrap("outer", outer)
        clock.advance(100.0)            # outside every span
        outer()
        assert tracer.calls == {"outer": 1, "inner": 2}
        assert tracer.self_s == {"outer": 3.0, "inner": 10.0}
        assert tracer.top_level_s == 13.0
        assert sum(tracer.self_s.values()) == tracer.top_level_s

    def test_raising_child_still_closes_its_frame(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def failing():
            clock.advance(4.0)
            raise ValueError("boom")

        failing = tracer.wrap("failing", failing)

        def outer():
            clock.advance(1.0)
            with pytest.raises(ValueError):
                failing()

        tracer.wrap("outer", outer)()
        assert tracer.self_s == {"failing": 4.0, "outer": 1.0}
        assert tracer.top_level_s == 5.0


class TestInstalled:
    def test_originals_restored_exactly(self):
        module_function = helper
        base_method = vars(Base)["method"]
        targets = [Target("helper", __name__, "helper"),
                   Target("child", __name__, "Child.method")]
        tracer = Tracer()
        with installed(tracer, targets):
            assert sys.modules[__name__].helper is not module_function
            assert helper() == "helper"
            assert Child().method() == "base"
        assert tracer.calls == {"helper": 1, "child": 1}
        assert sys.modules[__name__].helper is module_function
        assert vars(Base)["method"] is base_method
        assert "method" not in vars(Child)

    def test_restored_when_the_body_raises(self):
        base_method = vars(Base)["method"]
        with pytest.raises(RuntimeError):
            with installed(Tracer(), [Target("base", __name__,
                                             "Base.method")]):
                raise RuntimeError("boom")
        assert vars(Base)["method"] is base_method

    def test_missing_target_fails_loudly_and_restores_the_rest(self):
        targets = [Target("helper", __name__, "helper"),
                   Target("gone", __name__, "Base.no_such_method")]
        with pytest.raises(AttributeError, match="needs updating"):
            with installed(Tracer(), targets):
                pass
        assert sys.modules[__name__].helper is helper

    def test_every_program_target_resolves_and_is_restored(self):
        targets = layers.MODEL_TARGETS

        def current():
            return [vars(owner)[attribute]
                    for owner, attribute in map(resolve, targets)]

        originals = current()
        with installed(Tracer(), targets):
            patched = current()
        assert [fn.__wrapped__ for fn in patched] == originals
        assert all(now is original
                   for now, original in zip(current(), originals))


class TestMetricNames:
    @pytest.mark.parametrize("name", ["setup_s", "nn.conv1d.calls",
                                      "runtime.update_p50_ms", "9-lives",
                                      "a" * 64])
    def test_legal_names(self, name):
        assert layers.validate_name(name) == name

    @pytest.mark.parametrize("name", ["", "has space", ".hidden", "_x",
                                      "per/second", "a" * 65, "a+b"])
    def test_illegal_names(self, name):
        with pytest.raises(ValueError):
            layers.validate_name(name)

    def test_benchmark_json_matches_the_layer_map(self):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in SPEC["per_layer"]}
        assert declared == {name: (unit, better) for name, (unit, better, _)
                            in layers.LAYER_METRICS.items()}
        assert len(SPEC["per_layer"]) <= 128

    def test_every_layer_metric_maps_to_a_declared_pair(self):
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        names = {w["name"] for w in SPEC["workloads"]}
        assert names == set(workloads.WORKLOADS)
        for name, (_, _, pairs) in layers.LAYER_METRICS.items():
            assert pairs, name
            for metric, workload in pairs:
                assert metric in end_to_end and workload in names, name

    def test_every_wrapped_function_reports_calls_and_self_time(self):
        for target in layers.MODEL_TARGETS:
            assert f"{target.key}.calls" in layers.LAYER_METRICS
            assert f"{target.key}.self_s" in layers.LAYER_METRICS

    def test_spec_names_and_bounds(self):
        every = ([m["name"] for m in SPEC["end_to_end"]]
                 + [m["name"] for m in SPEC["per_layer"]]
                 + [w["name"] for w in SPEC["workloads"]])
        for name in every:
            layers.validate_name(name)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert max(bounds.values()) <= 0.25
        assert bounds["setup_s"] == max(bounds.values())


class TestComparator:
    LOWER = dict(better="lower", bound=0.10)

    def test_unchanged(self):
        assert compare.verdict([100, 101, 99, 100], [100.5, 99.5, 100, 101],
                               **self.LOWER) == "unchanged"

    def test_worse_beyond_the_bound(self):
        assert compare.verdict([100, 101, 99, 100], [115, 116, 114, 115],
                               **self.LOWER) == "worse"

    def test_worse_for_a_higher_is_better_metric(self):
        assert compare.verdict([100, 101, 99, 100], [80, 81, 79, 80],
                               better="higher", bound=0.10) == "worse"

    def test_better_beyond_the_parent_spread(self):
        assert compare.verdict([100, 101, 99, 100], [90, 91, 89, 90],
                               **self.LOWER) == "better"

    def test_small_gain_inside_the_parent_spread_is_unchanged(self):
        assert compare.verdict([95, 105, 97, 103], [99, 100, 98, 101],
                               **self.LOWER) == "unchanged"

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        assert compare.verdict([60, 100, 140, 180], [70, 110, 150, 170],
                               **self.LOWER) == "unresolved"

    def test_wide_spread_but_every_run_better(self):
        assert compare.verdict([60, 100, 140, 180], [10, 20, 30, 40],
                               **self.LOWER) == "better"

    def test_compare_sets_ignores_traced_runs(self):
        def run(workload, value, trace=0):
            return {"workload": workload, "trace": trace, "metrics": {
                "op_ms": {"value": value, "unit": "ms"}}}

        parent = {"runs": [run("stream", 1.0), run("stream", 1.0),
                           run("stream", 50.0, trace=1)]}
        change = {"runs": [run("stream", 1.3), run("stream", 1.3)]}
        spec = [{"name": "op_ms", "unit": "ms", "better": "lower",
                 "bound": 0.1}]
        (row,) = compare.compare_sets(parent, change, spec)
        assert row["verdict"] == "worse"
        assert row["parent"] == 1.0
        assert row["delta"] == pytest.approx(0.3)


class FakeKernel:
    reference_s = 0.01

    def __init__(self, *seconds):
        self.seconds = iter(seconds)

    def __call__(self):
        return next(self.seconds)


class TestCalibrator:
    def test_kernel_runs_for_its_share_of_measured_time(self):
        calibrator = speed.Calibrator(FakeKernel(*[0.0625] * 5), share=0.25)
        calibrator.keep_up(1.0)         # owes 0.25 s: four kernels
        assert len(calibrator.samples) == 4
        calibrator.keep_up(0.125)       # owes 0.03125 s: one more kernel
        calibrator.keep_up(0.125)       # ... paid for by its overshoot
        assert len(calibrator.samples) == 5

    def test_factor_scales_to_reference_speed(self):
        calibrator = speed.Calibrator(FakeKernel(0.02, 0.03, 0.02),
                                      share=1.0)
        calibrator.keep_up(0.06)
        assert calibrator.factor() == pytest.approx(0.5)

    def test_factor_without_measured_work_runs_the_kernel_once(self):
        calibrator = speed.Calibrator(FakeKernel(0.01))
        assert calibrator.factor() == 1.0
        assert len(calibrator.samples) == 1

    @pytest.mark.parametrize("kernel", [speed.PER_CALL, speed.BATCHED])
    def test_shipped_kernels_run(self, kernel):
        assert kernel() > 0.0


class TestWorkloads:
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_tiny_run_passes_every_check(self, name, trace):
        result = workloads.run(name, seed=3, seconds=0.0, trace=trace,
                               sizes=TINY)
        assert result.failed == 0, result.problems
        assert result.attempted >= 1
        kind = "per_layer" if trace else "end_to_end"
        assert set(result.metrics) == {m["name"] for m in SPEC[kind]}
        if not trace:
            assert all(value > 0 for value in result.metrics.values())

    def test_fallback_answers_count_as_failures(self, monkeypatch):
        from repro.runtime import ServingRuntime

        monkeypatch.setattr(ServingRuntime, "_try_model",
                            lambda self, service_id, health: None)
        result = workloads.run("stream", seed=3, seconds=0.0, trace=False,
                               sizes=TINY)
        assert result.failed == result.attempted > 0
        assert any("fallback" in problem for problem in result.problems)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own paths: no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
