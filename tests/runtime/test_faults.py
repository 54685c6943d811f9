"""FaultInjector: determinism, fault families, and the outage knob."""

import numpy as np
import pytest

from repro.runtime import FaultInjector, InjectedFault
from tests.runtime.test_serving import ScriptedDetector


def _corruption_train(seed, steps=500):
    injector = FaultInjector(seed=seed, corrupt_prob=0.1)
    observed = []
    for step in range(steps):
        row = np.array([float(step), -float(step)])
        out = injector.corrupt(row)
        # repr() so NaN compares equal to itself across the two trains.
        observed.append(None if out is None else repr(out.tolist()))
    return observed


class TestDeterminism:
    def test_same_seed_same_fault_train(self):
        assert _corruption_train(3) == _corruption_train(3)

    def test_different_seed_differs(self):
        assert _corruption_train(3) != _corruption_train(4)


class TestObservationFaults:
    def test_corruption_rate_and_counter(self):
        injector = FaultInjector(seed=0, corrupt_prob=0.1)
        for _ in range(2000):
            injector.corrupt(np.zeros(2))
        assert 120 <= injector.observations_corrupted <= 280

    def test_zero_prob_is_identity(self):
        injector = FaultInjector(seed=0, corrupt_prob=0.0)
        row = np.arange(3.0)
        assert injector.corrupt(row) is row
        assert injector.observations_corrupted == 0

    def test_kind_subset_respected(self):
        injector = FaultInjector(seed=0, corrupt_prob=1.0, kinds=("nan",))
        for _ in range(20):
            out = injector.corrupt(np.zeros(2))
            assert np.isnan(out).sum() == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption kinds"):
            FaultInjector(kinds=("nan", "meteor"))

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="corrupt_prob"):
            FaultInjector(corrupt_prob=1.5)


class TestScoringFaults:
    def _fitted(self):
        history = np.random.default_rng(0).normal(size=(100, 2))
        return ScriptedDetector().fit(["svc"], [history]), history

    def test_raise_prob_one_always_raises(self):
        detector, history = self._fitted()
        faulty = FaultInjector(seed=0, raise_prob=1.0).wrap_detector(detector)
        with pytest.raises(InjectedFault):
            faulty.score("svc", history)

    def test_nan_fault_poisons_last_score(self):
        detector, history = self._fitted()
        injector = FaultInjector(seed=0, raise_prob=0.0, nan_score_prob=1.0)
        scores = injector.wrap_detector(detector).score("svc", history)
        assert np.isnan(scores[-1])
        assert injector.scoring_faults == 1

    def test_fail_services_scripts_an_outage(self):
        detector, history = self._fitted()
        injector = FaultInjector(seed=0, raise_prob=0.0)
        faulty = injector.wrap_detector(detector)
        faulty.fail_services = {"svc"}
        with pytest.raises(InjectedFault, match="outage"):
            faulty.score("svc", history)
        faulty.fail_services = set()
        assert np.isfinite(faulty.score("svc", history)).all()
        assert injector.scoring_faults == 1


class TestStorageFaults:
    def test_truncate_file(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"x" * 1000)
        FaultInjector(seed=0).truncate_file(path, keep_fraction=0.25)
        assert path.stat().st_size == 250

    def test_bad_fraction_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FaultInjector(seed=0).truncate_file(tmp_path / "x", 1.0)


class TestNanServices:
    def test_nan_services_poisons_last_score_and_counts(self):
        injector = FaultInjector(seed=0, corrupt_prob=0.0, raise_prob=0.0)
        history = np.random.default_rng(0).normal(size=(100, 2))
        detector = injector.wrap_detector(
            ScriptedDetector().fit(["svc"], [history]))
        detector.nan_services.add("svc")
        scores = detector.score("svc", history)
        assert np.isnan(scores[-1])
        assert np.isfinite(scores[:-1]).all()
        assert injector.scoring_faults == 1
        detector.nan_services.discard("svc")
        assert np.isfinite(detector.score("svc", history)).all()
