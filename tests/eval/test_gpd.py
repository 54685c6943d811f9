"""Differential test: the in-repo GPD fit against scipy's.

``repro.eval.gpd.fit_gpd`` replaces ``scipy.stats.genpareto.fit(x,
floc=0.0)`` in POT and SPOT, so that fitting, scoring and serving import
no scipy.  It must return scipy's shape and scale bit for bit
(``tobytes()``), on scipy 1.17.1 as installed:

* the objective, against scipy's ``genpareto._penalized_nnlf``, and the
  simplex, against ``scipy.optimize.fmin``, each on its own;
* on 400 seeded samples of 4 to 5,000 points: exponential, uniform,
  half-Cauchy, log-normal and GPD tails with ξ in [-0.8, 0.8], some with
  points at or below zero (outside the support at every parameter);
* on the excesses of the stream benchmark's 8 calibration score sets;
* on degenerate samples (one point, constant, huge and tiny values);
* with scipy's errors: ``ValueError`` on empty or non-finite data, a
  ``RuntimeError`` subclass when the simplex ends outside the parameter
  range.

At the callers, a ``Spot`` driven through several refits and the POT
thresholds of ``evaluate_scores`` are bitwise equal with scipy's fit
patched in and with the in-repo one.
"""

import warnings

import numpy as np
import pytest

scipy_stats = pytest.importorskip("scipy.stats")

import repro.eval.gpd as gpd  # noqa: E402
import repro.eval.pot as pot  # noqa: E402
import repro.eval.spot as spot_module  # noqa: E402
from repro.eval import Spot, evaluate_scores  # noqa: E402
from repro.eval.gpd import GpdFitError, fit_gpd  # noqa: E402

genpareto = scipy_stats.genpareto


def scipy_fit(data):
    """scipy's ``(ξ, σ)``, as a float64 pair."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shape, loc, scale = genpareto.fit(data, floc=0.0)
    assert loc == 0.0
    return np.array([shape, scale])


def assert_same_fit(data):
    expected = scipy_fit(data)
    got = np.array(fit_gpd(data))
    assert got.tobytes() == expected.tobytes(), (got, expected)


def _gpd_sample(rng, shape, scale, size):
    """Inverse-transform draws from a GPD with location 0."""
    uniform = rng.random(size)
    if shape == 0.0:
        return -scale * np.log1p(-uniform)
    return scale / shape * ((1.0 - uniform) ** -shape - 1.0)


KINDS = ("exponential", "uniform", "half_cauchy", "lognormal",
         "gpd_negative", "gpd_positive", "nonpositive")


def _sample(seed):
    """Seeded sample ``seed``: its kind cycles, one in ten has 200 to
    5,000 points, the rest 4 to 120."""
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % len(KINDS)]
    low, high = (200, 5001) if seed % 10 == 0 else (4, 121)
    size = int(rng.integers(low, high))
    if kind == "exponential":
        return kind, rng.exponential(rng.uniform(0.01, 10.0), size)
    if kind == "uniform":
        return kind, rng.uniform(0.0, rng.uniform(0.01, 10.0), size)
    if kind == "half_cauchy":
        return kind, np.abs(rng.standard_cauchy(size))
    if kind == "lognormal":
        return kind, rng.lognormal(0.0, 2.0, size)
    if kind == "gpd_negative":
        return kind, _gpd_sample(rng, rng.uniform(-0.8, 0.0),
                                 rng.uniform(0.1, 5.0), size)
    if kind == "gpd_positive":
        return kind, _gpd_sample(rng, rng.uniform(0.0, 0.8),
                                 rng.uniform(0.1, 5.0), size)
    # Excesses shifted down, so some points are at or below zero.
    return kind, rng.exponential(1.0, size) - rng.uniform(0.0, 0.5)


def test_equal_to_scipy_on_400_seeded_samples(monkeypatch):
    outside = set()
    objective = gpd._penalized_nll

    def recording(theta, data):
        shape, scale = theta
        if scale > 0 and np.isfinite(shape):
            z = data / scale
            upper = -1.0 / shape if shape < 0 else np.inf
            if ((z < 0) | (z > upper)).any():
                outside.add(kind)
        return objective(theta, data)

    monkeypatch.setattr(gpd, "_penalized_nll", recording)
    sizes = []
    for seed in range(400):
        kind, data = _sample(seed)
        sizes.append(data.size)
        assert_same_fit(data)
    assert min(sizes) == 4 and max(sizes) > 4000
    # The penalty for points outside the support was exercised, on the
    # bounded tails and on data below zero.
    assert {"gpd_negative", "uniform", "nonpositive"} <= outside


def test_objective_equal_to_scipys_penalized_nnlf():
    """Every branch: inside and outside the support, ξ = 0, ξ = -1 (where
    xlog1py's first argument is 0), 1 + ξz on both sides of Cephes'
    log1p switch, and parameters out of range."""
    rng = np.random.default_rng(5)
    data = np.concatenate([rng.exponential(1.0, 200), [0.0, 1e-300, 50.0]])
    shapes = [0.0, -0.0, -1.0, 1.0, -0.5, 0.3, 1e-12, -1e-12, 5.0, -5.0,
              np.inf, np.nan] + list(rng.uniform(-2.0, 2.0, 200))
    scales = [1.0, 1e-3, 1e3, 0.0, -1.0, np.inf, np.nan, 1e-300]
    for shape in shapes:
        for scale in scales + list(rng.uniform(0.01, 10.0, 3)):
            theta = np.array([shape, scale])
            expected = genpareto._penalized_nnlf([shape, 0.0, scale], data)
            with np.errstate(all="ignore"):
                got = gpd._penalized_nll(theta, data)
            assert np.float64(got).tobytes() == \
                np.float64(expected).tobytes(), (shape, scale)


def test_log1p_equal_to_scipys_xlog1py():
    from scipy.special import xlog1py

    rng = np.random.default_rng(9)
    y = np.concatenate([
        np.linspace(-1.0, 3.0, 20001), np.geomspace(1e-300, 1e300, 2001),
        -np.geomspace(1e-300, 1.0, 2001), [0.0, -0.0, np.inf, np.nan],
        rng.uniform(-1.0, 5.0, 20000) * rng.choice([1e-3, 1.0, 1e5], 20000),
    ])
    with np.errstate(all="ignore"):
        for a in (1.0, 0.3, -0.7, 2.5, 0.0):
            assert gpd._xlog1py(a, y).tobytes() == xlog1py(a, y).tobytes()


def _rosenbrock(x, offset):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2) + offset)


def _slope(x, offset):
    """Unbounded below: the simplex expands until its budget is spent."""
    return float(offset - x.sum())


@pytest.mark.parametrize("func, start", [
    (_rosenbrock, [-1.2, 1.0]), (_rosenbrock, [0.0, 0.0]),
    (_rosenbrock, [10.0, -10.0, 3.0, 5.0, -7.0]),
    (_slope, [1.0, 1.0]), (_slope, [0.0, 2.0, -1.0]),
])
def test_simplex_equal_to_scipys_fmin(func, start):
    """Converging runs, a zero coordinate (fmin's ``zdelt`` step) and runs
    that spend fmin's whole evaluation budget."""
    from scipy.optimize import fmin

    expected = fmin(func, start, args=(0.5,), disp=0)
    got = gpd._fmin(func, start, 0.5)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("data", [
    [1.0], [0.0], [-5.0], [0.0] * 5, [2.5] * 7, [-1.0, -2.0, -3.0, -4.0],
    [1e308] * 4, [1e-308] * 5, [5e-324, 1.0, 2.0, 3.0],
    [1e-300, 1e308, 1.0, 2.0], [-1e300, 1e300, 0.0, 1.0],
], ids=lambda data: f"{len(data)}pts")
def test_equal_to_scipy_on_degenerate_samples(data):
    assert_same_fit(np.array(data))


def test_equal_to_scipy_on_the_stream_benchmarks_calibration_sets(
        monkeypatch):
    """The 8 calibration score sets of the stream workload at its default
    sizes and seed: a 3-epoch detector over 10 smd services of 1,024
    points, each served service calibrated on its last 512 train rows."""
    from repro.core import MaceConfig, MaceDetector
    from repro.data import load_dataset
    from repro.runtime import ServingRuntime

    dataset = load_dataset("smd", num_services=10, train_length=1024,
                           test_length=1024, seed=7)
    detector = MaceDetector(MaceConfig(epochs=3)).fit(
        [service.service_id for service in dataset],
        [service.train for service in dataset])
    calibrations = []
    initialize = Spot.initialize

    def recording(self, scores):
        calibrations.append(np.array(scores, dtype=float))
        return initialize(self, scores)

    monkeypatch.setattr(Spot, "initialize", recording)
    runtime = ServingRuntime(detector, window=40, q=1e-3)
    for service in dataset.services[:8]:
        runtime.start_service(service.service_id, service.train[-512:])
    assert len(calibrations) == 8
    for scores in calibrations:
        initial = np.quantile(scores, 0.98)
        excesses = scores[scores > initial] - initial
        assert excesses.size >= 4
        assert_same_fit(excesses)


@pytest.mark.parametrize("data", [
    [], [1.0, np.nan, 2.0], [1.0, np.inf], [-np.inf, 1.0, 2.0, 3.0],
], ids=["empty", "nan", "inf", "-inf"])
def test_bad_data_raises_value_error_like_scipy(data):
    with pytest.raises(ValueError):
        scipy_fit(np.array(data))
    with pytest.raises(ValueError):
        fit_gpd(np.array(data))


@pytest.mark.parametrize("vertex", [[1.0, -1.0], [1.0, 0.0],
                                    [np.nan, 1.0], [np.inf, 1.0]])
def test_fit_outside_the_parameter_range_raises_like_scipy(monkeypatch,
                                                           vertex):
    """Both fits check where their simplex ended.  With finite data the
    best vertex always lies inside the range, so the simplex is replaced
    by one that ends outside it, on both sides."""

    def ends_outside(func, x0, args=(), disp=0):
        return np.array(vertex)

    data = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(scipy_stats.FitError):
        genpareto.fit(data, floc=0.0, optimizer=ends_outside)
    monkeypatch.setattr(gpd, "_fmin", lambda func, x0, data: ends_outside(
        func, x0, (data,)))
    with pytest.raises(GpdFitError):
        fit_gpd(data)
    assert issubclass(GpdFitError, RuntimeError)
    assert issubclass(scipy_stats.FitError, RuntimeError)


def _spot_states(stream_seed):
    """``state_dict()`` after calibration and after each of several
    refits, for one seeded score stream."""
    rng = np.random.default_rng(stream_seed)
    spot = Spot(q=1e-3, level=0.95, refit_every=8)
    spot.initialize(rng.gamma(2.0, 1.0, 2000))
    states = [spot.state_dict()]
    for score in rng.gamma(2.0, 1.2, 1500):
        spot.step(float(score))
        if spot.state_dict()["fit"] != states[-1]["fit"]:
            states.append(spot.state_dict())
    return states


def _pot_thresholds():
    rng = np.random.default_rng(23)
    labels = np.zeros(3000, dtype=bool)
    labels[1000:1020] = True
    series = [rng.exponential(1.0, 3000), np.abs(rng.standard_cauchy(3000)),
              rng.lognormal(0.0, 1.0, 3000), rng.uniform(0.0, 1.0, 3000)]
    return [evaluate_scores(scores, labels, "pot").threshold
            for scores in series]


def _with_scipy_fit(monkeypatch):
    def scipy_gpd(data):
        shape, scale = scipy_fit(np.asarray(data, dtype=float))
        return float(shape), float(scale)

    monkeypatch.setattr(pot, "fit_gpd", scipy_gpd)
    monkeypatch.setattr(spot_module, "fit_gpd", scipy_gpd)


def test_callers_bitwise_equal_with_scipys_fit_patched_in(monkeypatch):
    ours = ([_spot_states(seed) for seed in range(3)], _pot_thresholds())
    _with_scipy_fit(monkeypatch)
    theirs = ([_spot_states(seed) for seed in range(3)], _pot_thresholds())
    for states in ours[0]:
        assert len(states) > 4   # calibration plus several refits
    assert repr(ours) == repr(theirs)
    assert np.array(ours[1]).tobytes() == np.array(theirs[1]).tobytes()
