"""Normal-pattern generators for synthetic services.

A *normal pattern* (paper §III) is the conditional distribution governing a
service's healthy telemetry.  We model it as a per-feature mixture of
periodic waveforms plus autoregressive noise, with a mixing matrix that
correlates features the way co-located metrics (CPU / RPS / latency) are
correlated in production fleets.  A ``diversity`` knob controls how far
apart two independently drawn patterns land, which is what distinguishes the
SMD-like profile (very diverse, Fig. 5a left) from the J-D2-like profile
(nearly identical patterns).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

__all__ = [
    "Waveform",
    "Sinusoid",
    "SquareWave",
    "SawtoothWave",
    "Trend",
    "ArNoise",
    "FeaturePattern",
    "NormalPattern",
    "random_pattern",
    "perturb_pattern",
]


def _square(angle: np.ndarray, duty: float) -> np.ndarray:
    """``scipy.signal.square(angle, duty)``, bit for bit, for a scalar duty.

    +1 on the first ``duty`` of each ``2π`` cycle, -1 after.  Written in
    NumPy, so generating data does not import ``scipy.signal`` (about
    4 MB of resident memory in every process).
    """
    if not 0.0 <= duty <= 1.0:
        raise ValueError(f"duty must be in [0, 1], got {duty}")
    return np.where(np.mod(angle, 2 * np.pi) < duty * 2 * np.pi, 1.0, -1.0)


def _sawtooth(angle: np.ndarray, width: float) -> np.ndarray:
    """``scipy.signal.sawtooth(angle, width)``, bit for bit, for a scalar
    width: a ramp from -1 up to 1 over the first ``width`` of each ``2π``
    cycle and back down over the rest."""
    if not 0.0 <= width <= 1.0:
        raise ValueError(f"width must be in [0, 1], got {width}")
    cycle = np.mod(angle, 2 * np.pi)
    # Both ramps are evaluated everywhere; at width 0 or 1 the one never
    # selected divides by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(cycle < width * 2 * np.pi,
                        cycle / (np.pi * width) - 1,
                        (np.pi * (width + 1) - cycle) / (np.pi * (1 - width)))


class Waveform:
    """Deterministic component evaluated on integer time steps."""

    def sample(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Sinusoid(Waveform):
    period: float
    amplitude: float = 1.0
    phase: float = 0.0

    def sample(self, t: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * np.pi * t / self.period + self.phase)


@dataclass(frozen=True)
class SquareWave(Waveform):
    period: float
    amplitude: float = 1.0
    duty: float = 0.5
    phase: float = 0.0

    def sample(self, t: np.ndarray) -> np.ndarray:
        angle = 2.0 * np.pi * t / self.period + self.phase
        return self.amplitude * _square(angle, self.duty)


@dataclass(frozen=True)
class SawtoothWave(Waveform):
    period: float
    amplitude: float = 1.0
    width: float = 1.0
    phase: float = 0.0

    def sample(self, t: np.ndarray) -> np.ndarray:
        angle = 2.0 * np.pi * t / self.period + self.phase
        return self.amplitude * _sawtooth(angle, self.width)


@dataclass(frozen=True)
class Trend(Waveform):
    """Slow linear drift, scaled so it stays bounded over typical lengths."""

    slope: float

    def sample(self, t: np.ndarray) -> np.ndarray:
        return self.slope * (t / 1000.0)


@dataclass(frozen=True)
class ArNoise:
    """AR(1) noise ``e_t = phi * e_{t-1} + N(0, sigma^2)``."""

    phi: float = 0.5
    sigma: float = 0.1

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        shocks = rng.normal(0.0, self.sigma, size=length)
        # The recurrence over Python floats: the same roundings as a loop
        # over NumPy scalars, at a fraction of the per-step cost.
        phi = float(self.phi)
        noise = itertools.accumulate(
            shocks.tolist(), lambda previous, shock: phi * previous + shock,
            initial=0.0)
        next(noise)  # the initial 0.0
        return np.fromiter(noise, dtype=float, count=length)


@dataclass(frozen=True)
class FeaturePattern:
    """One feature's normal behaviour: waveforms + noise + offset."""

    waveforms: tuple
    noise: ArNoise = field(default_factory=ArNoise)
    offset: float = 0.0

    def sample(self, length: int, rng: np.random.Generator,
               t0: int = 0) -> np.ndarray:
        t = np.arange(t0, t0 + length, dtype=float)
        values = np.full(length, self.offset)
        for waveform in self.waveforms:
            values += waveform.sample(t)
        values += self.noise.sample(length, rng)
        return values


@dataclass(frozen=True)
class NormalPattern:
    """Multivariate normal pattern: per-feature patterns + mixing matrix.

    ``mixing`` (m × m) linearly combines the independent feature signals,
    giving the cross-metric correlation structure of real services.
    """

    features: tuple
    mixing: np.ndarray | None = None

    @property
    def num_features(self) -> int:
        return len(self.features)

    def sample(self, length: int, rng: np.random.Generator,
               t0: int = 0) -> np.ndarray:
        columns = [f.sample(length, rng, t0=t0) for f in self.features]
        series = np.stack(columns, axis=1)
        if self.mixing is not None:
            series = series @ self.mixing.T
        return series

    def dominant_periods(self) -> List[float]:
        """Largest-amplitude period per feature (diagnostics/tests)."""
        periods = []
        for feature in self.features:
            if not feature.waveforms:
                periods.append(float("nan"))
                continue
            strongest = max(
                feature.waveforms,
                key=lambda w: getattr(w, "amplitude", 0.0),
            )
            periods.append(float(getattr(strongest, "period", float("nan"))))
        return periods


_WAVEFORM_FACTORIES = ("sin", "square", "sawtooth")


def _draw_waveform(rng: np.random.Generator, period: float,
                   amplitude: float) -> Waveform:
    kind = _WAVEFORM_FACTORIES[int(rng.integers(len(_WAVEFORM_FACTORIES)))]
    phase = float(rng.uniform(0, 2 * np.pi))
    if kind == "square":
        return SquareWave(period, amplitude, duty=float(rng.uniform(0.3, 0.7)),
                          phase=phase)
    if kind == "sawtooth":
        return SawtoothWave(period, amplitude, width=float(rng.uniform(0.5, 1.0)),
                            phase=phase)
    return Sinusoid(period, amplitude, phase)


def random_pattern(rng: np.random.Generator, num_features: int,
                   diversity: float = 1.0,
                   base_periods: Sequence[float] = (20.0, 8.0),
                   noise_sigma: float = 0.08) -> NormalPattern:
    """Draw a random normal pattern.

    ``diversity`` in [0, 1]: 0 keeps every drawn pattern near the shared
    ``base_periods`` template (J-D2 regime); 1 draws periods, waveform
    shapes, amplitudes and offsets from wide ranges (SMD regime).
    """
    if num_features < 1:
        raise ValueError("num_features must be >= 1")
    diversity = float(np.clip(diversity, 0.0, 1.0))
    features = []
    for _ in range(num_features):
        waveforms = []
        count = 1 + int(rng.integers(1 + round(2 * diversity) + 1))
        for c in range(count):
            base = base_periods[c % len(base_periods)]
            if diversity > 0:
                # Keep periods within the analysis-window scale (default 40)
                # so every pattern is resolvable by the windowed DFT; the
                # spread around the base grows with diversity.
                low = base * (1.0 - 0.8 * diversity)
                high = base * (1.0 + 1.4 * diversity)
                period = float(rng.uniform(max(4.0, low), min(high, 50.0)))
            else:
                period = base
            amplitude = float(rng.uniform(0.5, 1.5)) / (c + 1)
            if diversity > 0.3:
                waveform = _draw_waveform(rng, period, amplitude)
            else:
                waveform = Sinusoid(period, amplitude,
                                    float(rng.uniform(0, 2 * np.pi)) * diversity)
            waveforms.append(waveform)
        noise = ArNoise(
            phi=float(rng.uniform(0.2, 0.7)),
            sigma=noise_sigma * (1.0 + diversity * float(rng.uniform(0.0, 1.0))),
        )
        offset = float(rng.uniform(-1.0, 1.0)) * diversity
        features.append(FeaturePattern(tuple(waveforms), noise, offset))
    mixing = None
    if num_features > 1:
        mixing = np.eye(num_features)
        strength = 0.15 + 0.25 * diversity
        mixing += strength * rng.normal(size=(num_features, num_features)) / np.sqrt(
            num_features
        )
    return NormalPattern(tuple(features), mixing)


def perturb_pattern(pattern: NormalPattern, rng: np.random.Generator,
                    scale: float = 0.05) -> NormalPattern:
    """Small random variation of an existing pattern (same-family services)."""
    features = []
    for feature in pattern.features:
        waveforms = []
        for waveform in feature.waveforms:
            factor = 1.0 + scale * float(rng.normal())
            if isinstance(waveform, Sinusoid):
                waveforms.append(Sinusoid(waveform.period * factor,
                                          waveform.amplitude, waveform.phase))
            elif isinstance(waveform, SquareWave):
                waveforms.append(SquareWave(waveform.period * factor,
                                            waveform.amplitude, waveform.duty,
                                            waveform.phase))
            elif isinstance(waveform, SawtoothWave):
                waveforms.append(SawtoothWave(waveform.period * factor,
                                              waveform.amplitude, waveform.width,
                                              waveform.phase))
            else:
                waveforms.append(waveform)
        features.append(FeaturePattern(tuple(waveforms), feature.noise,
                                       feature.offset + scale * float(rng.normal())))
    return NormalPattern(tuple(features), pattern.mixing)
