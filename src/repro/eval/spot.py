"""Streaming POT (SPOT) — online threshold maintenance.

The batch :mod:`repro.eval.pot` fits the tail once; production anomaly
detection (the paper's C2 setting: heavy traffic, real time) needs the
threshold to adapt as scores stream in.  ``Spot`` implements the streaming
algorithm of Siffer et al. (KDD 2017): calibrate on an initial batch, then
for each new score either flag it (above z_q), add it to the tail model
(between t and z_q, refit), or ignore it.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.eval.gpd import fit_gpd
from repro.eval.pot import PotFit, fit_pot

__all__ = ["Spot"]


class Spot:
    """Streaming peaks-over-threshold thresholder.

    Parameters
    ----------
    q:
        Target exceedance probability (alert rate) — e.g. ``1e-3``.
    level:
        Empirical quantile used for the initial threshold ``t``.
    refit_every:
        Refit the GPD tail after this many new excesses (refitting per
        point would be needlessly slow).
    """

    def __init__(self, q: float = 1e-3, level: float = 0.98,
                 refit_every: int = 16):
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self.level = level
        self.refit_every = refit_every
        self._fit: PotFit | None = None
        self._excesses: List[float] = []
        self._num_samples = 0
        self._pending = 0
        self.threshold: float = float("inf")

    @property
    def initialized(self) -> bool:
        return self._fit is not None

    def initialize(self, scores: np.ndarray) -> "Spot":
        """Calibrate on an initial batch of (mostly normal) scores."""
        scores = np.asarray(scores, dtype=float).reshape(-1)
        if not np.isfinite(scores).all():
            raise ValueError(
                "calibration scores contain non-finite values; sanitize the "
                "score stream before initializing SPOT"
            )
        self._fit = fit_pot(scores, level=self.level)
        self._excesses = list(
            scores[scores > self._fit.initial_threshold]
            - self._fit.initial_threshold
        )
        self._num_samples = scores.size
        self.threshold = self._fit.quantile(self.q)
        return self

    def step(self, score: float) -> bool:
        """Consume one score; return True when it is an alert.

        Alerts are *not* added to the tail model (they are assumed
        anomalous); sub-threshold excesses update the model.

        Non-finite scores are rejected: a single NaN appended to the excess
        set would poison every subsequent GPD refit (and therefore every
        future threshold), so the caller must sanitize or skip such scores.
        """
        if self._fit is None:
            raise RuntimeError("call initialize() before step()")
        if not math.isfinite(score):
            raise ValueError(
                f"non-finite score {score!r} passed to Spot.step(); a "
                "NaN/Inf excess would corrupt all future thresholds"
            )
        self._num_samples += 1
        if score > self.threshold:
            return True
        if score > self._fit.initial_threshold:
            self._excesses.append(score - self._fit.initial_threshold)
            self._pending += 1
            if self._pending >= self.refit_every:
                self._refit()
        return False

    def run(self, scores: np.ndarray) -> np.ndarray:
        """Vector convenience: boolean alert flags for a score stream."""
        return np.fromiter((self.step(float(s)) for s in np.asarray(scores)),
                           dtype=bool)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the full streaming state.

        Together with :meth:`from_state` this lets a serving process restart
        without re-running the (expensive) calibration pass.
        """
        fit = None
        if self._fit is not None:
            fit = {
                "initial_threshold": self._fit.initial_threshold,
                "shape": self._fit.shape,
                "scale": self._fit.scale,
                "num_excesses": self._fit.num_excesses,
                "num_samples": self._fit.num_samples,
            }
        return {
            "q": self.q,
            "level": self.level,
            "refit_every": self.refit_every,
            "fit": fit,
            "excesses": list(self._excesses),
            "num_samples": self._num_samples,
            "pending": self._pending,
            "threshold": self.threshold,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Spot":
        """Rebuild a :class:`Spot` from :meth:`state_dict` output."""
        spot = cls(q=state["q"], level=state["level"],
                   refit_every=state["refit_every"])
        if state["fit"] is not None:
            spot._fit = PotFit(**state["fit"])
        spot._excesses = [float(x) for x in state["excesses"]]
        spot._num_samples = int(state["num_samples"])
        spot._pending = int(state["pending"])
        spot.threshold = float(state["threshold"])
        return spot

    def _refit(self) -> None:
        shape, scale = fit_gpd(self._excesses)
        self._fit = PotFit(
            self._fit.initial_threshold, shape, scale,
            len(self._excesses), self._num_samples,
        )
        self.threshold = self._fit.quantile(self.q)
        self._pending = 0
