"""Context-aware DFT / IDFT: the pattern-extraction projection of MACE.

Preprocessing (paper §IV-C): for every service, slide windows over the
training series, record which Fourier bases appear among the top-``k``
strongest signals of each window, and keep the ``k`` bases with the highest
incidence as that service's *normal-pattern subspace*.  During training and
inference, the context-aware DFT projects windows onto the subspace only,
and the context-aware IDFT synthesises time series from those bases only.

Both transforms are constant linear maps, so they are exposed as autograd
modules (:class:`ContextAwareDFT`, :class:`ContextAwareIDFT`) that
gradient-check cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.spec import TensorSpec
from repro.frequency.basis import FourierBasis
from repro.frequency.dft import rfft_amplitude
from repro.nn.modules.base import Module
from repro.nn.tensor import Tensor

__all__ = [
    "count_basis_incidence",
    "select_dominant_bases",
    "ServiceSubspace",
    "ContextAwareDFT",
    "ContextAwareIDFT",
]


def count_basis_incidence(windows: np.ndarray, k: int) -> np.ndarray:
    """Count, per rFFT bin, how often it ranks in a window's top-``k``.

    ``windows`` is ``(W, T)`` for one feature.  Returns an integer count per
    bin.  The DC bin is excluded from ranking because it encodes the window
    mean rather than an oscillatory "signal".
    """
    if windows.ndim != 2:
        raise ValueError("expected (num_windows, window_length)")
    amplitude = rfft_amplitude(windows)  # (W, B), a fresh array
    bins = amplitude.shape[-1]
    amplitude[:, 0] = -np.inf
    k = min(k, bins - 1)
    top = np.argpartition(amplitude, -k, axis=-1)[:, -k:]
    counts = np.bincount(top.reshape(-1), minlength=bins)
    return counts


def select_dominant_bases(windows: np.ndarray, k: int) -> np.ndarray:
    """Select the ``k`` bases with the highest top-``k`` incidence.

    The DC bin is always part of the subset (windows are not mean-removed,
    so dropping DC would make reconstruction of the window level
    impossible); the remaining ``k - 1`` slots go to the most frequent
    oscillatory bases.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = count_basis_incidence(windows, k)
    bins = counts.size
    k = min(k, bins)
    candidates = np.argsort(counts, kind="stable")[::-1]
    selected: List[int] = [0]
    for index in candidates:
        if len(selected) >= k:
            break
        if int(index) not in selected:
            selected.append(int(index))
    return np.asarray(sorted(selected), dtype=np.int64)


def _sliding_windows(series: np.ndarray, window: int, stride: int) -> np.ndarray:
    """``(T_total,) -> (W, window)`` view with the given stride."""
    from numpy.lib.stride_tricks import sliding_window_view

    if series.shape[0] < window:
        raise ValueError("series shorter than window")
    return sliding_window_view(series, window, axis=0)[::stride]


@dataclass(eq=False)
class ServiceSubspace:
    """Per-feature Fourier bases forming one service's normal pattern.

    ``bases[f]`` is the :class:`FourierBasis` selected for feature ``f``.
    All features share ``k`` so projections stack into one tensor.
    Compared by identity, like :class:`FourierBasis`.
    """

    bases: List[FourierBasis]

    def __post_init__(self):
        if not self.bases:
            raise ValueError("subspace needs at least one feature")
        ks = {basis.k for basis in self.bases}
        if len(ks) != 1:
            raise ValueError("all features must select the same number of bases")
        windows = {basis.window for basis in self.bases}
        if len(windows) != 1:
            raise ValueError("all features must share the window length")
        # (m, 2k, T) analysis stack and (m, T, 2k) synthesis stack.
        self._forward = np.stack([basis.forward for basis in self.bases])
        self._inverse = np.stack([basis.inverse for basis in self.bases])

    @classmethod
    def fit(cls, series: np.ndarray, window: int, k: int,
            stride: int = 1) -> "ServiceSubspace":
        """Learn the subspace from a training series ``(T_total, m)``."""
        if series.ndim == 1:
            series = series[:, None]
        bases = []
        for feature in range(series.shape[1]):
            windows = _sliding_windows(series[:, feature], window, stride)
            indices = select_dominant_bases(windows, k)
            bases.append(FourierBasis(window, indices))
        return cls(bases)

    @classmethod
    def full_spectrum(cls, window: int, num_features: int) -> "ServiceSubspace":
        """Vanilla-DFT subspace (every basis), for the Table IX ablation."""
        return cls([FourierBasis.full(window) for _ in range(num_features)])

    @property
    def k(self) -> int:
        return self.bases[0].k

    @property
    def window(self) -> int:
        return self.bases[0].window

    @property
    def num_features(self) -> int:
        return len(self.bases)

    @property
    def frequencies(self) -> np.ndarray:
        """``(m, k)`` selected frequencies in cycles/sample."""
        return np.stack([basis.frequencies for basis in self.bases])

    def to_dict(self) -> dict:
        return {"bases": [basis.to_dict() for basis in self.bases]}

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceSubspace":
        return cls([FourierBasis.from_dict(b) for b in payload["bases"]])


class ContextAwareDFT(Module):
    """Differentiable projection onto a service subspace.

    Input ``(N, T, m)`` tensor, output ``(N, m, 2k)`` coefficients.  The
    weight is built in float64 and stored in ``dtype``.
    """

    def __init__(self, subspace: ServiceSubspace, normalized: bool = False,
                 dtype=np.float64):
        super().__init__()
        self.subspace = subspace
        self.normalized = normalized
        # (m, T, 2k): batched matmul weight, constant (not a Parameter).
        weight = np.swapaxes(subspace._forward, 1, 2)
        if normalized:
            # Scale coefficients to amplitude units (O(1) for unit-variance
            # windows) so high dualistic powers stay numerically stable;
            # the paired IDFT undoes the scaling.
            weight = weight * (2.0 / subspace.window)
        self._weight = Tensor(np.ascontiguousarray(weight, dtype=dtype))
        self.dtype = self._weight.dtype

    def forward(self, windows: Tensor) -> Tensor:
        n, t, m = windows.shape
        batch = windows.swapaxes(1, 2).reshape(n, m, 1, t)  # row vectors
        out = batch @ self._weight  # (N, m, 1, 2k) via batch broadcast
        return out.reshape(n, m, out.shape[-1])

    def forward_array(self, windows: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain array, without a tape (bitwise equal)."""
        n, t, m = windows.shape
        out = windows.swapaxes(1, 2).reshape(n, m, 1, t) @ self._weight.data
        return out.reshape(n, m, out.shape[-1])

    def contract(self, spec: TensorSpec) -> TensorSpec:
        spec.require_ndim(3, "ContextAwareDFT")
        spec.require_axis(1, self.subspace.window, "ContextAwareDFT", "window")
        spec.require_axis(2, self._weight.shape[0], "ContextAwareDFT",
                          "num_features")
        return spec.with_shape(
            (spec.shape[0], spec.shape[2], self._weight.shape[-1])
        )


class ContextAwareIDFT(Module):
    """Differentiable synthesis from subspace coefficients.

    Input ``(N, m, 2k)``, output ``(N, T, m)``.  The weight is built in
    float64 and stored in ``dtype``.
    """

    def __init__(self, subspace: ServiceSubspace, normalized: bool = False,
                 dtype=np.float64):
        super().__init__()
        self.subspace = subspace
        self.normalized = normalized
        # (m, 2k, T)
        weight = np.swapaxes(subspace._inverse, 1, 2)
        if normalized:
            weight = weight * (subspace.window / 2.0)
        self._weight = Tensor(np.ascontiguousarray(weight, dtype=dtype))
        self.dtype = self._weight.dtype

    def forward(self, coeffs: Tensor) -> Tensor:
        n, m, c = coeffs.shape
        batch = coeffs.reshape(n, m, 1, c) @ self._weight  # (N, m, 1, T)
        return batch.reshape(n, m, batch.shape[-1]).swapaxes(1, 2)

    def forward_array(self, coeffs: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain array, without a tape (bitwise equal)."""
        n, m, c = coeffs.shape
        batch = coeffs.reshape(n, m, 1, c) @ self._weight.data
        return batch.reshape(n, m, batch.shape[-1]).swapaxes(1, 2)

    def contract(self, spec: TensorSpec) -> TensorSpec:
        spec.require_ndim(3, "ContextAwareIDFT")
        spec.require_axis(1, self._weight.shape[0], "ContextAwareIDFT",
                          "num_features")
        spec.require_axis(2, self._weight.shape[1], "ContextAwareIDFT",
                          "num_coefficients")
        return spec.with_shape(
            (spec.shape[0], self.subspace.window, spec.shape[1])
        )
