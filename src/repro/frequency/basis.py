"""Real-valued Fourier basis construction.

The context-aware DFT/IDFT of the paper project a window onto a *subset* of
Fourier bases.  To keep those projections differentiable inside the autograd
substrate we express them as constant real matrices:

* forward: ``coeffs = window @ F.T`` where ``F`` stacks the cosine and sine
  rows for the selected frequency indices (real/imaginary parts of the DFT);
* inverse: ``window ≈ coeffs @ G`` where ``G`` carries the ``2/T`` (or
  ``1/T`` for DC/Nyquist) synthesis weights of the real inverse DFT.

Projecting with the *full* index set reproduces the signal exactly (tested),
so the context-aware transforms degrade gracefully to the vanilla DFT used
by the ablation in Table IX.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "num_rfft_bins",
    "fourier_forward_matrix",
    "fourier_inverse_matrix",
    "FourierBasis",
]


def num_rfft_bins(window: int) -> int:
    """Number of non-redundant real-DFT bins for a length-``window`` signal."""
    if window < 2:
        raise ValueError("window length must be at least 2")
    return window // 2 + 1


def _validate_indices(window: int, indices: Sequence[int]) -> np.ndarray:
    bins = num_rfft_bins(window)
    idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("basis subset must contain at least one index")
    if idx.min() < 0 or idx.max() >= bins:
        raise ValueError(f"basis indices must lie in [0, {bins}) for window={window}")
    return idx


def fourier_forward_matrix(window: int, indices: Sequence[int]) -> np.ndarray:
    """Return ``(2k, window)`` analysis matrix.

    Row ``2i`` is the cosine (real) row of index ``indices[i]``; row
    ``2i + 1`` the negative sine (imaginary) row, matching
    ``numpy.fft.rfft`` conventions: ``coeffs = M @ x`` gives interleaved
    ``Re, Im`` coefficient pairs.
    """
    idx = _validate_indices(window, indices)
    t = np.arange(window)
    angles = 2.0 * np.pi * np.outer(idx, t) / window  # (k, T)
    matrix = np.empty((2 * idx.size, window))
    matrix[0::2] = np.cos(angles)
    matrix[1::2] = -np.sin(angles)
    return matrix


def fourier_inverse_matrix(window: int, indices: Sequence[int]) -> np.ndarray:
    """Return ``(window, 2k)`` synthesis matrix for interleaved Re/Im coeffs.

    Uses weight ``1/T`` for DC and (even-``T``) Nyquist bins and ``2/T``
    otherwise, so that ``inverse @ forward`` is the orthogonal projection
    onto the selected bases (identity when all bases are selected).
    """
    idx = _validate_indices(window, indices)
    t = np.arange(window)
    angles = 2.0 * np.pi * np.outer(t, idx) / window  # (T, k)
    weights = np.full(idx.size, 2.0 / window)
    weights[idx == 0] = 1.0 / window
    if window % 2 == 0:
        weights[idx == window // 2] = 1.0 / window
    matrix = np.empty((window, 2 * idx.size))
    matrix[:, 0::2] = np.cos(angles) * weights
    matrix[:, 1::2] = -np.sin(angles) * weights
    return matrix


@dataclass(frozen=True, eq=False)
class FourierBasis:
    """A selected subset of Fourier bases for one window length.

    Compared and hashed by identity: the fields are arrays, which have no
    single truth value, and nothing compares two bases by value.

    Attributes
    ----------
    window:
        Sliding-window length ``T``.
    indices:
        Sorted unique rFFT bin indices forming the normal-pattern subspace.
    """

    window: int
    indices: np.ndarray
    forward: np.ndarray = field(repr=False, default=None)
    inverse: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        idx = _validate_indices(self.window, self.indices)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "forward", fourier_forward_matrix(self.window, idx))
        object.__setattr__(self, "inverse", fourier_inverse_matrix(self.window, idx))

    @classmethod
    def full(cls, window: int) -> "FourierBasis":
        """The complete spectrum (vanilla DFT, used by ablations)."""
        return cls(window, np.arange(num_rfft_bins(window)))

    @property
    def k(self) -> int:
        """Number of selected bases."""
        return int(self.indices.size)

    @property
    def frequencies(self) -> np.ndarray:
        """Cycles-per-sample frequency of each selected basis."""
        return self.indices / float(self.window)

    def to_dict(self) -> dict:
        return {"window": self.window, "indices": self.indices.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "FourierBasis":
        return cls(int(payload["window"]), np.asarray(payload["indices"]))
