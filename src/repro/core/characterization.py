"""Frequency characterization module (paper §IV-C, Fig. 4b).

Concatenates the context-aware DFT coefficients with explicitly marked
trigonometric bases — a channel carrying the frequency ω of each sine
(imaginary) slot and a channel carrying the ω of each cosine (real) slot —
then applies a three-channel convolution to produce the frequency
representation.  Marking the bases is what tells the shared network *which*
subspace a sample was projected onto, i.e. how the unified model stays aware
of each service's normal pattern.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.analysis.spec import TensorSpec, child_contract
from repro.frequency.context_aware import ServiceSubspace
from repro.nn import functional as F
from repro.nn.modules.activations import Tanh
from repro.nn.modules.base import Module
from repro.nn.modules.conv import Conv1d
from repro.nn.tensor import Tensor, concatenate

__all__ = ["frequency_marker_channels", "FrequencyCharacterization"]


def frequency_marker_channels(subspace: ServiceSubspace) -> np.ndarray:
    """Build the sin/cos marker channels for a subspace.

    Returns ``(2, m, 2k)``: channel 0 marks sine (imaginary) coefficient
    slots with their frequency ω, channel 1 marks cosine (real) slots.
    """
    frequencies = subspace.frequencies  # (m, k)
    m, k = frequencies.shape
    markers = np.zeros((2, m, 2 * k))
    markers[0, :, 1::2] = frequencies  # sine slots (imaginary parts)
    markers[1, :, 0::2] = frequencies  # cosine slots (real parts)
    return markers


class FrequencyCharacterization(Module):
    """Three-channel convolution over (coefficients, sin-ω, cos-ω).

    Input coefficients ``(N, m, 2k)`` plus a subspace; output representation
    ``(N * m, channels, 2k)``.  The output is bounded by ``tanh`` so the
    downstream high-power dualistic convolutions stay numerically stable
    (the role σ plays in the paper).

    With ``use_markers=False`` (Table IX "Frequency Characterization"
    ablation) the ω channels are dropped and a single-channel convolution is
    used.
    """

    def __init__(self, channels: int = 8, kernel_size: int = 3,
                 use_markers: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if kernel_size % 2 == 0:
            raise ValueError("characterization kernel must be odd")
        self.channels = channels
        self.use_markers = use_markers
        in_channels = 3 if use_markers else 1
        self.conv = Conv1d(in_channels, channels, kernel_size,
                           padding=kernel_size // 2, rng=rng)
        self.activation = Tanh()
        # subspace -> its marker channels in the conv weight's dtype.  Held
        # weakly: a refitted service's old subspace takes its entry with it
        # when it is freed, so a new subspace never finds another's markers.
        self._marker_cache = weakref.WeakKeyDictionary()

    def __getstate__(self) -> dict:
        # The marker cache is rebuilt on demand, and a WeakKeyDictionary
        # cannot be pickled.
        state = self.__dict__.copy()
        del state["_marker_cache"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._marker_cache = weakref.WeakKeyDictionary()

    def _markers(self, subspace: ServiceSubspace) -> np.ndarray:
        """``(m, 2, 2k)`` sine and cosine marker channels of ``subspace``,
        built once per subspace and dtype."""
        dtype = self.conv.weight.dtype
        cached = self._marker_cache.get(subspace)
        if cached is None or cached.dtype != dtype:
            cached = np.ascontiguousarray(
                frequency_marker_channels(subspace).transpose(1, 0, 2),
                dtype=dtype)
            self._marker_cache[subspace] = cached
        return cached

    def _marker_block(self, subspace: ServiceSubspace, n: int,
                      dtype) -> np.ndarray:
        """An ``(N, m, 3, 2k)`` block for ``n`` windows of coefficients in
        ``dtype``, with the marker channels tiled into channels 1 and 2.
        Channel 0 is left unset: the array path writes the coefficients
        into it, the taped path concatenates them in front of 1 and 2."""
        markers = self._markers(subspace)
        m, _, width = markers.shape
        block = np.empty((n, m, 3, width),
                         dtype=np.promote_types(dtype, markers.dtype))
        block[:, :, 1:] = markers
        return block

    def contract(self, spec: TensorSpec) -> TensorSpec:
        """``(N, m, 2k) -> (N*m, channels, 2k)`` representation."""
        spec.require_ndim(3, "FrequencyCharacterization")
        n, m, width = spec.shape
        in_channels = 3 if self.use_markers else 1
        flat = spec.with_shape((n * m, in_channels, width))
        return child_contract("conv", self.conv, flat)

    def forward(self, coeffs: Tensor, subspace: ServiceSubspace) -> Tensor:
        n, m, width = coeffs.shape
        flat = coeffs.reshape(n * m, 1, width)
        if self.use_markers:
            block = self._marker_block(subspace, n, coeffs.dtype)
            markers = block.reshape(n * m, 3, width)[:, 1:]
            flat = concatenate([flat, Tensor(markers)], axis=1)  # (N*m, 3, 2k)
        return self.activation(self.conv(flat))

    def forward_array(self, coeffs: np.ndarray,
                      subspace: ServiceSubspace) -> np.ndarray:
        """:meth:`forward` on a plain array, without a tape (bitwise equal)."""
        n, m, width = coeffs.shape
        if self.use_markers:
            # The (N*m, 3, 2k) block the taped path concatenates, with the
            # coefficients written straight into channel 0.
            block = self._marker_block(subspace, n, coeffs.dtype)
            block[:, :, 0] = coeffs
            flat = block.reshape(n * m, 3, width)
        else:
            flat = coeffs.reshape(n * m, 1, width)
        conv = self.conv
        out, _ = F.conv1d_array(flat, conv.weight.data, conv.bias.data,
                                stride=conv.stride, padding=conv.padding)
        return np.tanh(out, out=out)
