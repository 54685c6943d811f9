"""Dualistic convolution (paper §IV-B, Eq. 2).

``DualisticConv(x) = (Conv(x^γ / σ, s))^{1/γ}`` with odd γ.  The *peak*
branch uses γ as-is and emphasises upward deviations; the *valley* branch
emphasises downward deviations.  The paper defines the valley branch via a
negative odd power, which is singular at zero on real telemetry; our default
implements it as the peak convolution of the negated signal
(``-Peak(-x)``), which is symmetric, bounded and preserves Eq. 2's behaviour
on constants.  The literal variant is available as ``valley_mode =
"negative_gamma"`` (with an ε-clamp) for completeness.

Two deployment regimes (paper §IV-B):

* time domain — stride 1, fixed uniform kernel: a weighted summation that
  *extends* a short anomaly across the kernel span (Fig. 3b);
* frequency domain — stride = kernel length, learnable kernel inside the
  autoencoder: approximates per-segment max/min pooling of amplitudes
  (Fig. 4a), hindering anomaly reconstruction (Theorem 1).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.spec import ContractError, TensorSpec, child_contract, merge_dtype
from repro.nn import functional as F
from repro.nn import init
from repro.nn.modules.base import Module
from repro.nn.tensor import (
    Parameter,
    Tensor,
    clip_array,
    odd_power,
    odd_power_array,
    odd_root,
    odd_root_array,
)

__all__ = [
    "dualistic_conv_numpy",
    "DualisticConv1d",
    "TimeDomainAmplifier",
]


def dualistic_conv_numpy(x: np.ndarray, gamma: int, sigma: float,
                         kernel: np.ndarray, stride: int = 1) -> np.ndarray:
    """Reference NumPy implementation of Eq. 2 for a 1-D signal.

    Used by tests and the Fig. 3 benches; the autograd module below must
    agree with it (tested).
    """
    if gamma % 2 == 0 or gamma == 0:
        raise ValueError("gamma must be a non-zero odd integer")
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    powered = np.sign(x) * np.abs(x) ** gamma / sigma
    length = x.size - kernel.size + 1
    out = np.empty((length - 1) // stride + 1)  # noqa: REP110 - loop writes every element once
    for row, start in enumerate(range(0, length, stride)):
        value = float(powered[start:start + kernel.size] @ kernel)
        out[row] = np.sign(value) * np.abs(value) ** (1.0 / gamma)
    return out


class DualisticConv1d(Module):
    """Channel-mixing dualistic convolution layer.

    Parameters
    ----------
    in_channels, out_channels, kernel_size, stride:
        As in a standard ``Conv1d``.
    gamma:
        Odd power γ ≥ 1.  γ = 1 degrades to a standard convolution
        (the Table IX / Fig. 6b ablation path).
    sigma:
        Positive scaling factor stabilising the powered values.
    mode:
        ``"peak"`` or ``"valley"`` (valley = ``-peak(-x)`` by default).
    shift:
        Positivity offset ``c``: the op computes
        ``(Conv((x + c)^γ / σ))^{1/γ} − c`` (mirrored for valley).  This is
        essential: Eq. 2's operator is *odd*, so without a shift
        ``-peak(-x)`` collapses to ``peak(x)`` and the two branches would be
        identical.  With ``c`` large enough to keep ``x + c > 0`` the peak
        branch approximates a per-window max and the valley branch a
        per-window min (Fig. 4a), which is the stated intent.  ``shift = 0``
        recovers the raw Eq. 2 operator (dominated by the largest
        *magnitude* regardless of direction).
    valley_mode:
        ``"negated"`` (default) or ``"negative_gamma"`` (literal Eq. 2 with
        γ < −1 and an ε-clamped magnitude).
    learnable:
        When False the kernel is a fixed uniform averaging kernel (the time
        domain amplifier regime); when True the kernel is trained.  The
        theory assumes non-negative kernel weights, so the learnable kernel
        is used through its absolute value.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, gamma: int = 3, sigma: float = 5.0,
                 mode: str = "peak", shift: float = 0.0,
                 valley_mode: str = "negated",
                 padding: int = 0, learnable: bool = True, eps: float = 1e-4,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if gamma < 1 or gamma % 2 == 0:
            raise ValueError("gamma must be a positive odd integer")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if mode not in ("peak", "valley"):
            raise ValueError("mode must be 'peak' or 'valley'")
        if valley_mode not in ("negated", "negative_gamma"):
            raise ValueError("valley_mode must be 'negated' or 'negative_gamma'")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.gamma = gamma
        self.sigma = sigma
        self.mode = mode
        self.shift = float(shift)
        self.valley_mode = valley_mode
        self.padding = padding
        self.learnable = learnable
        self.eps = eps
        if learnable:
            self.weight = Parameter(
                np.abs(init.kaiming_uniform(
                    (out_channels, in_channels, kernel_size), rng=rng))
            )
        else:
            if in_channels != out_channels:
                raise ValueError("fixed-kernel mode requires in == out channels")
            # Depthwise uniform kernel expressed as a diagonal channel mixer.
            weight = np.zeros((out_channels, in_channels, kernel_size))
            for channel in range(in_channels):
                weight[channel, channel, :] = 1.0 / kernel_size
            self.register_buffer("fixed_weight", weight)
        # The tape-free path's weight-derived operands (``_scoring_kernel``),
        # with the key they were computed for.  A plain attribute: not a
        # parameter or buffer, so never in ``state_dict()``.
        self._scoring_operands: tuple = ()

    def __getstate__(self) -> dict:
        # The scoring operands are rebuilt on demand; a pickle need not
        # carry them.
        state = self.__dict__.copy()
        state["_scoring_operands"] = ()
        return state

    def _kernel(self) -> Tensor:
        if self.learnable:
            return self.weight.abs()
        return Tensor(self.fixed_weight)

    @staticmethod
    def _directions(data: np.ndarray) -> np.ndarray:
        """The sign the literal valley keeps: -1 below zero, +1 elsewhere.

        Zeros take +1: scaling by sign(0) = 0 would hand odd_power a zero,
        whose negative power is infinite.
        """
        return np.where(data < 0, -1.0, 1.0).astype(data.dtype)

    def _shift_correction(self, kernel: np.ndarray) -> np.ndarray:
        """``(1, C_out, 1)`` offset that removes the shift after the root.

        The kernel mass and σ scale (x + c) multiplicatively before the
        root, so the shift must be removed at the same scale:
        root ≈ (max(x) + c) * (mass/σ)^{1/γ}.  A plain "- c" would leave a
        large DC offset on the output (fatal ahead of the DFT).
        """
        mass = np.abs(kernel).sum(axis=(1, 2))  # per out-channel
        correction = self.shift * (mass / self.sigma) ** (1.0 / float(self.gamma))
        return correction[None, :, None]

    def _scoring_kernel(self) -> tuple:
        """``(kernel, shift correction or None)`` for :meth:`forward_array`.

        Computed once per weight version rather than once per call.  The
        key is the weight array itself (compared with ``is``) and the
        parameter's ``_version``: every write to a parameter rebinds
        ``.data`` through the setter, which bumps the version, so an
        optimizer step, ``load_state_dict`` or ``to`` all miss and
        recompute.  A fixed kernel is a buffer, rebound on every change.
        """
        if self.learnable:
            source, version = self.weight.data, self.weight._version
        else:
            source, version = self.fixed_weight, 0
        cached = self._scoring_operands
        if not cached or cached[0] is not source or cached[1] != version:
            kernel = np.abs(source) if self.learnable else source
            correction = self._shift_correction(kernel) if self.shift else None
            cached = (source, version, kernel, correction)
            self._scoring_operands = cached
        return cached[2], cached[3]

    def forward(self, x: Tensor) -> Tensor:
        return self._forward(x, lambda powered, kernel: F.conv1d(
            powered, kernel, stride=self.stride, padding=self.padding))

    def forward_tiles(self, tiles: Tensor) -> Tensor:
        """:meth:`forward` for ``stride == kernel_size`` and no padding,
        from the ``(C, K, R, L)`` tiles of its input (``F.tile``) to the
        ``(O, R, L)`` product layout (``F.conv1d_tiles``).  The same ops on
        the same values, so the result and the weight's gradient are
        bitwise equal to ``forward``'s, and so is the input's gradient
        once ``F.tile``'s adjoint untiles it."""
        self._require_tiling()
        return self._forward(tiles, F.conv1d_tiles, tiled=True)

    def _forward(self, x: Tensor, conv, tiled: bool = False) -> Tensor:
        """The taped steps around ``conv(powered, kernel)``."""
        gamma = float(self.gamma)
        if self._literal():
            # Literal γ < −1: power the ε-clamped magnitude to −γ, keep sign.
            clamped = x.abs().clip(self.eps, np.inf) \
                * Tensor(self._directions(x.data))
            powered = odd_power(clamped, -gamma) * (1.0 / self.sigma)
            return odd_root(conv(powered, self._kernel()), -gamma)
        # Valley is -peak(-x).  ``+ self.shift`` stays even at 0.0: it turns
        # a -0.0 input into +0.0, whose sign odd_power would otherwise keep.
        negate = self.mode == "valley"
        kernel = self._kernel()
        shifted = (x * -1.0 if negate else x) + self.shift
        powered = odd_power(shifted, gamma) * (1.0 / self.sigma)
        root = odd_root(conv(powered, kernel), gamma)
        if self.shift:
            correction = self._shift_correction(kernel.data)
            if tiled:
                correction = correction.reshape(-1, 1, 1)
            root = root - Tensor(correction)
        return root * -1.0 if negate else root

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain array, without a tape.

        The same kernels in the same order and memory layouts, so the
        result is bitwise equal to ``forward(Tensor(x)).data``.
        """
        kernel, correction = self._scoring_kernel()
        # ``[0]``: the im2col matrix is freed as soon as the product exists.
        y = F.conv1d_array(self._power_array(x), kernel, stride=self.stride,
                           padding=self.padding)[0]
        return self._root_array(y, correction)

    def forward_tiles_array(self, tiles: np.ndarray) -> np.ndarray:
        """:meth:`forward_tiles` on a plain array, without a tape
        (``F.tile_array`` to ``F.conv1d_tiles_array``), bitwise equal."""
        self._require_tiling()
        kernel, correction = self._scoring_kernel()
        y = F.conv1d_tiles_array(self._power_array(tiles), kernel)
        if correction is not None:
            correction = correction.reshape(-1, 1, 1)
        return self._root_array(y, correction)

    def _require_tiling(self) -> None:
        if self.stride != self.kernel_size or self.padding:
            raise ValueError("tiles need stride == kernel_size and no padding")

    def _literal(self) -> bool:
        return self.mode == "valley" and self.valley_mode == "negative_gamma"

    def _power_array(self, x: np.ndarray) -> np.ndarray:
        """The steps before the convolution, on a plain array: the literal
        valley's clamp, or the negation and the shift; then the power and
        ``1/σ``.  Elementwise: the result keeps ``x``'s layout, and ``x``
        is left alone.  Each step rebinds ``y`` and scales it in place, so
        a batch-sized intermediate is freed as soon as the next exists."""
        gamma = float(self.gamma)
        if self._literal():
            y = clip_array(np.abs(x), self.eps, np.inf) * self._directions(x)
            gamma = -gamma
        elif self.mode == "valley":
            y = x * -1.0
            y += self.shift
        else:
            y = x + self.shift
        # ``y`` is this method's own array from here on, so the power may
        # consume it.
        y = odd_power_array(y, gamma)
        y *= 1.0 / self.sigma
        return y

    def _root_array(self, y: np.ndarray,
                    correction: np.ndarray | None) -> np.ndarray:
        """The steps after the convolution, consuming its product ``y``:
        the root, then the shift ``correction`` (broadcast to ``y``'s
        layout) and the valley's negation."""
        literal = self._literal()
        y = odd_root_array(y, -float(self.gamma) if literal
                           else float(self.gamma))
        if literal:
            return y
        if self.shift:
            y -= correction
        if self.mode == "valley":
            y *= -1.0
        return y

    def contract(self, spec: TensorSpec) -> TensorSpec:
        spec.require_ndim(3, "DualisticConv1d")
        spec.require_axis(1, self.in_channels, "DualisticConv1d", "in_channels")
        padded = spec.shape[-1] + 2 * self.padding
        if padded.is_concrete and padded.value < self.kernel_size:
            raise ContractError(
                f"DualisticConv1d: padded length {padded} is smaller than "
                f"the kernel {self.kernel_size}"
            )
        out_length = (padded - self.kernel_size) // self.stride + 1
        kernel = self.weight if self.learnable else self.fixed_weight
        dtype = merge_dtype(spec, kernel, who="DualisticConv1d")
        return spec.with_shape(
            (spec.shape[0], self.out_channels, out_length), dtype
        )

    def output_length(self, length: int) -> int:
        return (length + 2 * self.padding - self.kernel_size) // self.stride + 1

    def __repr__(self) -> str:
        return (
            f"DualisticConv1d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, gamma={self.gamma}, "
            f"sigma={self.sigma}, mode={self.mode!r})"
        )


class TimeDomainAmplifier(Module):
    """Stage 1 of MACE: amplify anomalies before the frequency transform.

    The paper averages a peak and a valley dualistic convolution, both with
    stride 1 and a fixed uniform kernel (paper §IV-A stage 1).  Here both
    use the raw Eq. 2 operator (shift 0), which is odd, so the valley
    ``-peak(-x)`` equals the peak bit for bit (IEEE rounding is symmetric
    under negation) and their average is the peak itself.  The forward
    therefore evaluates only the peak.  ``self.valley`` stays registered,
    uncalled, so that ``state_dict()`` keeps its keys and checkpoints load
    across versions.  "Same" padding keeps the window length unchanged.
    With ``gamma == 1`` the peak is a moving average and the module
    degrades gracefully (ablation path).
    """

    def __init__(self, gamma: int = 11, sigma: float = 5.0, kernel_size: int = 5,
                 blend: float = 0.3):
        super().__init__()
        if kernel_size % 2 == 0:
            raise ValueError("time-domain kernel must be odd for same padding")
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must be in [0, 1]")
        self.gamma = gamma
        self.sigma = sigma
        self.kernel_size = kernel_size
        # Mixing weight between the original window and the dualistic
        # envelope.  A full replacement (blend = 1) also amplifies ordinary
        # noise excursions, which floods the reconstruction floor on
        # point-anomaly-heavy noisy data (SMAP/MC); a 0.3 blend keeps the
        # anomaly-extension property while preserving normality (Fig. 3b).
        self.blend = blend
        # The raw Eq. 2 operator (shift 0): each window is dominated by its
        # largest-magnitude sample (signed), which extends short anomalies
        # and *preserves* high-frequency anomalous oscillations.  A positive
        # shift would turn the peak/valley average into a midrange filter
        # that low-passes exactly the frequency anomalies the DFT path must
        # see (verified by tests/benches).
        self.peak = DualisticConv1d(
            1, 1, kernel_size, stride=1, gamma=gamma, sigma=sigma, mode="peak",
            padding=kernel_size // 2, learnable=False,
        )
        self.valley = DualisticConv1d(
            1, 1, kernel_size, stride=1, gamma=gamma, sigma=sigma, mode="valley",
            padding=kernel_size // 2, learnable=False,
        )

    def contract(self, spec: TensorSpec) -> TensorSpec:
        spec.require_ndim(3, "TimeDomainAmplifier")
        n, t, m = spec.shape
        flat = spec.with_shape((n * m, 1, t))
        peak = child_contract("peak", self.peak, flat)
        if peak.shape != flat.shape:
            raise ContractError(
                "TimeDomainAmplifier must preserve the window length: "
                f"{flat} -> peak {peak}"
            )
        return spec

    def overflow_bound(self, dtype) -> float:
        """Input magnitude up to which ``|x|**γ / σ`` stays finite.

        The powered value may reach half of the dtype's largest value; the
        other half is headroom for rounding in the convolution, whose
        fixed kernel averages (its weights sum to 1).  With γ = 11 and
        σ ≥ 1 the bound is about 3.0e3 in float32 and 9e27 in float64.
        """
        largest = float(np.finfo(dtype).max)
        return (0.5 * largest * min(self.sigma, 1.0)) ** (1.0 / self.gamma)

    def forward(self, x: Tensor) -> Tensor:
        """``(N, T, m) -> (N, T, m)`` amplified windows."""
        n, t, m = x.shape
        flat = x.swapaxes(1, 2).reshape(n * m, 1, t)
        # Overflow guard: a sample beyond the bound would power to inf and
        # turn its whole window's scores into inf/NaN.  Clipping it keeps
        # the envelope at the bound, while the blend below keeps the raw
        # sample, so the spike still scores highest.  Values inside the
        # bound are returned bit for bit.
        bound = self.overflow_bound(x.dtype)
        amplified = self.peak(flat.clip(-bound, bound))
        amplified = amplified.reshape(n, m, t).swapaxes(1, 2)
        if self.blend >= 1.0:
            return amplified
        return x * (1.0 - self.blend) + amplified * self.blend

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain array, without a tape (bitwise equal)."""
        n, t, m = x.shape
        bound = self.overflow_bound(x.dtype)
        flat = clip_array(x.swapaxes(1, 2).reshape(n * m, 1, t), -bound, bound)
        amplified = self.peak.forward_array(flat).reshape(n, m, t).swapaxes(1, 2)
        if self.blend >= 1.0:
            return amplified
        return x * (1.0 - self.blend) + amplified * self.blend
