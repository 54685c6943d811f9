"""The MACE model: four stages over one window batch (paper Fig. 2).

1. amplify anomalies in the time domain (dualistic conv, stride 1);
2. project onto the service's normal-pattern subspace (context-aware DFT)
   and build the frequency representation (characterization module);
3. reconstruct the representation with a dualistic-convolution autoencoder —
   separate peak and valley branches;
4. synthesise both branches back to the time domain (context-aware IDFT) and
   keep, per time slot, the branch with the larger reconstruction error.

The model's learnable weights are shared across every service; all
service-specific state lives in the
:class:`~repro.core.pattern_extraction.PatternExtractor`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.spec import ContractError, TensorSpec, child_contract
from repro.core.characterization import FrequencyCharacterization
from repro.core.dualistic import DualisticConv1d, TimeDomainAmplifier
from repro.core.pattern_extraction import PatternExtractor
from repro.nn import functional as F
from repro.nn.modules.activations import LeakyReLU
from repro.nn.modules.base import Module
from repro.nn.modules.conv import Conv1d, ConvTranspose1d
from repro.nn.tensor import Tensor, maximum

__all__ = ["MaceConfig", "MaceOutput", "MaceModel"]


@dataclass(frozen=True)
class MaceConfig:
    """All MACE hyperparameters (paper Table IV, adapted to this scale).

    Notes on defaults: the paper reports window 40 and subset size m = 20;
    with a window of 40 the real spectrum has only 21 bins, so m = 20 is
    nearly the full spectrum — at our scale ``num_bases = 10`` keeps the
    subset genuinely sparse (≈ half the bins).  Both values are swept by the
    Fig. 6(f) bench.
    """

    window: int = 40
    num_bases: int = 10
    channels: int = 8
    gamma_time: int = 11
    gamma_freq: int = 7
    sigma_time: float = 5.0
    sigma_freq: float = 5.0
    kernel_time: int = 5
    kernel_freq: int = 5
    characterization_kernel: int = 3
    amplifier_blend: float = 0.3
    valley_mode: str = "negated"
    # Ablation switches (Table IX rows)
    use_time_amplifier: bool = True
    use_dualistic_freq: bool = True
    use_characterization_markers: bool = True
    context_aware: bool = True
    select_max_error: bool = True
    # Training.  The paper trains with lr 1e-3 on full-size datasets; at
    # this repository's reduced scale (fewer windows per epoch) a slightly
    # higher rate with stride-2 windows reaches the same converged regime.
    learning_rate: float = 3e-3
    epochs: int = 5
    batch_size: int = 64
    train_stride: int = 4
    grad_clip: float = 5.0
    subspace_stride: int = 4
    seed: int = 0
    # Precision of the parameters, activations, gradients and optimizer
    # moments.  float32 is PyTorch's default, in which the paper's models
    # run.  float64 is the reference path, and detectors saved before
    # this field existed load with it (repro.core.persistence).
    dtype: str = "float32"

    def ablate(self, **changes) -> "MaceConfig":
        """Return a copy with the given fields changed (Table IX variants)."""
        return replace(self, **changes)


@dataclass
class MaceOutput:
    """Forward-pass artefacts needed for both training and scoring."""

    amplified: Tensor           # (N, T, m) stage-1 output (the recon target)
    reconstruction_peak: Tensor   # (N, T, m)
    reconstruction_valley: Tensor  # (N, T, m)

    def branch_errors(self) -> tuple:
        """Per-branch squared error averaged over features: two (N, T)."""
        diff_peak = self.reconstruction_peak - self.amplified
        diff_valley = self.reconstruction_valley - self.amplified
        return (
            (diff_peak * diff_peak).mean(axis=-1),
            (diff_valley * diff_valley).mean(axis=-1),
        )


class _Branch(Module):
    """One reconstruction branch (peak or valley) of the autoencoder."""

    def __init__(self, config: MaceConfig, mode: str,
                 rng: np.random.Generator | None = None):
        super().__init__()
        channels = config.channels
        gamma = config.gamma_freq if config.use_dualistic_freq else 1
        self.kernel = config.kernel_freq
        # The representation is tanh-bounded to [-1, 1]; shift = 2 keeps the
        # powered values positive so peak/valley act as segment max/min
        # pickers over the spectrum representation (Fig. 4a).
        self.encoder = DualisticConv1d(
            channels, 2 * channels, config.kernel_freq,
            stride=config.kernel_freq, gamma=gamma, sigma=config.sigma_freq,
            mode=mode, shift=2.0, valley_mode=config.valley_mode, rng=rng,
        )
        self.decoder = ConvTranspose1d(
            2 * channels, channels, config.kernel_freq,
            stride=config.kernel_freq, rng=rng,
        )
        self.activation = LeakyReLU(0.1)
        self.head = Conv1d(channels, 1, 1, rng=rng)

    def contract(self, spec: TensorSpec) -> TensorSpec:
        """``(N*m, C, 2k) -> (N*m, 2k)`` reconstructed spectrum."""
        spec.require_ndim(3, "_Branch")
        width = spec.shape[-1]
        if not width.is_concrete:
            raise ContractError(
                f"_Branch requires a concrete spectrum width, got {width}"
            )
        padded_width = width.value + self._padding(width.value)
        padded = spec.with_shape(spec.shape[:-1] + (padded_width,))
        latent = child_contract("encoder", self.encoder, padded)
        decoded = child_contract(
            "activation", self.activation,
            child_contract("decoder", self.decoder, latent),
        )
        spectrum = child_contract("head", self.head, decoded)
        out_width = spectrum.shape[-1]
        if out_width.is_concrete and out_width.value < width.value:
            raise ContractError(
                f"_Branch: decoded width {out_width} is narrower than the "
                f"input spectrum width {width}"
            )
        return spectrum.with_shape((spec.shape[0], width))

    def _padding(self, width: int) -> int:
        """Zeros appended to a spectrum of ``width`` so the stride-``kernel``
        encoder tiles it (the full spectrum's 42 slots take 3)."""
        remainder = width % self.kernel
        return self.kernel - remainder if remainder else 0

    def forward(self, representation: Tensor, width: int) -> Tensor:
        """``(N*m, C, 2k) -> (N*m, width)`` reconstructed spectrum.

        Every step runs in the encoder's tiled layout
        (``nn.functional``'s tiled ops): the representation is tiled
        once, the encoder's product is the decoder's input matrix, the
        decoder's product its output tiles, and the one-channel head
        emits the cropped spectrum.  Its values and gradients are those
        of the untiled ``pad1d``, ``conv1d``, ``conv_transpose1d``,
        ``conv1d`` and ``getitem`` stack, bit for bit
        (``tests/core/test_tiled_training.py`` keeps that stack as the
        reference).
        """
        decoder, head = self.decoder, self.head
        y = self.encoder.forward_tiles(F.tile(representation, self.kernel))
        y = F.conv_transpose1d_tiles(y, decoder.weight, decoder.bias)
        y = self.activation(y)  # (C, K, N*m, L)
        return F.pointwise_conv1d_tiles(y, head.weight, head.bias, width)

    def forward_array(self, tiles: np.ndarray, width: int) -> np.ndarray:
        """:meth:`forward` on the ``(C, K, N*m, L)`` tiles of its padded
        input (``F.tile_array``), without a tape: ``(N*m, width)``, bitwise
        equal.  The same kernels :meth:`forward`'s ops run forward."""
        decoder, head = self.decoder, self.head
        y = self.encoder.forward_tiles_array(tiles)  # (2C, N*m, L)
        y = F.conv_transpose1d_tiles_array(y, decoder.weight.data,
                                           decoder.bias.data)  # (C, K, N*m, L)
        y = F.leaky_relu_array(y, self.activation.negative_slope)
        y = F.pointwise_conv1d_tiles_array(y, head.weight.data, head.bias.data)
        return y[:, 0, :width]


class MaceModel(Module):
    """Shared-weight MACE network; pair with a :class:`PatternExtractor`."""

    def __init__(self, config: MaceConfig,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.amplifier = TimeDomainAmplifier(
            config.gamma_time, config.sigma_time, config.kernel_time,
            blend=config.amplifier_blend,
        )
        self.characterization = FrequencyCharacterization(
            config.channels, config.characterization_kernel,
            use_markers=config.use_characterization_markers, rng=rng,
        )
        self.peak_branch = _Branch(config, "peak", rng=rng)
        self.valley_branch = _Branch(config, "valley", rng=rng)
        # Initialised in float64 from the same draws whatever the dtype,
        # then cast once.
        self.to(config.dtype)

    @property
    def dtype(self) -> np.dtype:
        """The weights' dtype, which inputs are cast to: ``config.dtype``
        until :meth:`Module.to` casts the model."""
        return self.peak_branch.head.weight.data.dtype

    def contract(self, spec: TensorSpec) -> TensorSpec:
        """Validate the full four-stage pipeline on ``(N, T, m)`` windows.

        Returns the reconstruction spec, which equals the input spec (the
        context-aware IDFT synthesises back to the time domain).
        """
        spec.require_ndim(3, "MaceModel")
        spec.require_axis(1, self.config.window, "MaceModel", "window")
        # forward() casts its input to the model's dtype.
        spec = spec.with_shape(spec.shape, self.dtype)
        amplified = spec
        if self.config.use_time_amplifier:
            amplified = child_contract("amplifier", self.amplifier, spec)
            if amplified.shape != spec.shape:
                raise ContractError(
                    f"amplifier must preserve the window batch shape: "
                    f"{spec} -> {amplified}"
                )
        n, _, m = amplified.shape
        width = 2 * self.config.num_bases
        coeffs = amplified.with_shape((n, m, width))
        representation = child_contract(
            "characterization", self.characterization, coeffs
        )
        for name in ("peak_branch", "valley_branch"):
            spectrum = child_contract(name, getattr(self, name), representation)
            if spectrum.numel() != coeffs.numel():
                raise ContractError(
                    f"{name} output {spectrum} cannot reshape back to the "
                    f"coefficient block {coeffs}"
                )
        return spec.with_shape(spec.shape, representation.dtype)

    def forward(self, windows: Tensor, extractor: PatternExtractor,
                service_id: str) -> MaceOutput:
        """Run all four stages for one service's window batch."""
        if windows.ndim != 3:
            raise ValueError("windows must be (N, T, m)")
        if windows.dtype != self.dtype:
            windows = windows.astype(self.dtype)
        amplified = (
            self.amplifier(windows) if self.config.use_time_amplifier else windows
        )
        return self.reconstruct(amplified, extractor, service_id)

    def amplify_array(self, windows: np.ndarray) -> np.ndarray:
        """Stage 1 on a plain array: ``(N, T, m)`` windows cast to the
        model's dtype and amplified, without a tape, bitwise equal to
        :meth:`forward`'s.  The amplifier has no trainable weight, so the
        trainer amplifies each service's windows once per fit here."""
        if windows.ndim != 3:
            raise ValueError("windows must be (N, T, m)")
        if windows.dtype != self.dtype:
            windows = windows.astype(self.dtype)
        if not self.config.use_time_amplifier:
            return windows
        return self.amplifier.forward_array(windows)

    def reconstruct(self, amplified: Tensor, extractor: PatternExtractor,
                    service_id: str) -> MaceOutput:
        """Stages 2-4 for one service's batch of amplified windows: the
        taped part of :meth:`forward`, and all of training's."""
        dft, idft = extractor.transforms(service_id, self.dtype)
        subspace = extractor.subspace(service_id)
        coeffs = dft(amplified)  # (N, m, 2k)
        n, m, width = coeffs.shape
        representation = self.characterization(coeffs, subspace)  # (N*m, C, 2k)

        reconstructions = []
        for branch in (self.peak_branch, self.valley_branch):
            spectrum = branch(representation, width).reshape(n, m, width)
            reconstructions.append(idft(spectrum))  # (N, T, m)
        return MaceOutput(amplified, reconstructions[0], reconstructions[1])

    def score_windows(self, windows: np.ndarray, extractor: PatternExtractor,
                      service_id: str) -> np.ndarray:
        """:meth:`forward` then :meth:`timestep_errors`, on plain arrays.

        Scoring never calls ``backward``, so it builds no ``Tensor`` and
        no tape.  Every stage runs its module's ``forward_array``, the
        kernels the taped ops call, on the same layouts; the branches
        share one tiling of the representation.  So the ``(N, T)`` errors
        are bitwise equal to the taped path's at every batch size
        (``tests/core/test_tape_free.py``).
        """
        amplified = self.amplify_array(windows)
        # Each ``del`` frees a chunk-sized array the later stages never
        # read, so it does not add to the chunk's peak memory.
        del windows
        dft, idft = extractor.transforms(service_id, self.dtype)
        coeffs = dft.forward_array(amplified)  # (N, m, 2k)
        n, m, width = coeffs.shape
        representation = self.characterization.forward_array(
            coeffs, extractor.subspace(service_id))  # (N*m, C, 2k)
        del coeffs
        tiles = F.tile_array(representation, self.config.kernel_freq)
        del representation
        errors = []
        for branch in (self.peak_branch, self.valley_branch):
            spectrum = branch.forward_array(tiles, width).reshape(n, m, width)
            diff = idft.forward_array(spectrum) - amplified
            del spectrum
            # Tensor.mean's sum times the reciprocal count.
            errors.append((diff * diff).sum(axis=-1) * (1.0 / diff.shape[-1]))
            del diff
        if self.config.select_max_error:
            return np.maximum(errors[0], errors[1])
        return 0.5 * (errors[0] + errors[1])

    def prepare_scoring(self, extractor: PatternExtractor,
                        service_id: str) -> None:
        """Build every operand :meth:`score_windows` would otherwise build
        lazily on its first call for ``service_id``: the service's DFT/IDFT
        modules and marker channels, and each dualistic convolution's
        weight-derived kernel.  After this, scoring the service with the
        current weights only reads shared state."""
        extractor.transforms(service_id, self.dtype)
        if self.characterization.use_markers:
            self.characterization._markers(extractor.subspace(service_id))
        for module in self.modules():
            if isinstance(module, DualisticConv1d):
                module._scoring_kernel()

    def loss(self, output: MaceOutput) -> Tensor:
        """Stage-4 objective: mean of the per-slot max-branch error."""
        error_peak, error_valley = output.branch_errors()
        if self.config.select_max_error:
            combined = maximum(error_peak, error_valley)
        else:
            combined = (error_peak + error_valley) * 0.5
        return combined.mean()

    def timestep_errors(self, output: MaceOutput) -> np.ndarray:
        """Anomaly score per window timestep, ``(N, T)`` (no grad)."""
        error_peak, error_valley = output.branch_errors()
        if self.config.select_max_error:
            return np.maximum(error_peak.data, error_valley.data)
        return 0.5 * (error_peak.data + error_valley.data)
