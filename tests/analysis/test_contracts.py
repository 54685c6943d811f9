"""Static shape/dtype contract checking: Dim algebra, layers, full MACE."""

import numpy as np
import pytest

from repro.analysis import check_model, input_spec
from repro.analysis.spec import ContractError, Dim, TensorSpec
from repro.core import MaceConfig, MaceModel
from repro.core.dualistic import DualisticConv1d, TimeDomainAmplifier
from repro.nn.modules.activations import ReLU, Tanh
from repro.nn.modules.container import Sequential
from repro.nn.modules.conv import Conv1d, ConvTranspose1d
from repro.nn.modules.linear import Linear
from repro.nn.modules.norm import LayerNorm
from repro.nn.modules.recurrent import GRU
from repro.nn.modules.attention import TransformerEncoderLayer


class TestDimAlgebra:
    def test_concrete_arithmetic(self):
        assert Dim(6) * 2 == 12
        assert (Dim(7) - 3) // 2 + 1 == 3

    def test_symbolic_products_and_cancellation(self):
        n = Dim("N")
        flat = n * 3
        assert repr(flat) == "3*N"
        assert flat // n == 3
        assert (n * Dim("m")) // Dim("m") == n

    def test_symbolic_offset_rejected(self):
        with pytest.raises(ContractError):
            Dim("N") + 1

    def test_inexact_division_rejected(self):
        with pytest.raises(ContractError):
            Dim(7) // Dim("N")

    def test_equality_against_int_and_str(self):
        assert Dim(4) == 4
        assert Dim("N") == "N"
        assert Dim("N") != 4


class TestLayerContracts:
    def test_linear_maps_last_axis(self):
        out = check_model(Linear(8, 3), ("N", 5, 8))
        assert out.shape == (Dim("N"), Dim(5), Dim(3))

    def test_linear_rejects_wrong_features(self):
        with pytest.raises(ContractError) as excinfo:
            check_model(Linear(8, 3), ("N", 5, 7))
        assert "in_features" in str(excinfo.value)

    def test_conv1d_length_arithmetic(self):
        out = check_model(Conv1d(2, 4, 5, stride=2, padding=1), ("N", 2, 11))
        assert out.shape == (Dim("N"), Dim(4), Dim(5))

    def test_conv_transpose_inverts_conv(self):
        spec = input_spec(("N", 4, 10))
        down = check_model(Conv1d(4, 8, 5, stride=5), spec)
        up = check_model(ConvTranspose1d(8, 4, 5, stride=5), down)
        assert up.shape == spec.shape

    def test_conv_rejects_kernel_wider_than_input(self):
        with pytest.raises(ContractError):
            check_model(Conv1d(1, 1, 9), (2, 1, 4))

    def test_layernorm_flags_silent_broadcast(self):
        # A mismatched width would silently broadcast the affine weight
        # instead of normalising; the contract rejects it by name.
        with pytest.raises(ContractError) as excinfo:
            check_model(LayerNorm(16), ("N", 10, 8))
        assert "normalized_shape" in str(excinfo.value)

    def test_dtype_promotion_flagged(self):
        # float32 activations meeting float64 weights would silently
        # promote every activation; the contract rejects it statically.
        layer = Linear(4, 4)
        with pytest.raises(ContractError) as excinfo:
            check_model(layer, input_spec(("N", 4), dtype="float32"))
        assert "float64" in str(excinfo.value)

    def test_sequential_reports_dotted_path(self):
        model = Sequential(Linear(8, 6), ReLU(), Linear(5, 2))
        with pytest.raises(ContractError) as excinfo:
            check_model(model, ("N", 8))
        assert str(excinfo.value).startswith("[2]")

    def test_gru_returns_sequence_and_step_specs(self):
        sequence, step = check_model(GRU(3, 7), ("N", "T", 3))
        assert sequence.shape == (Dim("N"), Dim("T"), Dim(7))
        assert step.shape == (Dim("N"), Dim(7))

    def test_transformer_layer_roundtrip(self):
        out = check_model(TransformerEncoderLayer(8, num_heads=2), ("N", 12, 8))
        assert out.shape == (Dim("N"), Dim(12), Dim(8))

    def test_module_without_contract_is_named(self):
        class Opaque:
            pass

        with pytest.raises(ContractError) as excinfo:
            check_model(Opaque(), ("N", 3))
        assert "Opaque" in str(excinfo.value)


class TestCoreContracts:
    def test_dualistic_conv_matches_forward(self):
        layer = DualisticConv1d(2, 6, 5, stride=5)
        out = check_model(layer, ("B", 2, 20))
        assert out.shape == (Dim("B"), Dim(6), Dim(4))

    def test_amplifier_preserves_windows(self):
        amp = TimeDomainAmplifier(kernel_size=5)
        out = check_model(amp, ("N", 40, 3))
        assert out.shape == (Dim("N"), Dim(40), Dim(3))

    def test_full_mace_validates_symbolically(self):
        model = MaceModel(MaceConfig())
        out = check_model(model, ("N", 40, 3))
        assert out.shape == (Dim("N"), Dim(40), Dim(3))
        # The float64 input is cast to the model's default float32.
        assert out.dtype == np.float32

    def test_full_mace_concrete_batch(self):
        model = MaceModel(MaceConfig())
        out = check_model(model, (16, 40, 5))
        assert out.shape == (Dim(16), Dim(40), Dim(5))

    def test_mace_rejects_wrong_window(self):
        model = MaceModel(MaceConfig(window=40))
        with pytest.raises(ContractError) as excinfo:
            check_model(model, ("N", 48, 3))
        assert "window" in str(excinfo.value)

    def test_mace_rejects_missing_feature_axis(self):
        model = MaceModel(MaceConfig())
        with pytest.raises(ContractError):
            check_model(model, ("N", 40))

    def test_misconfigured_variant_names_offending_branch(self):
        # kernel_freq = 7 with 2k = 20 pads the spectrum to 21 columns and
        # the stride-7 encoder/decoder pipeline still closes — but an
        # encoder whose channel count disagrees with the representation
        # must be caught and *named*.
        model = MaceModel(MaceConfig())
        model.peak_branch.encoder.in_channels = 5  # sabotage
        with pytest.raises(ContractError) as excinfo:
            check_model(model, ("N", 40, 3))
        assert "peak_branch.encoder" in str(excinfo.value)

    def test_contract_agrees_with_forward_output(self):
        from repro.core import PatternExtractor
        from repro.nn.tensor import Tensor

        config = MaceConfig()
        model = MaceModel(config)
        rng = np.random.default_rng(0)
        t = np.arange(400)
        series = np.stack(
            [np.sin(2 * np.pi * t / (10 + 3 * f)) for f in range(3)], axis=1
        ) + 0.05 * rng.normal(size=(400, 3))
        extractor = PatternExtractor(config.window, config.num_bases)
        extractor.fit_service("svc", series)
        windows = Tensor(rng.normal(size=(4, config.window, 3)))
        output = model(windows, extractor, "svc")
        spec = check_model(model, (4, config.window, 3))
        assert output.reconstruction_peak.shape == tuple(
            d.value for d in spec.shape
        )
