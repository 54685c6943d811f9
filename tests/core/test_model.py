"""MACE model: characterization, pattern extraction, forward/loss, ablations."""

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    FrequencyCharacterization,
    MaceConfig,
    MaceModel,
    PatternExtractor,
    frequency_marker_channels,
)
from repro.frequency import ServiceSubspace
from repro.nn import Tensor


def _periodic(length, period, features, rng, noise=0.05):
    t = np.arange(length)
    cols = [np.sin(2 * np.pi * t / (period + 2 * f)) for f in range(features)]
    return np.stack(cols, axis=1) + noise * rng.normal(size=(length, features))


class TestMarkers:
    def test_marker_layout(self, rng):
        series = _periodic(800, 16, 2, rng)
        subspace = ServiceSubspace.fit(series, window=40, k=3)
        markers = frequency_marker_channels(subspace)
        assert markers.shape == (2, 2, 6)
        # sine channel marks odd (imaginary) slots only
        assert np.all(markers[0, :, 0::2] == 0)
        np.testing.assert_allclose(markers[0, :, 1::2], subspace.frequencies)
        # cosine channel marks even slots only
        assert np.all(markers[1, :, 1::2] == 0)


class TestCharacterization:
    def test_output_shape_and_bounds(self, rng):
        series = _periodic(800, 16, 3, rng)
        subspace = ServiceSubspace.fit(series, window=40, k=4)
        module = FrequencyCharacterization(channels=6)
        coeffs = Tensor(rng.normal(size=(5, 3, 8)))
        out = module(coeffs, subspace)
        assert out.shape == (15, 6, 8)
        assert np.all(np.abs(out.data) <= 1.0)

    def test_marker_ablation_changes_input_channels(self):
        with_markers = FrequencyCharacterization(channels=4, use_markers=True)
        without = FrequencyCharacterization(channels=4, use_markers=False)
        assert with_markers.conv.in_channels == 3
        assert without.conv.in_channels == 1

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            FrequencyCharacterization(kernel_size=4)

    def test_gradients_flow(self, rng):
        series = _periodic(800, 16, 2, rng)
        subspace = ServiceSubspace.fit(series, window=40, k=3)
        module = FrequencyCharacterization(channels=4)
        coeffs = Tensor(rng.normal(size=(2, 2, 6)), requires_grad=True)
        module(coeffs, subspace).sum().backward()
        assert coeffs.grad is not None


class TestPatternExtractor:
    def test_fit_and_transforms(self, rng):
        extractor = PatternExtractor(window=40, num_bases=4)
        series = _periodic(600, 16, 2, rng)
        extractor.fit(["svc"], [series])
        assert "svc" in extractor
        dft, idft = extractor.transforms("svc")
        assert dft.subspace is extractor.subspace("svc")

    def test_transform_cache_invalidated_on_refit(self, rng):
        extractor = PatternExtractor(window=40, num_bases=4)
        series = _periodic(600, 16, 2, rng)
        extractor.fit_service("svc", series)
        first, _ = extractor.transforms("svc")
        extractor.fit_service("svc", _periodic(600, 10, 2, rng))
        second, _ = extractor.transforms("svc")
        assert first is not second

    def test_full_spectrum_ablation(self, rng):
        extractor = PatternExtractor(window=40, num_bases=4, context_aware=False)
        series = _periodic(600, 16, 2, rng)
        extractor.fit_service("svc", series)
        assert extractor.subspace("svc").k == 21  # all bins of window 40

    def test_unknown_service(self):
        with pytest.raises(KeyError):
            PatternExtractor(40, 4).subspace("nope")

    def test_dict_roundtrip(self, rng):
        extractor = PatternExtractor(window=40, num_bases=4, stride=2)
        extractor.fit(["a", "b"], [_periodic(600, 16, 2, rng),
                                   _periodic(600, 10, 1, rng)])
        block = extractor.to_dict()
        clone = PatternExtractor(window=40, num_bases=4, stride=2)
        clone.load_dict(block)
        assert clone.to_dict() == block
        assert "a" in clone and "b" in clone
        for sid in ("a", "b"):
            assert (clone.subspace(sid)._forward.tobytes()
                    == extractor.subspace(sid)._forward.tobytes())

    def test_load_dict_replaces_subspaces_and_transforms(self, rng):
        extractor = PatternExtractor(window=40, num_bases=4)
        extractor.fit_service("old", _periodic(600, 16, 2, rng))
        stale, _ = extractor.transforms("old")
        source = PatternExtractor(window=40, num_bases=4)
        source.fit_service("new", _periodic(600, 10, 2, rng))
        extractor.load_dict(source.to_dict())
        assert "old" not in extractor and "new" in extractor
        assert extractor.transforms("new")[0] is not stale

    def test_window_mismatch_rejected(self, rng):
        foreign = PatternExtractor(window=20, num_bases=4)
        foreign.fit_service("svc", _periodic(600, 16, 2, rng))
        extractor = PatternExtractor(window=40, num_bases=4)
        extractor.fit_service("kept", _periodic(600, 16, 2, rng))
        with pytest.raises(ValueError, match="window mismatch"):
            extractor.load_dict(foreign.to_dict())
        assert "kept" in extractor and "svc" not in extractor


class TestMaceModel:
    @pytest.fixture
    def setup(self, rng):
        config = MaceConfig(window=40, num_bases=4, channels=4, epochs=1)
        model = MaceModel(config, rng=rng)
        extractor = PatternExtractor(config.window, config.num_bases)
        series = _periodic(600, 16, 2, rng)
        extractor.fit_service("svc", series)
        windows = np.stack([series[i:i + 40] for i in range(8)])
        return model, extractor, windows

    def test_forward_shapes(self, setup):
        model, extractor, windows = setup
        output = model(Tensor(windows), extractor, "svc")
        assert output.amplified.shape == windows.shape
        assert output.reconstruction_peak.shape == windows.shape
        assert output.reconstruction_valley.shape == windows.shape

    def test_loss_scalar_and_backward(self, setup):
        model, extractor, windows = setup
        loss = model.loss(model(Tensor(windows), extractor, "svc"))
        assert loss.data.shape == ()
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_tape_size_is_pinned(self, rng):
        """The default model's forward plus loss records a fixed set of ops.

        Counted are the nodes with a backward closure.  An accidental
        identity op or a duplicated branch shows up as a diff of the counts.
        """
        config = MaceConfig()
        model = MaceModel(config, rng=rng)
        extractor = PatternExtractor(config.window, config.num_bases)
        extractor.fit_service("svc", _periodic(400, 10, 3, rng))
        windows = rng.normal(size=(4, config.window, 3))
        loss = model.loss(model(Tensor(windows), extractor, "svc"))
        ops, stack, seen = Counter(), [loss], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
            if node._backward is not None:
                ops[node._op] += 1
        assert sum(ops.values()) == 47
        # Each branch: tile, conv1d_tiles, conv_transpose1d_tiles and the
        # pointwise head, which also crops (no getitem).
        assert ops == {
            "abs": 2, "add": 2, "conv1d": 1, "conv1d_tiles": 2,
            "conv_transpose1d_tiles": 2, "leaky_relu": 2, "matmul": 2,
            "maximum": 1, "mul": 9, "odd_power": 2, "odd_root": 2,
            "pointwise_conv1d_tiles": 2, "reshape": 6, "sub": 4, "sum": 3,
            "tanh": 1, "tile": 2, "transpose": 2,
        }

    def test_timestep_errors_shape(self, setup):
        model, extractor, windows = setup
        errors = model.timestep_errors(model(Tensor(windows), extractor, "svc"))
        assert errors.shape == (8, 40)
        assert np.all(errors >= 0)

    def test_rejects_bad_rank(self, setup):
        model, extractor, _ = setup
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((40, 2))), extractor, "svc")

    def test_ablation_flags(self, rng):
        base = MaceConfig(window=40, num_bases=4, channels=4)
        no_amp = MaceModel(base.ablate(use_time_amplifier=False), rng=rng)
        no_dual = MaceModel(base.ablate(use_dualistic_freq=False), rng=rng)
        assert no_dual.peak_branch.encoder.gamma == 1
        extractor = PatternExtractor(40, 4)
        series = _periodic(600, 16, 2, rng)
        extractor.fit_service("svc", series)
        windows = Tensor(np.stack([series[i:i + 40] for i in range(4)]))
        out = no_amp(windows, extractor, "svc")
        np.testing.assert_array_equal(out.amplified.data,
                                      windows.data.astype(no_amp.dtype))

    def test_select_max_vs_average(self, setup, rng):
        model, extractor, windows = setup
        output = model(Tensor(windows), extractor, "svc")
        max_errors = model.timestep_errors(output)
        model.config = model.config.ablate(select_max_error=False)
        avg_errors = model.timestep_errors(output)
        assert np.all(max_errors >= avg_errors - 1e-12)

    def test_config_ablate_returns_copy(self):
        config = MaceConfig()
        changed = config.ablate(gamma_freq=3)
        assert config.gamma_freq == 7 and changed.gamma_freq == 3
