"""What the traced run wraps, and which end-to-end metric each layer moves.

Every per-layer metric the harness reports is declared here exactly
once, with its unit, its direction, and the ``(end-to-end metric,
workload)`` pairs it is expected to move.  ``BENCHMARK.json`` lists the
same names; ``tests/bench_suite`` checks the two agree.

Function-level metrics are normalised per workload operation (one
``fit`` on train, one scoring pass on score, one ``update`` on stream),
so runs of different lengths compare.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from tracer import Target

__all__ = ["MODEL_TARGETS", "LAYER_METRICS", "METRIC_NAME", "validate_name"]

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def validate_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}: use up to 64 of "
                         "[A-Za-z0-9_.-], starting with a letter or digit")
    return name


def _count_windows(tracer, result, elapsed) -> None:
    tracer.count("core.window_errors.windows", result.shape[0])


# Model, streaming and runtime layers: every workload runs them
# in-process.
MODEL_TARGETS = [
    Target("nn.conv1d", "repro.nn.functional", "conv1d"),
    Target("nn.conv_transpose1d", "repro.nn.functional", "conv_transpose1d"),
    Target("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    Target("nn.optim_step", "repro.nn.optim", "Adam.step"),
    # The trainer binds the name at import, so wrap it where it is used.
    Target("nn.clip_grad_norm", "repro.core.trainer", "clip_grad_norm"),
    Target("frequency.dft", "repro.frequency.context_aware",
           "ContextAwareDFT.forward"),
    Target("frequency.idft", "repro.frequency.context_aware",
           "ContextAwareIDFT.forward"),
    Target("core.amplifier", "repro.core.dualistic",
           "TimeDomainAmplifier.forward"),
    Target("core.characterization", "repro.core.characterization",
           "FrequencyCharacterization.forward"),
    Target("core.branch", "repro.core.model", "_Branch.forward"),
    Target("core.model_forward", "repro.core.model", "MaceModel.forward"),
    Target("core.model_loss", "repro.core.model", "MaceModel.loss"),
    Target("core.timestep_errors", "repro.core.model",
           "MaceModel.timestep_errors"),
    Target("core.window_errors", "repro.core.trainer",
           "MaceTrainer.window_errors", observe=_count_windows),
    Target("core.timeline_scores", "repro.core.detector", "timeline_scores"),
    Target("core.pattern_extraction_fit", "repro.core.pattern_extraction",
           "PatternExtractor.fit"),
    Target("core.streaming_observe", "repro.core.streaming",
           "StreamingDetector.observe"),
    Target("runtime.sanitize", "repro.runtime.sanitize", "Sanitizer.sanitize"),
    Target("eval.spot_step", "repro.eval.spot", "Spot.step"),
    Target("runtime.update", "repro.runtime.serving", "ServingRuntime.update"),
]

_TRAIN = [("op_ms", "train"), ("points_per_s", "train")]
_SCORE = [("points_per_s", "score")]
_STREAM = [("op_ms", "stream"), ("points_per_s", "stream")]

# key -> the (end-to-end metric, workload) pairs its time should move.
_FUNCTION_MAP: Dict[str, List[Tuple[str, str]]] = {
    "nn.conv1d": _STREAM + _SCORE + _TRAIN,
    "nn.conv_transpose1d": _STREAM + _SCORE + _TRAIN,
    "nn.backward": _TRAIN,
    "nn.optim_step": _TRAIN,
    "nn.clip_grad_norm": _TRAIN,
    "frequency.dft": _STREAM + _SCORE,
    "frequency.idft": _STREAM + _SCORE,
    "core.amplifier": _STREAM + _SCORE + _TRAIN,
    "core.characterization": _STREAM + _SCORE + _TRAIN,
    "core.branch": _STREAM + _SCORE + _TRAIN,
    "core.model_forward": _STREAM + _SCORE + _TRAIN,
    "core.model_loss": _TRAIN,
    "core.timestep_errors": _STREAM + _SCORE,
    "core.window_errors": _STREAM + _SCORE,
    "core.timeline_scores": _SCORE,
    # Also part of set-up on score and stream, which is untraced.
    "core.pattern_extraction_fit": _TRAIN,
    "core.streaming_observe": _STREAM,
    "runtime.sanitize": _STREAM,
    "eval.spot_step": _STREAM,
    "runtime.update": _STREAM,
}

_ALL = _TRAIN + _SCORE + _STREAM

# name -> (unit, better, [(end-to-end metric, workload), ...])
LAYER_METRICS: Dict[str, tuple] = {}
for _key, _pairs in _FUNCTION_MAP.items():
    LAYER_METRICS[f"{_key}.calls"] = ("count", "lower", _pairs)
    LAYER_METRICS[f"{_key}.self_s"] = ("s", "lower", _pairs)
LAYER_METRICS.update({
    # Batching raises it; 1 means every forward scored one window.
    "core.window_errors.windows_per_call": ("count", "higher",
                                            _STREAM + _SCORE),
    # Share of streamed scores bitwise equal to the batched forward.
    "core.stream_batch_bitwise": ("frac", "higher", _STREAM),
    "runtime.fallback_frac": ("frac", "lower", _STREAM),
    # Detection quality of the scores the score workload times.
    "eval.pa_f1": ("frac", "higher", _SCORE),
    "wall_s": ("s", "lower", _ALL),
    "unattributed_s": ("s", "lower", _ALL),
    "trace_overhead_frac": ("frac", "lower", _ALL),
    "ops": ("count", "higher", _ALL),
    # The update latency distribution (see ``tracer.tail_percentile``).
    "runtime.update_p50_ms": ("ms", "lower", _STREAM),
    "runtime.update_tail_ms": ("ms", "lower", _STREAM),
    "runtime.update_tail_pct": ("%", "higher", _STREAM),
    "runtime.update_samples": ("count", "higher", _STREAM),
})

for _name in LAYER_METRICS:
    validate_name(_name)
