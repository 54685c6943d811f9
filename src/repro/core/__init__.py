"""MACE core: dualistic convolution, pattern extraction, model, detector."""

from repro.core.characterization import (
    FrequencyCharacterization,
    frequency_marker_channels,
)
from repro.core.detector import AnomalyDetector, MaceDetector
from repro.core.dualistic import (
    DualisticConv1d,
    TimeDomainAmplifier,
    dualistic_conv_numpy,
)
from repro.core.model import MaceConfig, MaceModel, MaceOutput
from repro.core.pattern_extraction import PatternExtractor
from repro.core.persistence import (
    CorruptArtifactError,
    DetectorPersistenceError,
    MissingArtifactError,
    StateMismatchError,
    load_detector,
    save_detector,
)
from repro.core.scoring import timeline_scores
from repro.core.streaming import StreamingDetector, StreamUpdate
from repro.core.trainer import MaceTrainer, TrainingHistory

__all__ = [
    "FrequencyCharacterization", "frequency_marker_channels",
    "AnomalyDetector", "MaceDetector",
    "DualisticConv1d", "TimeDomainAmplifier", "dualistic_conv_numpy",
    "MaceConfig", "MaceModel", "MaceOutput",
    "PatternExtractor", "timeline_scores", "MaceTrainer", "TrainingHistory",
    "save_detector", "load_detector", "StreamingDetector", "StreamUpdate",
    "DetectorPersistenceError", "MissingArtifactError",
    "CorruptArtifactError", "StateMismatchError",
]
