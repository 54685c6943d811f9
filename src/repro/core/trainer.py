"""Training loop for MACE (SGD on the stage-4 reconstruction error)."""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import MaceConfig, MaceModel
from repro.core.pattern_extraction import PatternExtractor
from repro.data.windows import WindowDataset
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.obs.events import emit
from repro.obs.metrics import get_registry
from repro.obs.tracing import span

__all__ = ["TrainingHistory", "MaceTrainer"]

# ``epoch_hook(trainer, optimizer, completed_epochs) -> int | None``:
# return an epoch number to rewind the loop to, or None to continue.
EpochHook = Callable[["MaceTrainer", Adam, int], Optional[int]]
# ``batch_hook(epoch, batch_index, loss) -> Tensor | None``: may replace
# the batch loss (fault injection); return None to keep it.
BatchHook = Callable[[int, int, Tensor], Optional[Tensor]]
# How long ``window_errors`` waits for its helper thread after its own
# chunks are done; the helper's share is never larger than the caller's.
_HELPER_JOIN_TIMEOUT_S = 600.0


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics.

    ``nonfinite_batches`` records every ``(epoch, batch_index)`` whose loss
    or gradient norm came out NaN/Inf.  Those batches take **no** optimizer
    step (the event is recorded instead), so a single poisoned batch cannot
    silently corrupt the weights — and a watcher such as
    :class:`repro.runtime.DivergenceGuard` can react at the epoch boundary.
    """

    epoch_losses: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    nonfinite_batches: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    def nonfinite_in_epoch(self, epoch: int) -> int:
        """Number of non-finite batch events recorded during ``epoch``."""
        return sum(1 for event_epoch, _ in self.nonfinite_batches
                   if event_epoch == epoch)


class MaceTrainer:
    """Fit one (possibly unified) MACE model over a fleet of services."""

    def __init__(self, config: MaceConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.model = MaceModel(config, rng=self.rng)
        self.extractor = PatternExtractor(
            config.window, config.num_bases, stride=config.subspace_stride,
            context_aware=config.context_aware,
        )
        self.history = TrainingHistory()

    def fit(self, service_ids: Sequence[str],
            train_series: Sequence[np.ndarray], *,
            checkpointer=None, resume=None,
            epoch_hook: Optional[EpochHook] = None,
            batch_hook: Optional[BatchHook] = None) -> "MaceTrainer":
        """Train on the given services' (normal) training series.

        Parameters
        ----------
        checkpointer:
            Optional :class:`repro.runtime.Checkpointer`; its
            ``after_epoch(trainer, optimizer, epoch)`` hook runs once per
            completed epoch so training survives a mid-``fit`` crash.  If
            the object exposes ``on_fit_start(trainer, optimizer)`` it is
            called once before the first epoch (used to snapshot the
            pristine initial state as a rewind anchor).
        resume:
            Path to a training checkpoint written by a ``Checkpointer``.
            Restores model weights, optimizer moments, the epoch counter
            and the RNG state, then continues training — the resumed run
            replays the uninterrupted run bit for bit (the batch shuffle
            stream picks up exactly where the checkpoint left it).
        epoch_hook:
            Called after each completed epoch (and after its diagnostics
            are appended to ``history``) but *before* the checkpointer, as
            ``epoch_hook(trainer, optimizer, completed_epochs)``.  A
            return value of ``None`` continues normally; an ``int`` rewinds
            the loop to that epoch (the hook is responsible for having
            restored the matching state, e.g. via
            :func:`repro.runtime.restore_trainer`).  A rewound epoch is
            never checkpointed, so the snapshot set only ever holds good
            states.
        batch_hook:
            Called once per batch as ``batch_hook(epoch, batch_index,
            loss)``; may return a replacement loss tensor (``None`` keeps
            the computed one).  This is the seam the chaos suite uses to
            inject ``nan_grad`` faults into a live training run.
        """
        if len(service_ids) != len(train_series):
            raise ValueError("service_ids and train_series must align")
        self.extractor.fit(service_ids, train_series)
        dataset = WindowDataset(
            train_series, service_ids, self.config.window,
            stride=self.config.train_stride,
        )
        optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        start_epoch = 0
        if resume is not None:
            # Imported lazily: repro.runtime depends on repro.core, so the
            # checkpoint format lives there and core only reaches for it
            # when a resume is actually requested.
            from repro.runtime.checkpoint import restore_trainer

            start_epoch = restore_trainer(self, optimizer, resume)
        elif checkpointer is not None:
            on_fit_start = getattr(checkpointer, "on_fit_start", None)
            if on_fit_start is not None:
                on_fit_start(self, optimizer)
        # The amplifier has no trainable weight: each service's windows
        # are amplified once here, and every batch is gathered from them.
        dataset = dataset.map(self.model.amplify_array)
        self.model.train()
        # Telemetry (DESIGN.md §11): metric objects are resolved once per
        # fit and only touched at epoch granularity; the per-batch cost is
        # a span() call, which is a no-op while tracing is disabled.
        registry = get_registry()
        epoch_seconds = registry.histogram("trainer.epoch_seconds")
        batch_counter = registry.counter("trainer.batches")
        nonfinite_counter = registry.counter("trainer.nonfinite_batches")
        epoch = start_epoch
        while epoch < self.config.epochs:
            epoch_started = time.perf_counter()  # effects: ok TIME reason=epoch wall time is telemetry, never model input
            epoch_loss = 0.0
            epoch_norm = 0.0
            batches = 0
            skipped = 0
            with span("trainer.epoch"):
                for batch_index, batch in enumerate(
                        dataset.batches(self.config.batch_size, self.rng)):
                    with span("trainer.batch"):
                        optimizer.zero_grad()
                        output = self.model.reconstruct(
                            Tensor(batch.windows), self.extractor,
                            batch.service_id)
                        loss = self.model.loss(output)
                        if batch_hook is not None:
                            replacement = batch_hook(epoch, batch_index, loss)
                            if replacement is not None:
                                loss = replacement
                        loss_value = float(loss.data)
                        if not np.isfinite(loss_value):
                            # A poisoned batch must not reach the weights:
                            # skip the step entirely and surface the event
                            # instead of averaging NaN into the epoch loss.
                            self.history.nonfinite_batches.append(
                                (epoch, batch_index))
                            skipped += 1
                            continue
                        loss.backward()
                        norm = clip_grad_norm(self.model.parameters(),
                                              self.config.grad_clip)
                        if not np.isfinite(norm):
                            # Finite loss but exploded/NaN gradients (e.g. an
                            # injected nan_grad fault downstream of the loss).
                            self.history.nonfinite_batches.append(
                                (epoch, batch_index))
                            skipped += 1
                            continue
                        optimizer.step()
                        epoch_loss += loss_value
                        epoch_norm += norm
                        batches += 1
            self.history.epoch_losses.append(epoch_loss / max(batches, 1))
            self.history.grad_norms.append(epoch_norm / max(batches, 1))
            elapsed = time.perf_counter() - epoch_started  # effects: ok TIME reason=epoch wall time is telemetry, never model input
            epoch_seconds.observe(elapsed)
            batch_counter.inc(batches + skipped)
            if skipped:
                nonfinite_counter.inc(skipped)
                for event_epoch, event_batch in \
                        self.history.nonfinite_batches[-skipped:]:
                    emit("nonfinite_batch", epoch=event_epoch,
                         batch=event_batch)
            emit("epoch", epoch=epoch, loss=self.history.epoch_losses[-1],
                 grad_norm=self.history.grad_norms[-1], seconds=elapsed,
                 nonfinite=skipped)
            if epoch_hook is not None:
                rewind_to = epoch_hook(self, optimizer, epoch + 1)
                if rewind_to is not None:
                    epoch = int(rewind_to)
                    continue
            if checkpointer is not None:
                checkpointer.after_epoch(self, optimizer, epoch + 1)
            epoch += 1
        self.model.eval()
        return self

    def prepare_service(self, service_id: str, train_series: np.ndarray) -> None:
        """Fit the subspace of a service unseen at training time.

        No gradient step happens: the transfer protocol (Table VIII) only
        calibrates the pattern memory on the new service's normal data.
        """
        self.extractor.fit_service(service_id, train_series)

    def window_errors(self, service_id: str, windows: np.ndarray,
                      batch_size: int = 256) -> np.ndarray:
        """Per-window, per-timestep errors ``(W, T)``.

        Scoring never calls ``backward``, so it runs the model's tape-free
        forward (:meth:`MaceModel.score_windows`) on plain arrays, one
        ``batch_size`` chunk at a time.  With two or more chunks the
        calling thread scores the even-indexed chunks and one helper
        thread the odd-indexed ones (DESIGN.md §2 item 1): the chunks and
        kernels are the serial ones, so the result is the same bits.
        """
        if service_id not in self.extractor:
            raise KeyError(
                f"service {service_id!r} has no fitted subspace; call "
                "fit() or prepare_service() first"
            )
        # ``score_windows`` casts each chunk to the model's dtype, so no
        # cast copy of the whole array is ever held.
        windows = np.asarray(windows)
        if windows.shape[0] <= batch_size:
            # One chunk (a batch-1 stream update) or none: no list, no
            # thread, no concatenate copy.
            return self.model.score_windows(windows, self.extractor,
                                            service_id)
        chunks = [windows[start:start + batch_size]
                  for start in range(0, windows.shape[0], batch_size)]

        def score(chunk: np.ndarray) -> np.ndarray:
            return self.model.score_windows(chunk, self.extractor, service_id)

        # The helper must only read shared state: fill every operand the
        # model builds lazily (the service's DFT/IDFT modules, its marker
        # channels, the weight-derived kernels) here, before it starts.
        self.model.prepare_scoring(self.extractor, service_id)
        pieces: List[Optional[np.ndarray]] = [None] * len(chunks)
        failures: List[BaseException] = []
        stop = threading.Event()

        def helper() -> None:
            try:
                for index in range(1, len(chunks), 2):
                    if stop.is_set():
                        return
                    pieces[index] = score(chunks[index])
            except BaseException as error:  # re-raised by the caller
                failures.append(error)

        # The helper runs in a copy of the caller's context, so NumPy's
        # ``errstate`` (a context variable) applies to its chunks too.
        thread = threading.Thread(target=contextvars.copy_context().run,
                                  args=(helper,), name="window-errors",
                                  daemon=True)
        thread.start()
        # No thread outlives the call (the orchestrator and gateway fork):
        # on every exit the helper is joined, and on a failure here it is
        # first told to stop after its current chunk.
        try:
            for index in range(0, len(chunks), 2):
                if failures:
                    break
                pieces[index] = score(chunks[index])
        except BaseException:
            stop.set()
            raise
        finally:
            thread.join(timeout=_HELPER_JOIN_TIMEOUT_S)
        if thread.is_alive():
            stop.set()
            raise TimeoutError(
                f"window_errors helper did not finish within "
                f"{_HELPER_JOIN_TIMEOUT_S:.0f} s")
        if failures:
            raise failures[0]
        return np.concatenate(pieces, axis=0)
