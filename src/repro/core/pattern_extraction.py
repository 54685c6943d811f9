"""Pattern extraction: per-service subspaces + cached transform modules.

This object is MACE's "memory": the neural weights are shared across every
service, while the context-aware DFT/IDFT pair is looked up per service.
It owns every service's :class:`ServiceSubspace` and writes/reads them as
the ``subspaces`` block of a saved detector's manifest.  Handling a
previously unseen service only requires fitting its subspace (a cheap
counting pass over its training windows) — no retraining — which is what
powers the Table VIII transfer experiment.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.frequency.context_aware import (
    ContextAwareDFT,
    ContextAwareIDFT,
    ServiceSubspace,
)

__all__ = ["PatternExtractor"]


class PatternExtractor:
    """Fit, store and serve per-service normal-pattern subspaces."""

    def __init__(self, window: int, num_bases: int, stride: int = 1,
                 context_aware: bool = True):
        self.window = window
        self.num_bases = num_bases
        self.stride = stride
        self.context_aware = context_aware
        self._subspaces: Dict[str, ServiceSubspace] = {}
        self._transforms: Dict[str, Tuple[ContextAwareDFT, ContextAwareIDFT]] = {}

    def fit(self, service_ids: Sequence[str],
            train_series: Sequence[np.ndarray]) -> "PatternExtractor":
        """Fit subspaces for a fleet of services."""
        for service_id, series in zip(service_ids, train_series):
            self.fit_service(service_id, series)
        return self

    def fit_service(self, service_id: str, series: np.ndarray) -> ServiceSubspace:
        """Fit (or refit) one service; invalidates its cached transforms."""
        if series.ndim == 1:
            series = series[:, None]
        if self.context_aware:
            subspace = ServiceSubspace.fit(series, self.window, self.num_bases,
                                           stride=self.stride)
        else:
            # Ablation: vanilla DFT/IDFT over the complete spectrum.
            subspace = ServiceSubspace.full_spectrum(self.window, series.shape[1])
        self._subspaces[service_id] = subspace
        self._transforms.pop(service_id, None)
        return subspace

    def subspace(self, service_id: str) -> ServiceSubspace:
        if service_id not in self._subspaces:
            raise KeyError(f"no subspace fitted for service {service_id!r}")
        return self._subspaces[service_id]

    def transforms(self, service_id: str, dtype=np.float64
                   ) -> Tuple[ContextAwareDFT, ContextAwareIDFT]:
        """Cached, amplitude-normalised DFT/IDFT modules for a service,
        with weights in ``dtype`` (the model's)."""
        cached = self._transforms.get(service_id)
        if cached is None or cached[0].dtype != dtype:
            subspace = self.subspace(service_id)
            cached = (ContextAwareDFT(subspace, normalized=True, dtype=dtype),
                      ContextAwareIDFT(subspace, normalized=True, dtype=dtype))
            self._transforms[service_id] = cached
        return cached

    def __contains__(self, service_id: str) -> bool:
        return service_id in self._subspaces

    def to_dict(self) -> dict:
        """The manifest's ``subspaces`` block (see :meth:`load_dict`).

        ``include_dc`` is always true; it stays in the block so the format
        is unchanged for readers that expect it.
        """
        return {
            "window": self.window,
            "k": self.num_bases,
            "stride": self.stride,
            "include_dc": True,
            "subspaces": {sid: s.to_dict() for sid, s in self._subspaces.items()},
        }

    def load_dict(self, payload: dict) -> None:
        """Replace every subspace with those of a :meth:`to_dict` block.

        The block's scalar fields restate the extractor's own configuration
        and are not read back.  Raises ``KeyError``/``TypeError``/
        ``ValueError`` on a malformed block, including a subspace whose
        window differs from the extractor's; the extractor is left
        unchanged in that case.
        """
        block = payload["subspaces"]
        if not isinstance(block, dict):
            raise TypeError("'subspaces' must map service ids to subspaces, "
                            f"got {type(block).__name__}")
        subspaces = {sid: ServiceSubspace.from_dict(sub)
                     for sid, sub in block.items()}
        for service_id, subspace in subspaces.items():
            if subspace.window != self.window:
                raise ValueError(
                    f"subspace window mismatch for service {service_id!r}: "
                    f"{subspace.window} != {self.window}"
                )
        self._subspaces = subspaces
        self._transforms.clear()
