"""Full-spectrum amplitude helper built on ``numpy.fft``.

:func:`rfft_amplitude` ranks bases during subspace selection
(:mod:`repro.frequency.context_aware`), feeds the spectrum statistics of
Tables II/III and Fig. 5a (:mod:`repro.frequency.spectrum`), and scores the
serving fallback.  The differentiable, subset-based transforms live in
:mod:`repro.frequency.basis` and :mod:`repro.frequency.context_aware`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rfft_amplitude"]


def rfft_amplitude(x: np.ndarray) -> np.ndarray:
    """Amplitude spectrum ``|rfft(x)|`` over the last axis."""
    return np.abs(np.fft.rfft(x, axis=-1))
