"""Frequency-domain substrate: bases, context-aware transforms, theory."""

from repro.frequency.basis import (
    FourierBasis,
    fourier_forward_matrix,
    fourier_inverse_matrix,
    num_rfft_bins,
)
from repro.frequency.context_aware import (
    ContextAwareDFT,
    ContextAwareIDFT,
    ServiceSubspace,
    count_basis_incidence,
    select_dominant_bases,
)
from repro.frequency.dft import rfft_amplitude
from repro.frequency.periodicity import PeriodEstimate, estimate_periods, recommend_window
from repro.frequency.spectrum import (
    SpectrumStats,
    compare_anomaly_normal,
    pairwise_kde_kl,
    spectral_kl_divergence,
    spectrum_expectation,
    spectrum_variance,
)
from repro.frequency.theory import (
    corollary1_condition,
    corollary1_gap_under_shift,
    double_factorial,
    empirical_latent_gap,
    kl_reconstruction_error,
    theorem1_upper_bound,
    theorem2_gap,
)

__all__ = [
    "FourierBasis", "fourier_forward_matrix", "fourier_inverse_matrix",
    "num_rfft_bins",
    "ContextAwareDFT", "ContextAwareIDFT", "ServiceSubspace",
    "count_basis_incidence", "select_dominant_bases",
    "rfft_amplitude",
    "PeriodEstimate", "estimate_periods", "recommend_window",
    "SpectrumStats", "compare_anomaly_normal", "pairwise_kde_kl",
    "spectral_kl_divergence", "spectrum_expectation", "spectrum_variance",
    "corollary1_condition", "corollary1_gap_under_shift", "double_factorial",
    "empirical_latent_gap", "kl_reconstruction_error", "theorem1_upper_bound",
    "theorem2_gap",
]
