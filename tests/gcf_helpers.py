"""Helpers that several test modules share: the comb's taps, a spec by D, and the response grid."""

import numpy as np

from gcfkit import GcfSpec, band_index, folding_bands, grid_frequencies
from gcfkit.spectral import DEFAULT_GLOBAL_POINTS, DEFAULT_POINTS_PER_BAND


def comb_coefficients(D):
    """Integer taps of the third-order comb of D: (1 + z^-1 + ... + z^-(D-1))^3."""
    return np.convolve(np.convolve(np.ones(D), np.ones(D)), np.ones(D))


def spec_for(D, p_p=-1, q=0.79, rho_factor=4):
    return GcfSpec.from_oversampling(D, rho_factor * D, p_p=p_p, q=q)


def banded_grid(spec, points_per_band=DEFAULT_POINTS_PER_BAND, global_points=DEFAULT_GLOBAL_POINTS):
    """spec's response-grid frequencies and the folding band of each (0 out of band)."""
    freqs = grid_frequencies(folding_bands(spec), points_per_band, global_points)
    return freqs, band_index(spec, freqs)


def in_band(spec, points_per_band=DEFAULT_POINTS_PER_BAND, global_points=DEFAULT_GLOBAL_POINTS):
    """The in-band frequencies of spec's response grid."""
    freqs, band = banded_grid(spec, points_per_band, global_points)
    return freqs[band > 0]
