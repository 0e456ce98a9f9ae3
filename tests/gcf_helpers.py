"""Helpers that several test modules share: the comb's taps, a spec by D, the response grid and a rounded filter."""

import numpy as np

from gcfkit import GcfSpec, ToleranceSpec, WordLengthReport, band_index, folding_bands, grid_frequencies, integer_bits
from gcfkit.spectral import DEFAULT_GLOBAL_POINTS, DEFAULT_POINTS_PER_BAND
from gcfkit.wordlength import DEFAULT_Y


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


def rounded_report(spec, f_n, i_n=None):
    """A WordLengthReport of spec rounded to f_n fraction bits, with the stage widths i_n.

    i_n defaults to integer_bits' widths for a 1-bit input.  The report
    carries the rounded filter of (spec, f_n); its tolerance, binding
    frequency and architecture fields are placeholders, not a sizing.
    """
    g, widths = integer_bits(spec, 1)
    return WordLengthReport(spec=spec, tolerance=ToleranceSpec(1e-4, DEFAULT_Y), input_width=1, f_n=f_n, g_k=g,
                            i_n_k=widths if i_n is None else tuple(i_n), binding_freq=0.0, case_tag="",
                            n_multipliers=0)
