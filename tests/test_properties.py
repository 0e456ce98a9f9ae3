"""Property tests of the normalizer h_o and the bank taps over random designs (needs hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gcfkit import GcfSpec, expand_full_polynomial, normalization_gain, polyphase_impulse  # noqa: E402
from gcfkit.spectral import _form_gap_bound  # noqa: E402


@st.composite
def designs(draw):
    """(D, f_c, q, p_p): p in 1..10, f_c inside (0, 1/(2D)), any split."""
    p = draw(st.integers(1, 10))
    D = 2 ** p
    f_c = draw(st.floats(1e-6, 1.0, exclude_max=True)) / (2 * D)
    q = draw(st.floats(0.0, 1.0))
    p_p = draw(st.integers(-1, p - 1))
    return D, f_c, q, p_p


@settings(max_examples=60, deadline=None)
@given(designs())
def test_normalization_gain_is_inverse_expanded_dc_gain(design):
    D, f_c, q, p_p = design
    spec = GcfSpec(D=D, f_c=f_c, p_p=p_p, q=q)
    want = 1.0 / np.sum(expand_full_polynomial(spec))
    assert normalization_gain(spec) == pytest.approx(want, rel=1e-13, abs=0)


@settings(max_examples=60, deadline=None)
@given(designs())
def test_normalization_gain_is_the_same_at_every_split(design):
    D, f_c, q, _ = design
    gains = {normalization_gain(GcfSpec(D=D, f_c=f_c, p_p=pp, q=q)) for pp in range(-1, D.bit_length() - 1)}
    assert len(gains) == 1, gains


def old_form_gap_bound(spec):
    """The gap bound with its factor sum|h_p| / |sum h_p| read from the taps."""
    h_p = polyphase_impulse(spec)
    L = 3 * spec.D1 - 2
    return ((np.pi + 1.0) * L + 16.0 * spec.p) * 2.0 ** -53 * float(np.abs(h_p).sum() / abs(h_p.sum()))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10).flatmap(lambda p: st.tuples(
    st.just(2 ** p), st.sampled_from([0.0, 0.5, 0.79, 1.0]), st.floats(2 ** p, 8 * 2 ** p, exclude_min=True))))
@example((1024, 1.0, float(np.nextafter(1024.0, np.inf))))
@example((2, 1.0, float(np.nextafter(2.0, np.inf))))
@example((1024, 0.79, 8192.0))
def test_bank_taps_are_positive_so_the_gap_bound_reads_no_taps(design):
    D, q, rho = design
    for p_p in range(-1, D.bit_length() - 1):
        spec = GcfSpec.from_oversampling(D, rho, p_p=p_p, q=q)
        assert np.all(polyphase_impulse(spec) > 0.0)
        assert _form_gap_bound(spec) == old_form_gap_bound(spec)
