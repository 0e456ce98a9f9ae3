"""Property tests of the normalizer h_o over random designs (needs hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gcfkit import GcfSpec, expand_full_polynomial, normalization_gain  # noqa: E402


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
