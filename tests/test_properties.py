"""Property tests of the stage multipliers and the normalizer h_o over random designs (needs hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gcfkit import GcfSpec, expand_full_polynomial, normalization_gain, stage_coefficients  # noqa: E402
from gcfkit.filters import stage_multiplier  # noqa: E402


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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 16, 256, 1024]), st.floats(1e-6, 1.0, exclude_max=True), st.floats(0.0, 1.0))
def test_the_stage_multipliers_are_the_same_at_every_split(D, fc_fraction, q):
    # split invariance: one tuple r_0 .. r_{p-1}, of which the cascade takes the stages above p_p
    specs = [GcfSpec(D=D, f_c=fc_fraction / (2 * D), p_p=pp, q=q) for pp in range(-1, D.bit_length() - 1)]
    want = tuple(stage_multiplier(specs[0].alpha, k) for k in range(D.bit_length() - 1))
    assert {spec.multipliers for spec in specs} == {want}
    for spec in specs:
        assert stage_coefficients(spec) == spec.multipliers[spec.p_p + 1:]
