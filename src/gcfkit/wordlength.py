"""Statistical word-length sizing of the fixed-point GCF coefficients.

Quantizing the N multipliers of the filter to b fractional bits perturbs the
magnitude response by an error whose variance obeys

    var(d|H|) ~= sigma_dm**2 * S_T(w),   sigma_dm = 2**-b / sqrt(12),

where S_T is the sum of squared magnitudes of the response derivatives with
respect to the multipliers.  Bounding the error by a tolerance chi over the
folding bands with Gaussian multiplier y gives the fractional size

    F_n = ceil(-log2(sqrt(12) * min_FB chi / (y * sqrt(S_T)))).

Sensitivity convention: each filter section is referenced to its own DC gain
and the residual normalizer is treated as exact (not quantized).  Under this
convention the stored polyphase branch taps are the unit-DC-scaled values
(their derivative weight is exactly 1, so the pure-polyphase S_T equals the
tap count L = 3*D1-2), while cascade multipliers r_k keep their raw values
with the normalization applied downstream in floating point.  Derivatives of
the cascade are evaluated in product form, which stays finite at the in-band
zeros where the quotient form degenerates to 0/0.  By split invariance the
polyphase magnitude |H_P| is the same stage product over k = 0..p_p,

    |H_P(w)| = |prod_{k=0..p_p} 2 (cos(3*2^{k-1}w) + r_k cos(2^{k-1}w))|,

referenced to its DC gain prod(2 + 2 r_k), so S_T costs O(p * nf) time and
memory at every split.  An unnormalized mode (bare section responses) is
kept for diagnosis.

Integer sizing is worst-case: each stage grows the dynamic range by
g_k = log2(2 + 2 r_k) <= 3 bits, accumulated through the cascade.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, ParameterError
from .filters import GcfSpec, polyphase_impulse, stage_coefficients, stage_dc_gain, stage_multiplier
from .spectral import (
    DEFAULT_GLOBAL_POINTS,
    DEFAULT_POINTS_PER_BAND,
    FoldingBandSet,
    cascade_response,
    folding_bands,
    grid_frequencies,
    stage_bracket,
    stage_brackets,
)


def y_from_p(prob: float) -> float:
    """Gaussian multiplier y with coverage prob: prob = erf(y / sqrt(2)).

    Solved by bisection to an interval width of 1e-10.
    """
    if not 0.0 < prob < 1.0:
        raise ParameterError(f"prob must be in (0, 1), got {prob}")
    lo, hi = 0.0, 1.0
    while math.erf(hi / math.sqrt(2.0)) < prob:
        hi *= 2.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if math.erf(mid / math.sqrt(2.0)) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ToleranceSpec:
    """Magnitude-error bound chi over the folding bands with coverage prob.

    Build with from_prob (y derived by inverting prob = erf(y / sqrt(2)))
    or from_y (exact coverage derived from a rounded working value such as
    y = 2 or y = 1.63).
    """

    chi: float
    prob: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.chi) and self.chi > 0.0):
            raise ParameterError(f"chi must be positive and finite, got {self.chi}")
        if not 0.0 < self.prob < 1.0:
            raise ParameterError(f"prob must be in (0, 1), got {self.prob}")
        if not (math.isfinite(self.y) and self.y > 0.0):
            raise ParameterError(f"y must be positive and finite, got {self.y}")

    @classmethod
    def from_prob(cls, chi: float, prob: float) -> "ToleranceSpec":
        return cls(chi=chi, prob=prob, y=y_from_p(prob))

    @classmethod
    def from_y(cls, chi: float, y: float) -> "ToleranceSpec":
        if not (math.isfinite(y) and y > 0.0):
            raise ParameterError(f"y must be positive and finite, got {y}")
        return cls(chi=chi, prob=math.erf(y / math.sqrt(2.0)), y=y)

    def as_dict(self) -> dict:
        return {"chi": self.chi, "prob": self.prob, "y": self.y}


@dataclass(frozen=True)
class FractionalBitsResult:
    f_n: int
    binding_freq: float
    s_t_max: float


@dataclass(frozen=True)
class SensitivityResult:
    """S_T samples over a frequency grid."""

    freqs: np.ndarray
    s_t: np.ndarray
    case_tag: str
    n_multipliers: int

    def fraction_bits(self, tol: ToleranceSpec) -> FractionalBitsResult:
        """F_n of tol over these frequencies, as in fractional_bits."""
        st = self.s_t
        if np.all(st <= 0.0):
            raise InternalError("S_T vanished identically over the folding bands")
        with np.errstate(divide="ignore"):
            ratio = np.where(st > 0.0, tol.chi / (tol.y * np.sqrt(st)), np.inf)
        idx = int(np.argmin(ratio))
        f_n = int(math.ceil(-math.log2(math.sqrt(12.0) * ratio[idx])))
        return FractionalBitsResult(f_n=f_n, binding_freq=float(self.freqs[idx]), s_t_max=float(st[idx]))


@dataclass(frozen=True)
class FixedPointFormat:
    """Sign / integer / fraction bit allocation; i_n is per cascade stage."""

    i_n: tuple[int, ...]
    f_n: int
    sign_bits: int = 1

    def __post_init__(self):
        if self.f_n < 0 or any(b < 0 for b in self.i_n):
            raise ParameterError("bit counts must be non-negative")

    @property
    def total(self) -> int:
        return self.sign_bits + (max(self.i_n) if self.i_n else 0) + self.f_n


@dataclass(frozen=True)
class IntegerSizing:
    """Per-stage dynamic-range growth g_k and accumulated integer bits."""

    g: tuple[float, ...]
    i_n: tuple[int, ...]
    input_width: int


@dataclass(frozen=True)
class ErrorStats:
    """Realized quantization error against the statistical model."""

    freqs: np.ndarray
    in_band_mask: np.ndarray
    quantized: np.ndarray  # complex response with rounded multipliers, unit DC gain
    delta_h: np.ndarray
    sigma_dm: float
    sigma_dh: np.ndarray
    sensitivity: SensitivityResult  # normalized S_T behind sigma_dh


@dataclass(frozen=True)
class WordLengthReport:
    """Everything cmd-design decides: F_n, per-stage widths, provenance."""

    spec: dict
    tolerance: dict
    input_width: int
    f_n: int
    g_k: tuple[float, ...]
    i_n_k: tuple[int, ...]
    binding_freq: float
    case_tag: str
    n_multipliers: int

    def as_dict(self) -> dict:
        return {
            "spec": self.spec,
            "tolerance": self.tolerance,
            "input_width": self.input_width,
            "f_n": self.f_n,
            "g_k": list(self.g_k),
            "i_n_k": list(self.i_n_k),
            "binding_freq": self.binding_freq,
            "case_tag": self.case_tag,
            "n_multipliers": self.n_multipliers,
            "coefficient_width": 1 + (max(self.i_n_k) if self.i_n_k else 0) + self.f_n,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")

    def table(self) -> str:
        lines = [
            f"fraction bits F_n      : {self.f_n}",
            f"binding frequency      : {self.binding_freq:.6f} cycles/sample",
            f"architecture           : {self.case_tag} ({self.n_multipliers} multipliers)",
            f"input width            : {self.input_width}",
            "stage   g_k      I_n^k",
        ]
        for k, (g, i) in enumerate(zip(self.g_k, self.i_n_k)):
            lines.append(f"  {k:2d}   {g:6.3f}   {i:3d}")
        return "\n".join(lines)


def _bracket_derivs(freqs: np.ndarray, stage_ks) -> np.ndarray:
    """d/dr of the per-stage factors: 2 cos(2^{k-1} w)."""
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    out = np.empty((len(list(stage_ks)), len(w)))
    for row, k in enumerate(stage_ks):
        out[row] = 2.0 * np.cos((2.0 ** (k - 1)) * w)
    return out


def cascade_derivative_magnitudes(spec: GcfSpec, freqs, normalized: bool = True) -> np.ndarray:
    """|dH_N / dr_u| for every cascade stage, product form, shape (stages, nf).

    Stage u's factor is replaced by its derivative 2 cos(2^{u-1}w); all other
    stage factors are kept.  No division by stage factors occurs, so the
    result is finite at the in-band zeros.  With normalized set the bare
    derivatives are referenced to the cascade DC gain prod(2 + 2 r).
    """
    freqs = np.asarray(freqs, dtype=float)
    ks = list(spec.cascade_stages)
    r = np.asarray(stage_coefficients(spec).r)
    brackets = stage_brackets(freqs, ks, r)
    derivs = _bracket_derivs(freqs, ks)
    out = np.empty_like(brackets)
    for u in range(len(ks)):
        others = np.prod(np.delete(brackets, u, axis=0), axis=0) if len(ks) > 1 else 1.0
        out[u] = np.abs(derivs[u] * others)
    if normalized:
        out /= stage_dc_gain(r)
    return out


def _stage_magnitude(spec: GcfSpec, freqs: np.ndarray, ks, normalized: bool) -> np.ndarray:
    """|prod_k 2(cos 3*2^{k-1}w + r_k cos 2^{k-1}w)| over the full-rate stages ks.

    With ks = k_p+1..p-1 this is |H_N|.  Split invariance makes the polyphase
    section equal to the cascade stages it replaces, so ks = 0..p_p gives
    |H_P|.  The DC gain of the product is prod(2 + 2 r_k).
    """
    r = np.array([stage_multiplier(spec.alpha, k) for k in ks])
    mag = np.abs(np.prod(stage_brackets(freqs, ks, r), axis=0))
    return mag / stage_dc_gain(r) if normalized else mag


def sensitivity(spec: GcfSpec, freqs, normalized: bool = True) -> SensitivityResult:
    """Sensitivity function S_T over the given frequencies.

    Three architecture cases:

    * pure cascade (p_p = -1): S_T = sum_u |dH_N/dr_u|**2;
    * pure polyphase (p_p = p-1): S_T is the constant tap count L = 3*D1-2,
      independent of frequency (each tap derivative is a unit phasor);
    * partial split: S_T = L |H_N|**2 + |H_P|**2 sum_u |dH_N/dr_u|**2,
      with |H_P| the product of the stages k = 0..p_p (split invariance),
      so no frequencies x taps DTFT is formed.
    """
    freqs = np.asarray(freqs, dtype=float)
    L = 3 * spec.D1 - 2
    n_stages = spec.p - spec.p_p - 1
    n_mult = L + n_stages
    if spec.p_p == spec.p - 1:
        return SensitivityResult(
            freqs=freqs, s_t=np.full(len(freqs), float(L)),
            case_tag="full-polyphase", n_multipliers=n_mult,
        )
    d = cascade_derivative_magnitudes(spec, freqs, normalized=normalized)
    cascade_term = np.sum(d * d, axis=0)
    if spec.p_p == -1:
        return SensitivityResult(
            freqs=freqs, s_t=cascade_term, case_tag="full-cascade", n_multipliers=n_mult,
        )
    hn_mag = _stage_magnitude(spec, freqs, spec.cascade_stages, normalized)
    hp_mag = _stage_magnitude(spec, freqs, range(spec.p_p + 1), normalized)
    s_t = L * hn_mag ** 2 + (hp_mag ** 2) * cascade_term
    return SensitivityResult(freqs=freqs, s_t=s_t, case_tag="partial", n_multipliers=n_mult)


def in_band_sensitivity(
    spec: GcfSpec,
    bands: FoldingBandSet | None = None,
    freqs: np.ndarray | None = None,
    points_per_band: int = DEFAULT_POINTS_PER_BAND,
    global_points: int = DEFAULT_GLOBAL_POINTS,
    normalized: bool = True,
) -> SensitivityResult:
    """S_T on the points of freqs (default: the response grid) inside the folding bands."""
    bands = bands if bands is not None else folding_bands(spec.D, spec.f_c)
    if freqs is None:
        freqs = grid_frequencies(bands, points_per_band, global_points)
    freqs = np.asarray(freqs, dtype=float)
    mask = bands.contains(freqs)
    if not np.any(mask):
        raise ParameterError("frequency grid has no in-band points")
    return sensitivity(spec, freqs[mask], normalized=normalized)


def fractional_bits(
    spec: GcfSpec,
    tol: ToleranceSpec,
    bands: FoldingBandSet | None = None,
    freqs: np.ndarray | None = None,
    points_per_band: int = DEFAULT_POINTS_PER_BAND,
    global_points: int = DEFAULT_GLOBAL_POINTS,
    normalized: bool = True,
) -> FractionalBitsResult:
    """Fraction bits needed to hold |d|H|| <= chi over the folding bands.

    F_n = ceil(-log2(sqrt(12) * min_FB chi / (y sqrt(S_T)))); the minimum is
    searched on the in-band grid points (the bands are narrow and S_T is
    smooth, so grid search at the default density is reliable).  The
    frequency achieving the minimum is reported as binding_freq.
    """
    sens = in_band_sensitivity(spec, bands, freqs, points_per_band, global_points, normalized)
    return sens.fraction_bits(tol)


def integer_bits(spec: GcfSpec, input_width: int) -> IntegerSizing:
    """Worst-case integer sizing of the cascade stages.

    Stage growth g_k = log2(2 + 2 r_k) <= 3; integer widths accumulate
    through the cascade (each stage's output feeds the next), so
    I_n^k = input_width + sum_{j<=k} ceil(g_j).
    """
    if input_width < 1:
        raise ParameterError(f"input_width must be >= 1, got {input_width}")
    r = stage_coefficients(spec).r
    g = tuple(math.log2(2.0 + 2.0 * r_k) for r_k in r)
    acc = 0
    i_n = []
    for g_k in g:
        acc += math.ceil(g_k)
        i_n.append(input_width + acc)
    return IntegerSizing(g=g, i_n=tuple(i_n), input_width=input_width)


def quantize_coefficients(values, f_n: int) -> np.ndarray:
    """Round to f_n fraction bits, ties away from zero: |m_q - m| <= 2**-f_n / 2."""
    if f_n < 0:
        raise ParameterError(f"f_n must be >= 0, got {f_n}")
    v = np.asarray(values, dtype=float)
    scale = 2.0 ** f_n
    return np.copysign(np.floor(np.abs(v) * scale + 0.5), v) / scale


def _quantized_multiplier_sets(spec: GcfSpec, f_n: int):
    """(exact taps, exact r) and their f_n-bit roundings, taps unit-DC-scaled."""
    bank = polyphase_impulse(spec)
    taps = bank.h_p / bank.h_p.sum()
    r = np.asarray(stage_coefficients(spec).r)
    return taps, r, quantize_coefficients(taps, f_n), quantize_coefficients(r, f_n)


# Frequencies per block of the tap DTFT: its complex temporaries are
# (block x taps), whatever the grid size.  Each frequency's sum is formed
# on its own, so the result is the same for any block size.
_DTFT_FREQ_BLOCK = 256


def _response_from_multipliers(spec: GcfSpec, freqs: np.ndarray, taps: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Complex response of the architecture for given multiplier values."""
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    n = np.arange(len(taps))
    bank = np.empty(len(w), dtype=complex)
    for lo in range(0, len(w), _DTFT_FREQ_BLOCK):
        wb = w[lo:lo + _DTFT_FREQ_BLOCK]
        bank[lo:lo + len(wb)] = (taps[None, :] * np.exp(-1j * np.outer(wb, n))).sum(axis=1)
    return cascade_response(freqs, spec.cascade_stages, r, start=bank)


def quantization_error_response(
    spec: GcfSpec,
    f_n: int,
    bands: FoldingBandSet | None = None,
    freqs: np.ndarray | None = None,
    points_per_band: int = DEFAULT_POINTS_PER_BAND,
    global_points: int = DEFAULT_GLOBAL_POINTS,
) -> ErrorStats:
    """Realized magnitude distortion d|H| = |H_q| - |H| for rounded multipliers.

    Exact and quantized responses are each self-normalized to unit DC gain
    before the magnitudes are compared, alongside the model prediction
    sigma_dh = sigma_dm * sqrt(S_T).
    """
    bands = bands if bands is not None else folding_bands(spec.D, spec.f_c)
    if freqs is None:
        freqs = grid_frequencies(bands, points_per_band, global_points)
    freqs = np.asarray(freqs, dtype=float)
    taps, r, taps_q, r_q = _quantized_multiplier_sets(spec, f_n)
    exact = _response_from_multipliers(spec, freqs, taps, r)
    quant = _response_from_multipliers(spec, freqs, taps_q, r_q)
    dc_exact = taps.sum() * stage_dc_gain(r)
    dc_quant = taps_q.sum() * stage_dc_gain(r_q)
    delta = np.abs(quant) / dc_quant - np.abs(exact) / dc_exact
    sigma_dm = 2.0 ** -f_n / math.sqrt(12.0)
    sens = sensitivity(spec, freqs, normalized=True)
    return ErrorStats(
        freqs=freqs,
        in_band_mask=bands.contains(freqs),
        quantized=quant / dc_quant,
        delta_h=delta,
        sigma_dm=sigma_dm,
        sigma_dh=sigma_dm * np.sqrt(sens.s_t),
        sensitivity=sens,
    )


# Trials per block of the Monte Carlo responses: the complex temporaries of
# a block are (block x in-band points), whatever the number of trials.
_MC_TRIAL_BLOCK = 64


def _mc_delta_h(spec: GcfSpec, f_n: int, trials: int, seed: int, freqs: np.ndarray):
    """Yield the d|H| samples of uniform multiplier noise in row blocks, shape (block, nf).

    Every multiplier of the architecture gets an independent uniform draw on
    [-2**-f_n/2, +2**-f_n/2]; trial t uses the substream seeded by (seed, t),
    so results do not depend on evaluation order.  A block holds
    _MC_TRIAL_BLOCK trials; each row is the same for any block size.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    freqs = np.asarray(freqs, dtype=float)
    w = 2.0 * np.pi * freqs
    taps, r, _, _ = _quantized_multiplier_sets(spec, f_n)
    ks = list(spec.cascade_stages)
    half_lsb = 2.0 ** -f_n / 2.0
    n_taps = len(taps) if spec.D1 > 1 else 0  # degenerate unit tap is wiring, not a multiplier
    n_r = len(ks)
    draws = np.empty((trials, n_taps + n_r))
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        draws[t] = rng.uniform(-half_lsb, half_lsb, size=n_taps + n_r)
    # exact response pieces
    n = np.arange(len(taps))
    E = np.exp(-1j * np.outer(w, n))
    hp0 = E @ taps
    dc = taps.sum() * stage_dc_gain(r)
    base = np.abs(hp0) * np.abs(np.prod(stage_brackets(freqs, ks, r), axis=0)) / dc

    def delta_h(block):
        # the temporaries of a block are freed before it is yielded
        quant = np.abs((hp0[None, :] + block[:, :n_taps] @ E.T) if n_taps else hp0[None, :])
        if n_r:
            r_q = r[None, :] + block[:, n_taps:]
            amp = np.ones((len(block), len(freqs)))
            for j, k in enumerate(ks):
                amp *= stage_bracket(w, k, r_q[:, j:j + 1])
            quant = quant * np.abs(amp)
        return quant / dc - base[None, :]

    # a last block of one trial joins the one before it, because numpy forms
    # a one-row product with gemv, whose rounding differs from the gemm used
    # for the other blocks
    starts = list(range(0, trials, _MC_TRIAL_BLOCK))
    if len(starts) > 1 and trials - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [trials]):
        yield delta_h(draws[lo:hi])


@dataclass(frozen=True)
class MonteCarloRun:
    """Monte Carlo d|H| statistics on the in-band grid next to the model sigma_dh."""

    freqs: np.ndarray
    error_std: np.ndarray  # per-frequency empirical std of d|H|
    sigma_dh: np.ndarray
    y: float
    trials: int
    covered: int  # (trial, in-band point) pairs with |d|H|| <= y * sigma_dh

    def coverage(self) -> float:
        """Fraction of (trial, in-band point) pairs with |d|H|| <= y * sigma_dh.

        Fewer than 1000 trials is rejected (the estimate is too unstable to
        act on).
        """
        if self.trials < 1000:
            raise ParameterError(f"trials must be >= 1000, got {self.trials}")
        return self.covered / (self.trials * len(self.freqs))


def monte_carlo_run(
    spec: GcfSpec,
    f_n: int,
    trials: int,
    seed: int,
    y: float,
    bands: FoldingBandSet | None = None,
    points_per_band: int = DEFAULT_POINTS_PER_BAND,
    global_points: int = DEFAULT_GLOBAL_POINTS,
) -> MonteCarloRun:
    """d|H| of f_n-bit multiplier noise over the in-band grid, deterministic given seed.

    The trial blocks are reduced one at a time, so memory does not grow with
    trials: each block's per-frequency count, mean and M2 are merged into the
    running ones (the pairwise update of Chan, Golub and LeVeque, 1979), and
    the pairs within y * sigma_dh are counted.
    """
    sens = in_band_sensitivity(spec, bands, points_per_band=points_per_band, global_points=global_points)
    sigma_dh = (2.0 ** -f_n / math.sqrt(12.0)) * np.sqrt(sens.s_t)
    bound = y * sigma_dh
    count, mean, m2, covered = 0, 0.0, 0.0, 0
    for block in _mc_delta_h(spec, f_n, trials, seed, sens.freqs):
        b = len(block)
        b_mean = block.mean(axis=0)
        b_m2 = ((block - b_mean) ** 2).sum(axis=0)
        delta = b_mean - mean
        mean = mean + delta * (b / (count + b))
        m2 = m2 + b_m2 + delta ** 2 * (count * b / (count + b))
        count += b
        covered += int(np.count_nonzero(np.abs(block) <= bound))
    return MonteCarloRun(
        freqs=sens.freqs, error_std=np.sqrt(m2 / count), sigma_dh=sigma_dh,
        y=y, trials=count, covered=covered,
    )


def design_wordlengths(
    spec: GcfSpec,
    tol: ToleranceSpec,
    input_width: int,
    bands: FoldingBandSet | None = None,
    points_per_band: int = DEFAULT_POINTS_PER_BAND,
    global_points: int = DEFAULT_GLOBAL_POINTS,
    normalized: bool = True,
) -> WordLengthReport:
    """Full word-length design: F_n from the statistics, I_n from worst case."""
    sens = in_band_sensitivity(
        spec, bands, points_per_band=points_per_band, global_points=global_points,
        normalized=normalized,
    )
    fres = sens.fraction_bits(tol)
    sizing = integer_bits(spec, input_width)
    return WordLengthReport(
        spec=spec.as_dict(),
        tolerance=tol.as_dict(),
        input_width=input_width,
        f_n=fres.f_n,
        g_k=sizing.g,
        i_n_k=sizing.i_n,
        binding_freq=fres.binding_freq,
        case_tag=sens.case_tag,
        n_multipliers=sens.n_multipliers,
    )


