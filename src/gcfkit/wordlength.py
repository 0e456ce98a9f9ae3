"""Statistical word-length sizing of the fixed-point GCF coefficients.

Quantizing the N multipliers of the filter to b fractional bits perturbs the
magnitude response by an error whose variance obeys

    var(d|H|) ~= sigma_dm**2 * S_T(w),   sigma_dm = 2**-b / sqrt(12),

where S_T is the sum of squared magnitudes of the response derivatives with
respect to the multipliers.  Bounding the error by a tolerance chi over the
folding bands with Gaussian multiplier y gives the fractional size

    F_n = max(0, ceil(-log2(sqrt(12) * min_FB chi / (y * sqrt(S_T))))).

Sensitivity convention: each filter section is referenced to its own DC gain
and the residual normalizer is treated as exact (not quantized).  Under this
convention the stored polyphase branch taps are the unit-DC-scaled values
(their derivative weight is exactly 1, so the pure-polyphase S_T equals the
tap count L = 3*D1-2), while cascade multipliers r_k keep their raw values
with the normalization applied downstream in floating point.  With
b_k = 2 (cos(3*2^{k-1}w) + r_k cos(2^{k-1}w)) the factor of stage k and
c_k = 2 cos(2^{k-1}w) its derivative, each referenced to 2 + 2 r_k,

    S_T(p_p) = L |H_N|**2 + sum_{u > p_p} |c_u|**2 prod_{k != u} |b_k|**2,

with |H_N|**2 = prod_{k > p_p} |b_k|**2 and L = 0 at D1 = 1.  By split
invariance the cascade terms are the same products of the p stage factors
at every split, so S_T is one pass over k = 0..p-1 in O(nf) memory, and the
product form stays finite at the in-band zeros.

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
from .spectral import cascade_response, stage_bracket, stage_brackets, stage_derivative


def y_from_p(prob: float) -> float:
    """Gaussian multiplier y with coverage prob: prob = erf(y / sqrt(2)).

    Taken from the lower tail, y = -Phi^-1((1 - prob) / 2), which is the
    same by symmetry; the upper-tail argument (1 + prob) / 2 rounds to 1
    when prob is within 1.1e-16 of 1.
    """
    from statistics import NormalDist  # imports decimal and fractions; only prob needs it

    if not 0.0 < prob < 1.0:
        raise ParameterError(f"prob must be in (0, 1), got {prob}")
    return -NormalDist().inv_cdf((1.0 - prob) / 2.0)


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
        y = y_from_p(prob)
        if not y > 0.0:
            raise ParameterError(f"prob = {prob:g} is too close to 0: its y rounds to 0")
        return cls(chi=chi, prob=prob, y=y)

    @classmethod
    def from_y(cls, chi: float, y: float) -> "ToleranceSpec":
        prob = math.erf(y / math.sqrt(2.0))
        if not 0.0 < prob < 1.0:
            raise ParameterError(f"y = {y:g} is out of range: erf(y / sqrt(2)) = {prob} is not in (0, 1)")
        return cls(chi=chi, prob=prob, y=y)

    def as_dict(self) -> dict:
        return {"chi": self.chi, "prob": self.prob, "y": self.y}


@dataclass(frozen=True)
class SensitivityResult:
    """S_T samples over a frequency grid."""

    freqs: np.ndarray
    s_t: np.ndarray
    case_tag: str
    n_multipliers: int

    def sigma_dh(self, f_n: int) -> np.ndarray:
        """Model std of d|H| with f_n fraction bits: 2**-f_n / sqrt(12) * sqrt(S_T)."""
        return (2.0 ** -f_n / math.sqrt(12.0)) * np.sqrt(self.s_t)

    def fraction_bits(self, tol: ToleranceSpec) -> tuple[int, float]:
        """(F_n, binding_freq): fraction bits holding y * sigma_dh <= chi over these frequencies.

        F_n = max(0, ceil(-log2(sqrt(12) * min chi / (y sqrt(S_T))))): a
        tolerance that integer multipliers already meet needs no fraction
        bits.  The minimum is searched on the grid points (the folding bands
        are narrow and S_T is smooth, so grid search at the default density
        is reliable).  The frequency achieving the minimum is reported as
        binding_freq.
        """
        st = self.s_t
        if np.all(st <= 0.0):
            raise InternalError("S_T vanished identically over the folding bands")
        with np.errstate(divide="ignore", over="ignore"):
            ratio = np.where(st > 0.0, tol.chi / (tol.y * np.sqrt(st)), np.inf)
        idx = int(np.argmin(ratio))
        bound = math.sqrt(12.0) * ratio[idx]
        if not bound >= 2.0 ** -1023:  # 2**F_n must stay a finite double
            raise ParameterError(f"chi = {tol.chi:g} needs more than 1023 fraction bits; give a larger chi")
        f_n = 0 if bound >= 1.0 else math.ceil(-math.log2(bound))
        return f_n, float(self.freqs[idx])


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


def cascade_derivative_magnitudes(spec: GcfSpec, freqs) -> np.ndarray:
    """|dH_N / dr_u| of the bare cascade for every stage, product form, shape (stages, nf).

    Stage u's factor is replaced by its derivative 2 cos(2^{u-1}w); all other
    stage factors are kept.  No division by stage factors occurs, so the
    result is finite at the in-band zeros.
    """
    freqs = np.asarray(freqs, dtype=float)
    w = 2.0 * np.pi * freqs
    ks = list(spec.cascade_stages)
    r = np.asarray(stage_coefficients(spec))
    brackets = stage_brackets(freqs, ks, r)
    out = np.empty_like(brackets)
    for u, k in enumerate(ks):
        others = np.prod(np.delete(brackets, u, axis=0), axis=0) if len(ks) > 1 else 1.0
        out[u] = np.abs(stage_derivative(w, k) * others)
    return out


def sensitivity(spec: GcfSpec, freqs) -> SensitivityResult:
    """Sensitivity function S_T over the given frequencies.

    One pass over the stages k = 0..p-1 carries prod_{j<k} b_j**2, |H_N|**2
    and the cascade sum (see the module docstring), so
    S_T = L |H_N|**2 + sum_{u > p_p} c_u**2 prod_{k != u} b_k**2 at every
    split: the pure cascade has no tap term (L = 0 at D1 = 1), and the pure
    polyphase bank has no cascade term, which leaves S_T = L exactly.
    """
    freqs = np.asarray(freqs, dtype=float)
    w = 2.0 * np.pi * freqs
    prefix = np.ones(len(w))  # prod_{j<k} b_j**2
    hn2 = np.ones(len(w))
    cascade_sum = np.zeros(len(w))
    for k in range(spec.p):
        r_k = stage_multiplier(spec.alpha, k)
        scale = 2.0 + 2.0 * r_k
        b2 = (stage_bracket(w, k, r_k) / scale) ** 2
        if k > spec.p_p:
            cascade_sum = cascade_sum * b2 + (stage_derivative(w, k) / scale) ** 2 * prefix
            hn2 *= b2
        prefix *= b2
    L = 3 * spec.D1 - 2
    case_tag = ("full-cascade" if spec.p_p == -1
                else "full-polyphase" if spec.p_p == spec.p - 1 else "partial")
    return SensitivityResult(
        freqs=freqs, s_t=(L if spec.D1 > 1 else 0) * hn2 + cascade_sum,
        case_tag=case_tag, n_multipliers=L + len(spec.cascade_stages),
    )


def integer_bits(spec: GcfSpec, input_width: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Worst-case integer sizing of the cascade stages: (g, i_n), one entry per stage.

    Stage growth g_k = log2(2 + 2 r_k) <= 3; integer widths accumulate
    through the cascade (each stage's output feeds the next), so
    I_n^k = input_width + sum_{j<=k} ceil(g_j).
    """
    if input_width < 1:
        raise ParameterError(f"input_width must be >= 1, got {input_width}")
    g = tuple(math.log2(2.0 + 2.0 * r_k) for r_k in stage_coefficients(spec))
    acc = 0
    i_n = []
    for g_k in g:
        acc += math.ceil(g_k)
        i_n.append(input_width + acc)
    return g, tuple(i_n)


def quantize_coefficients(values, f_n: int) -> np.ndarray:
    """Round to f_n fraction bits, ties away from zero: |m_q - m| <= 2**-f_n / 2."""
    if f_n < 0:
        raise ParameterError(f"f_n must be >= 0, got {f_n}")
    v = np.asarray(values, dtype=float)
    scale = 2.0 ** f_n
    return np.copysign(np.floor(np.abs(v) * scale + 0.5), v) / scale


def _quantized_multiplier_sets(spec: GcfSpec, f_n: int):
    """(exact taps, exact r) and their f_n-bit roundings, taps unit-DC-scaled."""
    h_p = polyphase_impulse(spec)
    taps = h_p / h_p.sum()
    r = np.asarray(stage_coefficients(spec))
    return taps, r, quantize_coefficients(taps, f_n), quantize_coefficients(r, f_n)


# Frequencies per block of the tap DTFT and per tile of the Monte Carlo:
# their complex temporaries are (block x taps) and (trials block x block),
# whatever the grid size.  Each DTFT sum is formed on its own, so its result
# is the same for any block size; for the Monte Carlo see _block_bounds.
_FREQ_BLOCK = 1024


def _response_from_multipliers(spec: GcfSpec, freqs: np.ndarray, taps: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Complex response of the architecture for given multiplier values."""
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    n = np.arange(len(taps))
    bank = np.empty(len(w), dtype=complex)
    for lo in range(0, len(w), _FREQ_BLOCK):
        wb = w[lo:lo + _FREQ_BLOCK]
        bank[lo:lo + len(wb)] = (taps[None, :] * np.exp(-1j * np.outer(wb, n))).sum(axis=1)
    return cascade_response(freqs, spec.cascade_stages, r, start=bank)


def quantization_error_response(spec: GcfSpec, f_n: int, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(quantized, delta_h) at freqs for rounded multipliers: H_q and d|H| = |H_q| - |H|.

    Exact and quantized responses are each self-normalized to unit DC gain
    (H_q is returned so) before the magnitudes are compared.  The model std
    d|H| is set against is SensitivityResult.sigma_dh.
    """
    taps, r, taps_q, r_q = _quantized_multiplier_sets(spec, f_n)
    exact = _response_from_multipliers(spec, freqs, taps, r)
    quant = _response_from_multipliers(spec, freqs, taps_q, r_q)
    dc_exact = taps.sum() * stage_dc_gain(r)
    dc_quant = taps_q.sum() * stage_dc_gain(r_q)
    delta = np.abs(quant) / dc_quant - np.abs(exact) / dc_exact
    return quant / dc_quant, delta


# Trials per block of the Monte Carlo responses: the complex temporaries of
# a block are (block x in-band points of a tile), whatever the number of trials.
_MC_TRIAL_BLOCK = 64


def _block_bounds(n: int, size: int, min_last: int) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive blocks of size over range(n).

    A last block narrower than min_last joins the one before it.  The Monte
    Carlo products take their rounding from the BLAS kernel that numpy and
    OpenBLAS pick for their shape: one row or column goes through gemv, and
    gemms of a few columns through a small-matrix path.  Trial blocks of two
    rows or more and frequency tiles of 200 columns or more round as the
    whole product does, so a trailing block of one trial, and a trailing tile
    under half a _FREQ_BLOCK, is merged rather than run on its own.
    """
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] < min_last:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _mc_draws(spec: GcfSpec, f_n: int, trials: int, seed: int) -> np.ndarray:
    """Uniform multiplier noise on [-2**-f_n/2, +2**-f_n/2], shape (trials, taps + stages).

    Every multiplier of the architecture gets an independent draw; trial t
    uses the substream seeded by (seed, t), so results do not depend on
    evaluation order.  The columns are the polyphase taps (none when D1 = 1,
    whose unit tap is wiring, not a multiplier) and then the cascade r_k.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    half_lsb = 2.0 ** -f_n / 2.0
    n_taps = 3 * spec.D1 - 2 if spec.D1 > 1 else 0
    size = n_taps + len(spec.cascade_stages)
    draws = np.empty((trials, size))
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        draws[t] = rng.uniform(-half_lsb, half_lsb, size=size)
    return draws


def _mc_delta_h(spec: GcfSpec, f_n: int, draws: np.ndarray, freqs: np.ndarray):
    """Yield the d|H| samples of the draws at freqs in row blocks, shape (block, nf).

    A block holds _MC_TRIAL_BLOCK trials; each row is the same for any block
    size.  The exact response pieces are built for the given freqs only.
    """
    freqs = np.asarray(freqs, dtype=float)
    w = 2.0 * np.pi * freqs
    taps, r, _, _ = _quantized_multiplier_sets(spec, f_n)
    ks = list(spec.cascade_stages)
    n_r = len(ks)
    n_taps = draws.shape[1] - n_r  # 0 for the unit tap of D1 = 1
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

    for lo, hi in _block_bounds(len(draws), _MC_TRIAL_BLOCK, 2):
        yield delta_h(draws[lo:hi])


@dataclass(frozen=True)
class MonteCarloRun:
    """Monte Carlo d|H| statistics at in-band frequencies next to the model sigma_dh."""

    freqs: np.ndarray
    error_std: np.ndarray  # per-frequency empirical std of d|H|
    sigma_dh: np.ndarray
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


def monte_carlo_run(spec: GcfSpec, f_n: int, trials: int, seed: int, y: float, freqs: np.ndarray) -> MonteCarloRun:
    """d|H| of f_n-bit multiplier noise at the in-band freqs, deterministic given seed.

    The frequencies are walked in tiles of _FREQ_BLOCK frequencies, and each
    tile's trial blocks are reduced one at a time, so memory grows neither
    with trials nor with grid size x taps: each block's per-frequency count,
    mean and M2 are merged into the tile's running ones (the pairwise update
    of Chan, Golub and LeVeque, 1979), and the pairs within y * sigma_dh are
    counted.
    """
    sens = sensitivity(spec, freqs)
    sigma_dh = sens.sigma_dh(f_n)
    bound = y * sigma_dh
    draws = _mc_draws(spec, f_n, trials, seed)
    error_std = np.empty(len(sens.freqs))
    covered = 0
    for lo, hi in _block_bounds(len(sens.freqs), _FREQ_BLOCK, _FREQ_BLOCK // 2):
        count, mean, m2 = 0, 0.0, 0.0
        for block in _mc_delta_h(spec, f_n, draws, sens.freqs[lo:hi]):
            b = len(block)
            b_mean = block.mean(axis=0)
            b_m2 = ((block - b_mean) ** 2).sum(axis=0)
            delta = b_mean - mean
            mean = mean + delta * (b / (count + b))
            m2 = m2 + b_m2 + delta ** 2 * (count * b / (count + b))
            count += b
            covered += int(np.count_nonzero(np.abs(block) <= bound[lo:hi]))
        error_std[lo:hi] = np.sqrt(m2 / count)
    return MonteCarloRun(
        freqs=sens.freqs, error_std=error_std, sigma_dh=sigma_dh,
        trials=trials, covered=covered,
    )


def design_wordlengths(spec: GcfSpec, tol: ToleranceSpec, input_width: int, freqs: np.ndarray) -> WordLengthReport:
    """Full word-length design on the in-band freqs: F_n from the statistics, I_n from worst case.

    An F_n at which the unit-DC taps round to a zero sum leaves the
    quantized filter no DC gain to normalize by, and is rejected.
    """
    sens = sensitivity(spec, freqs)
    f_n, binding_freq = sens.fraction_bits(tol)
    _, _, taps_q, _ = _quantized_multiplier_sets(spec, f_n)
    if taps_q.sum() == 0.0:
        raise ParameterError(
            f"chi = {tol.chi:g} sizes F_n = {f_n}, at which the polyphase taps round to a "
            "zero DC gain; give a smaller chi"
        )
    g, i_n = integer_bits(spec, input_width)
    return WordLengthReport(
        spec=spec.as_dict(),
        tolerance=tol.as_dict(),
        input_width=input_width,
        f_n=f_n,
        g_k=g,
        i_n_k=i_n,
        binding_freq=binding_freq,
        case_tag=sens.case_tag,
        n_multipliers=sens.n_multipliers,
    )


