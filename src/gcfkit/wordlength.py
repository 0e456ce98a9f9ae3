"""Statistical word-length sizing of the fixed-point GCF coefficients.

Quantizing the N multipliers of the filter to b fractional bits perturbs the
magnitude response by an error whose variance obeys

    var(d|H|) ~= sigma_dm**2 * S_T(w),   sigma_dm = 2**-b / sqrt(12),

where S_T is the sum of squared magnitudes of the response derivatives with
respect to the multipliers.  Bounding the error by a tolerance chi over the
folding bands with Gaussian multiplier y gives the fractional size

    F_n = max(0, ceil(-log2(sqrt(12) * min_FB chi / (y * sqrt(S_T))))).

The coverage of that bound, prob = erf(y / sqrt(2)), is derived from y;
it is never given on its own.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, ParameterError
from .filters import GcfSpec, polyphase_impulse, stage_coefficients, stage_dc_gain, stage_multiplier
from .spectral import cascade_response, stage_bracket, stage_derivative


# y of the default coverage 0.95: erf(DEFAULT_Y / sqrt(2)) is 0.95 exactly.
DEFAULT_Y = 1.9599639845400536


@dataclass(frozen=True)
class ToleranceSpec:
    """Magnitude-error bound chi over the folding bands at Gaussian multiplier y.

    The coverage prob = erf(y / sqrt(2)) is derived from y, so a rounded
    working value such as y = 2 or y = 1.63 keeps its exact coverage.
    """

    chi: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.chi) and self.chi > 0.0):
            raise ParameterError(f"chi must be positive and finite, got {self.chi}")
        if not (math.isfinite(self.y) and self.y > 0.0):
            raise ParameterError(f"y must be positive and finite, got {self.y}")
        if not 0.0 < self.prob < 1.0:
            raise ParameterError(f"y = {self.y:g} is out of range: erf(y / sqrt(2)) = {self.prob} is not in (0, 1)")

    @property
    def prob(self) -> float:
        """Coverage of the bound: erf(y / sqrt(2))."""
        return math.erf(self.y / math.sqrt(2.0))

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
        if len(st) == 0:
            raise ParameterError("no frequencies to size F_n over")
        if np.all(st <= 0.0):
            raise InternalError("S_T vanished identically over the folding bands")
        with np.errstate(divide="ignore", over="ignore"):
            ratio = np.where(st > 0.0, tol.chi / (tol.y * np.sqrt(st)), np.inf)
        idx = int(np.argmin(ratio))
        bound = math.sqrt(12.0) * float(ratio[idx])  # a Python float overflows to inf without a warning
        if not bound >= 2.0 ** -1023:  # 2**F_n must stay a finite double
            raise ParameterError(f"chi = {tol.chi:g} needs more than 1023 fraction bits; give a larger chi")
        f_n = 0 if bound >= 1.0 else math.ceil(-math.log2(bound))
        return f_n, float(self.freqs[idx])


@dataclass(frozen=True)
class WordLengthReport:
    """The sizing of one run: F_n and per-stage widths, with the spec and tolerance they size."""

    spec: GcfSpec
    tolerance: ToleranceSpec
    input_width: int
    f_n: int
    g_k: tuple[float, ...]
    i_n_k: tuple[int, ...]
    binding_freq: float
    case_tag: str
    n_multipliers: int

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "tolerance": self.tolerance.as_dict(),
            "input_width": self.input_width,
            "f_n": self.f_n,
            "g_k": list(self.g_k),
            "i_n_k": list(self.i_n_k),
            "binding_freq": self.binding_freq,
            "case_tag": self.case_tag,
            "n_multipliers": self.n_multipliers,
            "coefficient_width": 1 + (max(self.i_n_k) if self.i_n_k else 0) + self.f_n,
        }

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


def sensitivity(spec: GcfSpec, freqs) -> SensitivityResult:
    """Sensitivity function S_T over the given frequencies.

    One pass over the stages k = 0..p-1 carries prod_{j<k} b_j**2, |H_N|**2
    and the cascade sum (see the module docstring), so
    S_T = L |H_N|**2 + sum_{u > p_p} c_u**2 prod_{k != u} b_k**2 at every
    split: the pure cascade has no tap term (L = 0 at D1 = 1), and the pure
    polyphase bank no cascade term, so it makes no pass and S_T = L exactly.
    """
    freqs = np.asarray(freqs, dtype=float)
    w = 2.0 * np.pi * freqs
    prefix = np.ones(len(w))  # prod_{j<k} b_j**2
    hn2 = np.ones(len(w))
    cascade_sum = np.zeros(len(w))
    for k in range(spec.p if spec.cascade_stages else 0):
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
    """Round to f_n fraction bits, ties away from zero: |m_q - m| <= 2**-f_n / 2.

    Where |m| 2**f_n overflows, m is a multiple of 2**-f_n and is kept.
    """
    if f_n < 0:
        raise ParameterError(f"f_n must be >= 0, got {f_n}")
    v = np.asarray(values, dtype=float)
    scale = 2.0 ** f_n
    with np.errstate(over="ignore"):
        scaled = np.abs(v) * scale
    return np.where(np.isfinite(scaled), np.copysign(np.floor(scaled + 0.5), v) / scale, v)


def rounded_multipliers(spec: GcfSpec, f_n: int):
    """(taps, r, taps_q, r_q): the exact multipliers and their f_n-bit roundings.

    The one source of the rounded design: the coefficients that design
    exports, the quantized responses and the fixed-point decimator all take
    them from here.  The bank taps are h_p scaled to unit DC gain, the
    cascade r_k keep their raw values, and rounding is
    quantize_coefficients'.  The Monte Carlo perturbs the designed filter
    itself and does not call it (see _mc_delta_h).
    """
    h_p = polyphase_impulse(spec)
    taps = h_p / h_p.sum()
    r = np.asarray(stage_coefficients(spec))
    return taps, r, quantize_coefficients(taps, f_n), quantize_coefficients(r, f_n)


# Complex phasors per block of the tap DTFT (1 MB), whatever the grid size
# and tap count; a block holds at least one frequency.  Each DTFT sum is
# formed on its own, so its result is the same for any block size.
_PHASOR_BLOCK = 1 << 16

# Frequencies per tile of the Monte Carlo, whatever the grid size: its real
# temporaries are (taps / 2 x tile) and (trial block x tile), and each of its
# rows is the same for any tiling (see _mc_delta_h).
_FREQ_BLOCK = 1024


def _response_from_multipliers(spec: GcfSpec, freqs: np.ndarray, *multipliers) -> list[np.ndarray]:
    """Complex responses of the architecture, one per (taps, r) pair of multiplier values.

    The tap sets share one exp(-1j*outer(w, n)) per block of frequencies;
    each set's sum is formed on its own, as if it were the only one.
    """
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    n = np.arange(len(multipliers[0][0]))
    banks = [np.empty(len(w), dtype=complex) for _ in multipliers]
    block = max(_PHASOR_BLOCK // len(n), 1)
    for lo in range(0, len(w), block):
        phasors = np.exp(-1j * np.outer(w[lo:lo + block], n))
        for bank, (taps, _) in zip(banks, multipliers):
            bank[lo:lo + len(phasors)] = (taps[None, :] * phasors).sum(axis=1)
        del phasors  # else the next block's phasors are built while these live
    return [cascade_response(freqs, spec.cascade_stages, r, start=bank)
            for bank, (_, r) in zip(banks, multipliers)]


def quantization_error_response(spec: GcfSpec, f_n: int, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(quantized, delta_h) at freqs for rounded multipliers: H_q and d|H| = |H_q| - |H|.

    Exact and quantized responses are each self-normalized to unit DC gain
    (H_q is returned so) before the magnitudes are compared.  The model std
    d|H| is set against is SensitivityResult.sigma_dh.
    """
    taps, r, taps_q, r_q = rounded_multipliers(spec, f_n)
    exact, quant = _response_from_multipliers(spec, freqs, (taps, r), (taps_q, r_q))
    dc_exact = taps.sum() * stage_dc_gain(r)
    dc_quant = taps_q.sum() * stage_dc_gain(r_q)
    delta = np.abs(quant) / dc_quant - np.abs(exact) / dc_exact
    return quant / dc_quant, delta


# Trials per block of the Monte Carlo responses: the temporaries of a block
# are (block x in-band points of a tile), whatever the number of trials.
_MC_TRIAL_BLOCK = 64

# Cascade stages per product of the Monte Carlo: a group of g stages expands
# into 2**g terms, so each product has depth 16 at most.
_MC_STAGE_GROUP = 4


def mc_draw_width(spec: GcfSpec) -> int:
    """Columns of _mc_draws: the polyphase taps (none when D1 = 1, whose unit tap is wiring), then the r_k."""
    return (3 * spec.D1 - 2 if spec.D1 > 1 else 0) + len(spec.cascade_stages)


def _mc_draws(spec: GcfSpec, f_n: int, trials: int, seed: int) -> np.ndarray:
    """Uniform multiplier noise on [-2**-f_n/2, +2**-f_n/2], shape (trials, mc_draw_width(spec)).

    Every multiplier of the architecture gets an independent draw; trial t
    uses the substream seeded by (seed, t), so results do not depend on
    evaluation order.
    """
    half_lsb = 2.0 ** -f_n / 2.0
    size = mc_draw_width(spec)
    draws = np.empty((trials, size))
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        draws[t] = rng.uniform(-half_lsb, half_lsb, size=size)
    return draws


def _mc_delta_h(spec: GcfSpec, draws: np.ndarray, freqs: np.ndarray):
    """Yield d|H| of the draws about the designed filter at freqs, in row blocks (block, nf).

    By split invariance the designed bank is the product of stages 0..p_p;
    about its centre c = (L - 1) / 2 it is the real amplitude
    A = prod_k stage_bracket(w, k, r_k) / (2 + 2 r_k), of unit DC gain.
    L = 3 D1 - 2 is even when D1 > 1, and theta_n = w (n - c) is exactly
    -theta_{L-1-n}, so the tap errors e_n fold into pairs, n < L/2:

        |H_P| = |[e_n + e_{L-1-n}, 1] @ [cos theta_n; A] - j (e_n - e_{L-1-n}) @ sin theta_n|.

    With b_k = stage_bracket(w, k, r_k) and c_k = stage_derivative(w, k),
    each group G of up to _MC_STAGE_GROUP cascade stages multiplies out as

        prod_{k in G} (b_k + e_k c_k) = sum_{S in G} prod_{k in S} e_k c_k prod_{k in G - S} b_k,

    one product of depth 2**|G| against rows built once for the given freqs,
    so the drawn e_k enter as they are, not through fl(r_k + e_k).  The
    first group's rows carry 1 / dc, and the largest term of each product,
    A or prod b_k, comes last.

    The products are rounded by the BLAS kernel picked for their shape.  A
    one-row product goes through gemv, which rounds otherwise, so a trailing
    block of one trial joins the block before it; blocks of two rows or more
    give the same rows as one block of all trials.  The frequencies are
    padded with zeros to a multiple of 16 columns, so that no column goes
    through an edge kernel, and each row is the same for any tiling of
    freqs.  The products write into buffers made once per call: each yielded
    block is a view that the next block overwrites.
    """
    nf = len(freqs)
    w = np.zeros(-(-nf // 16) * 16)
    w[:nf] = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    ks = list(spec.cascade_stages)
    r = stage_coefficients(spec)
    n_taps = draws.shape[1] - len(ks)  # 0 for the unit tap of D1 = 1
    half = n_taps // 2
    cos_basis = np.empty((half + 1, len(w)))  # the pair cosines, then A
    cos_basis[half] = 1.0
    for k in range(spec.p_p + 1):
        r_k = stage_multiplier(spec.alpha, k)
        cos_basis[half] *= stage_bracket(w, k, r_k) / (2.0 + 2.0 * r_k)
    theta = np.outer(np.arange(half) - (n_taps - 1) / 2.0, w)
    np.cos(theta, out=cos_basis[:half])
    sin_basis = np.sin(theta, out=theta)
    groups = {}  # the first cascade column of each group: the rows of its F_S
    for lo in range(0, len(ks), _MC_STAGE_GROUP):
        basis = np.ones((1, len(w)))
        for k, r_k in zip(ks[lo:lo + _MC_STAGE_GROUP], r[lo:lo + _MC_STAGE_GROUP]):
            basis = np.concatenate((basis * stage_derivative(w, k), basis * stage_bracket(w, k, r_k)))
        groups[lo] = basis / stage_dc_gain(r) if lo == 0 else basis

    n = len(draws)
    mag_rows = np.empty((min(n, _MC_TRIAL_BLOCK + 1), len(w)))  # the yielded rows
    work_rows = np.empty_like(mag_rows)  # the bank's imaginary part, then each group's product

    def magnitude(block, mag):
        """|H| / dc of the designed filter plus each row of block, written to mag."""
        work = work_rows[:len(block)]
        # at D1 = 1 the unit tap makes no bank product and the first group writes mag; sent through
        # the products it gives the same rows, but validate at the paper point took 0.197 -> 0.219 s
        # (whole-process medians of 12 alternating pairs on a 2-CPU VM)
        if n_taps:
            errors = block[:, :n_taps]
            head, tail = errors[:, :half], errors[:, ::-1][:, :half]
            np.matmul(head - tail, sin_basis, out=work)
            pairs = np.ones((len(block), half + 1))
            np.add(head, tail, out=pairs[:, :half])
            np.matmul(pairs, cos_basis, out=mag)
            mag *= mag
            work *= work
            mag += work
            np.sqrt(mag, out=mag)
        for lo, basis in groups.items():
            terms = np.ones((len(block), 1))  # prod_{k in S} e_k, in the order of the rows of basis
            for e_k in block[:, n_taps + lo:][:, :_MC_STAGE_GROUP].T:
                terms = np.hstack((terms * e_k[:, None], terms))
            if n_taps or lo:
                mag *= np.matmul(terms, basis, out=work)
            else:
                np.matmul(terms, basis, out=mag)
        np.abs(mag, out=mag)
        return mag

    base = magnitude(np.zeros((1, draws.shape[1])), np.empty((1, len(w))))
    for lo in range(0, max(n - 1, 1), _MC_TRIAL_BLOCK):
        hi = lo + _MC_TRIAL_BLOCK if lo + _MC_TRIAL_BLOCK < n - 1 else n  # a last row joins its block
        delta = magnitude(draws[lo:hi], mag_rows[:hi - lo])
        delta -= base
        yield delta[:, :nf]


def monte_carlo_run(spec: GcfSpec, f_n: int, trials: int, seed: int, y: float, freqs: np.ndarray) -> tuple:
    """(error_std, sigma_dh, coverage) of f_n-bit multiplier noise at the in-band freqs.

    Deterministic given seed: per frequency the std of d|H| over the trials
    and the model std, and the fraction of (trial, frequency) pairs with
    |d|H|| <= y * sigma_dh.  Fewer than 1000 trials or no freqs raise before any draw.

    The noise perturbs the designed filter (see _mc_delta_h), so no tap
    vector is built.  The frequencies are walked in tiles of _FREQ_BLOCK
    frequencies, and each tile's trial blocks are reduced one at a time
    into per-frequency sums of d|H| and of its square, with
    std = sqrt(sum d**2 / n - mean**2), and into the count of pairs within
    y * sigma_dh.  So the per-block temporaries are bounded whatever the
    trial count and grid size.  The draws are not: _mc_draws keeps the whole
    trials x multipliers matrix, 8 bytes per draw (0.8 MB at D=256, p_p=3
    and 49 MB at D=1024, p_p=9, with 2000 trials).
    """
    if trials < 1000:
        raise ParameterError(f"trials must be >= 1000, got {trials}")
    if len(freqs) == 0:
        raise ParameterError("the Monte Carlo needs at least one in-band frequency")
    sens = sensitivity(spec, freqs)
    sigma_dh = sens.sigma_dh(f_n)
    bound = y * sigma_dh
    draws = _mc_draws(spec, f_n, trials, seed)
    error_std = np.empty(len(sens.freqs))
    covered = 0
    for lo in range(0, len(sens.freqs), _FREQ_BLOCK):
        hi = lo + _FREQ_BLOCK
        total, total_sq = 0.0, 0.0
        for block in _mc_delta_h(spec, draws, sens.freqs[lo:hi]):
            total = total + block.sum(axis=0)
            total_sq = total_sq + np.einsum("ij,ij->j", block, block)
            covered += int(np.count_nonzero(np.abs(block) <= bound[lo:hi]))
        mean = total / trials
        error_std[lo:hi] = np.sqrt(total_sq / trials - mean * mean)
    return error_std, sigma_dh, covered / (trials * len(sens.freqs))


def design_wordlengths(spec: GcfSpec, tol: ToleranceSpec, input_width: int, freqs: np.ndarray) -> WordLengthReport:
    """Full word-length design on the in-band freqs: F_n from the statistics, I_n from worst case.

    An F_n at which the unit-DC taps round to a zero sum leaves the
    quantized filter no DC gain to normalize by, and is rejected.
    """
    sens = sensitivity(spec, freqs)
    f_n, binding_freq = sens.fraction_bits(tol)
    _, _, taps_q, _ = rounded_multipliers(spec, f_n)
    if taps_q.sum() == 0.0:
        raise ParameterError(
            f"chi = {tol.chi:g} sizes F_n = {f_n}, at which the polyphase taps round to a "
            "zero DC gain; give a smaller chi"
        )
    g, i_n = integer_bits(spec, input_width)
    return WordLengthReport(
        spec=spec,
        tolerance=tol,
        input_width=input_width,
        f_n=f_n,
        g_k=g,
        i_n_k=i_n,
        binding_freq=binding_freq,
        case_tag=sens.case_tag,
        n_multipliers=sens.n_multipliers,
    )


