"""Construction of 3rd-order generalized comb filters (GCF).

A GCF rotates the triple zeros of a classical 3rd-order comb by +/- alpha
inside every folding band.  For a power-of-two decimation factor D = 2**p the
filter factors into a polyphase bank decimating by D1 = 2**(p_p+1) followed by
a cascade of p - p_p - 1 identical-shape stages, each decimating by 2:

    H(z) = h_o * H_P(z) * H_N(z)
    H_N(z) = prod_k [ 1 + r_k (z**-2**k + z**-2*2**k) + z**-3*2**k ]

with r_k = 1 + 2 cos(2**k alpha).  Everything here is built in double
precision; fixed-point conversion lives in :mod:`gcfkit.wordlength`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, ParameterError

# Optimal zero-rotation fraction for a 3rd-order design.
DEFAULT_Q = 0.79

_REALNESS_TOL = 1e-12


@dataclass(frozen=True)
class GcfSpec:
    """Complete parameterization of one 3rd-order GCF design instance.

    D = D1 * D2 = 2**p, with D1 = 2**(p_p+1) handled by the polyphase bank
    and D2 = 2**(p-p_p-1) by the two-by-two cascade.  p_p = -1 selects the
    pure cascade, p_p = p-1 the pure polyphase bank.
    """

    D: int
    f_c: float
    p_p: int = -1
    q: float = DEFAULT_Q
    rho: float | None = None
    # derived
    p: int = field(init=False)
    D1: int = field(init=False)
    D2: int = field(init=False)
    alpha: float = field(init=False)
    multipliers: tuple[float, ...] = field(init=False)  # r_k of the stages k = 0 .. p-1, at every split

    def __post_init__(self):
        if self.D < 2 or (self.D & (self.D - 1)) != 0:
            raise ParameterError(f"D must be a power of two >= 2, got {self.D}")
        p = self.D.bit_length() - 1
        if not -1 <= self.p_p <= p - 1:
            raise ParameterError(f"p_p must be in [-1, {p - 1}] for D={self.D}, got {self.p_p}")
        if not 0.0 < self.f_c < 1.0 / (2 * self.D):
            raise ParameterError(
                f"f_c must satisfy 0 < f_c < 1/(2D) = {1.0 / (2 * self.D)}, got {self.f_c}"
            )
        # q in [0, 1] places the rotated zeros at the fraction q of the folding half-band
        if not 0.0 <= self.q <= 1.0:
            raise ParameterError(f"q must be in [0, 1], got {self.q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "D1", 2 ** (self.p_p + 1))
        object.__setattr__(self, "D2", 2 ** (p - self.p_p - 1))
        object.__setattr__(self, "alpha", self.q * 2.0 * math.pi * self.f_c)
        object.__setattr__(self, "multipliers", tuple(stage_multiplier(self.alpha, k) for k in range(p)))

    @classmethod
    def from_oversampling(cls, D: int, rho: float, p_p: int = -1, q: float = DEFAULT_Q) -> "GcfSpec":
        """Build a spec from the converter oversampling ratio rho > D (f_c = 1/(2 rho))."""
        if not (math.isfinite(rho) and rho > max(D, 0)):  # rho = 0 > D would divide by zero
            raise ParameterError(f"oversampling ratio must be finite and above D = {D}, got {rho}")
        return cls(D=D, f_c=1.0 / (2.0 * rho), p_p=p_p, q=q, rho=rho)

    @property
    def cascade_stages(self) -> range:
        """Full-rate stage indices k handled by the cascade part."""
        return range(self.p_p + 1, self.p)

    def as_dict(self) -> dict:
        return {
            "D": self.D, "D1": self.D1, "D2": self.D2, "p": self.p, "p_p": self.p_p,
            "q": self.q, "f_c": self.f_c, "alpha": self.alpha, "rho": self.rho,
        }


def stage_multiplier(alpha: float, k: int) -> float:
    """Multiplier r_k = 1 + 2 cos(2**k alpha) of the full-rate stage k."""
    return 1.0 + 2.0 * math.cos((2.0 ** k) * alpha)


def stage_dc_gain(r) -> float:
    """DC gain prod(2 + 2 r_k) of the stages with multipliers r."""
    return np.prod(2.0 + 2.0 * np.asarray(r))


def stage_coefficients(spec: GcfSpec) -> tuple[float, ...]:
    """Cascade multipliers r_k = 1 + 2 cos(2**k alpha), k = p_p+1 .. p-1: the tail of spec.multipliers.

    Ascending k: after commutation every stage runs at its own input rate
    with unit delays, and stage k's full-rate delay unit is 2**k.  p_p = p-1
    yields a valid empty cascade (pure polyphase realization).
    """
    return spec.multipliers[spec.p_p + 1:]


def _xt_sequence(D1: int, alpha: float, length: int) -> np.ndarray:
    # x_t = delta(n) - r delta(n-D1) + r delta(n-2D1) - delta(n-3D1),
    # r = 1 + 2 cos(alpha*D1), the multiplier of stage log2(D1).  The
    # factorization (1 - z^-D1)(1 - e^{j a D1} z^-D1)(1 - e^{-j a D1} z^-D1)
    # forces the factor 2; a 1 + cos form would not reduce to the binomial
    # [1,3,3,1] bank at D1=2, alpha=0.
    r = stage_multiplier(alpha, D1.bit_length() - 1)
    x = np.zeros(length)
    for idx, val in ((0, 1.0), (D1, -r), (2 * D1, r), (3 * D1, -1.0)):
        if idx < length:
            x[idx] = val
    return x


def polyphase_impulse(spec: GcfSpec) -> np.ndarray:
    """Impulse response h_p of the polyphase section.

    h_p(n), n in [0, 3*D1-3], is the triple modulated cumulative sum of the
    sparse 4-tap sequence x_t; evaluated as three successive modulated
    prefix sums (O(D1) instead of the literal O(D1**3) nesting).  The
    construction is complex but the result is real to within 1e-12
    relative; the imaginary residue is checked and dropped.
    """
    D1, alpha = spec.D1, spec.alpha
    L = 3 * D1 - 2
    x_t = _xt_sequence(D1, alpha, L)
    n = np.arange(L)
    c1 = np.cumsum(x_t)
    c2 = np.cumsum(np.exp(1j * alpha * n) * c1)
    c3 = np.cumsum(np.exp(-2j * alpha * n) * c2)
    h = np.exp(1j * alpha * n) * c3
    residue = np.max(np.abs(h.imag))
    scale = max(np.max(np.abs(h.real)), 1.0)
    if residue > _REALNESS_TOL * scale:
        raise InternalError(f"polyphase impulse response not real: residue {residue:g}")
    return np.ascontiguousarray(h.real)


def expand_full_polynomial(spec: GcfSpec) -> np.ndarray:
    """Coefficients of H_P(z) * H_N(z) as one polynomial of degree 3(D-1).

    The polyphase bank (already expressed in full-rate delays) times every
    sparse cascade stage 1 + r_k (z**-2**k + z**-2*2**k) + z**-3*2**k,
    each as four shifted adds, z**-3*2**k first: O(length) per stage.
    """
    poly = polyphase_impulse(spec)
    for k in spec.cascade_stages:
        d, r_k = 2 ** k, spec.multipliers[k]
        out = np.zeros(len(poly) + 3 * d)
        for shift, c in ((3 * d, 1.0), (2 * d, r_k), (d, r_k), (0, 1.0)):
            out[shift:shift + len(poly)] += c * poly
        poly = out
    return poly


def normalization_gain(spec: GcfSpec) -> float:
    """h_o = 1 / H(e^{j0}), making the DC gain of h_o * H_P * H_N exactly one.

    By split invariance H is the product of the stages k = 0..p-1 at every
    split, so its DC gain is prod(2 + 2 r_k) over all p stages.
    """
    total = float(stage_dc_gain(spec.multipliers))
    if total <= 0.0:
        # cannot occur for alpha < pi/D
        raise InternalError(f"non-positive DC gain {total:g}")
    return 1.0 / total


@contextmanager
def writing_artifact(path):
    """Turn an OSError while writing the artifact at path into a ParameterError naming it.

    The artifacts written before the failure stay as they are.
    """
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def write_columns(path, columns: dict) -> None:
    """CSV with a header of column names and one row per index.

    Every CSV artifact is written here.  Each column is formatted once,
    through .tolist(): floats are written as their repr (full decimal
    precision), ints as they are.  Lines end in LF on every platform.
    """
    text = [map(repr, np.asarray(col).tolist()) for col in columns.values()]
    with writing_artifact(path), open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*text))


def write_json(path, value) -> None:
    """value as JSON, indented by 2, with a final newline (LF on every platform)."""
    with writing_artifact(path), open(path, "w", newline="") as fh:
        json.dump(value, fh, indent=2)
        fh.write("\n")


def coefficients_to_csv(path, values) -> None:
    """One coefficient per line: index,value at full decimal precision."""
    values = np.asarray(values, dtype=float)
    write_columns(path, {"index": np.arange(len(values)), "value": values})
