"""Frequency-domain view of the sliding-mode closed loop.

Four transfer functions map the ground acceleration to the damper stroke
(G1), top-floor displacement (G2), damper velocity (G3), and control force
(Gu). Scaling each by the acceleration bound delta gives the worst-case
sinusoidal response H_i; band-limited RMS values kappa_i and the peak chi of
|H_u| feed the tuning constraints and the switching gain. Both are exact;
the uniform ``frequency_grid`` only sets the plotted grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, finite_number, finite_numbers, positive_number
from .output import write_table
from .smc import DesignBatch, SlidingDesign, dominant_pair, rowdot, sliding_polynomial

__all__ = [
    "DEFAULT_BAND",
    "DEFAULT_SAMPLES",
    "TransferBatch",
    "zero_rows",
    "transfer_batch",
    "frequency_grid",
    "band_table",
    "band_peak",
    "dump_frequency_response",
]

#: earthquake excitation band, rad/s (1 to 20 Hz)
DEFAULT_BAND = (2.0 * np.pi, 40.0 * np.pi)
#: frequency samples of the plotted grid (``dump_frequency_response``)
DEFAULT_SAMPLES = 2000
#: most frequency samples of the plotted grid (kappa and chi do not use it)
MAX_SAMPLES = 100_000


def zero_rows(eta: np.ndarray):
    """psi1 = -eta2/eta4 and psi2 = -eta1/eta3 for a stack of sliding vectors.

    Returns (psi1, psi2, defined). A vanishing eta3 or eta4 leaves the
    corresponding zero undefined; ``defined`` is False on those rows and
    their psi values are meaningless.
    """
    tiny = 1e-12 * np.maximum(1.0, np.sqrt(rowdot(eta, eta)))
    defined = (np.abs(eta[:, 3]) > tiny) & (np.abs(eta[:, 2]) > tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -eta[:, 1] / eta[:, 3], -eta[:, 0] / eta[:, 2], defined


@dataclass(frozen=True)
class TransferBatch:
    """G1, G2, G3, Gu for a stack of designs, row i for design i.

    Channel c (1, 2, 3, u) is gains[:, c] * nums[:, c](s) / den(s) in descending
    powers of s; each numerator is written, with leading zeros, to the degree
    of the shared ``den`` (the sliding characteristic polynomial, zeros ``roots``).
    """

    den: np.ndarray                      # (m, 4)
    roots: np.ndarray                    # (m, 3) complex: lambda1, lambda2, lambda3
    nums: np.ndarray                     # (m, 4, 4): row, channel, descending power
    gains: np.ndarray                    # (m, 4): row, channel


def transfer_batch(designs: DesignBatch) -> TransferBatch:
    """Realize G1, G2, G3, Gu of every design as rational functions of s.

    All four share the sliding characteristic polynomial
    (s - lambda3)(s^2 + 2 zeta omega_n s + omega_n^2) as denominator. The
    displacement/velocity responses come in closed form from alpha2 and the
    zeros psi1/psi2; the force response nu1 (sI - A1)^{-1} B1 + alpha1 is
    expanded through the adjugate of (sI - A1) (Faddeev-LeVerrier):
    adj(sI - A1) = I s^2 + M2 s + M3 with M2 = A1 + c2 I and M3 = A1 M2 + c1 I
    for den = [1, c2, c1, c0]. The four land on one channel axis, G1 to G3
    padded to the cubic's degree. Rows whose zeros are undefined must be
    screened out first (``zero_rows``).
    """
    eta, a2 = designs.eta, designs.alpha2
    den = sliding_polynomial(designs.zeta, designs.omega_n, designs.lambda3)
    roots = np.stack([*dominant_pair(designs.zeta, designs.omega_n), designs.lambda3 + 0j],
                     axis=-1)
    psi1, psi2, _ = zero_rows(eta)
    ones, zeros = np.ones_like(psi1), np.zeros_like(psi1)

    A1, B1, nu1 = designs.A1, designs.B1, designs.nu1
    m2_b1 = rowdot(A1, B1[:, None, :]) + den[:, 1:2] * B1
    m3_b1 = rowdot(A1, m2_b1[:, None, :]) + den[:, 2:3] * B1
    num_u = np.stack([zeros, rowdot(nu1, B1), rowdot(nu1, m2_b1), rowdot(nu1, m3_b1)], axis=-1)
    nums = np.stack([np.stack([zeros, zeros, ones, -psi1], axis=-1),
                     np.stack([zeros, zeros, ones, -psi2], axis=-1),
                     np.stack([zeros, ones, -psi1, zeros], axis=-1),
                     designs.alpha1[:, None] * den + num_u], axis=1)
    gains = np.stack([a2, -a2 * eta[:, 2] / eta[:, 3], a2, ones], axis=-1)
    return TransferBatch(den=den, roots=roots, nums=nums, gains=gains)


def _band_edges(band) -> tuple[float, float]:
    """The edges (lower, upper) of ``band`` as floats (a -0.0 stays -0.0), or
    ConfigError unless they are finite with 0 <= lower < upper. |H(j omega)|
    is even in omega, so a negative lower edge is refused."""
    edges = finite_numbers(("band lower edge", "band upper edge"), band)
    if not 0.0 <= edges[0] < edges[1]:
        raise ConfigError(f"band must satisfy 0 <= lower < upper, got {edges}")
    return edges


def _sample_count(n_samples) -> int:
    """``n_samples`` as an int, or ConfigError unless it is an integer in [2, MAX_SAMPLES]."""
    n = finite_number("n_samples", n_samples)
    if n != int(n) or not 2 <= n <= MAX_SAMPLES:
        raise ConfigError(f"n_samples must be an integer in [2, {MAX_SAMPLES}], got {n_samples}")
    return int(n)


def frequency_grid(band=DEFAULT_BAND, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Uniform linear grid over the band, endpoints included: the plotted grid."""
    return np.linspace(*_band_edges(band), _sample_count(n_samples))


def _horner(ascending: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k ascending[..., k, None] x^k; starting from 0 is exact for finite x."""
    acc = 0.0
    for k in range(ascending.shape[-1] - 1, -1, -1):
        acc = acc * x + ascending[..., k, None]
    return acc


def _squared_magnitude(coeffs: np.ndarray, x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """|p(j omega)|^2 for descending coefficients on the last axis, in real arithmetic.

    With x = -omega^2, p(j omega) = E(x) + j omega O(x), where E and O collect
    the even and the odd powers of p, so |p|^2 = E^2 + (omega O)^2.
    """
    ascending = coeffs[..., ::-1]
    even = _horner(ascending[..., 0::2], x)
    odd = omega * _horner(ascending[..., 1::2], x)
    return even * even + odd * odd


def _band_squares(batch: TransferBatch, delta: float, omega: np.ndarray) -> np.ndarray:
    """|delta H_c(j omega)|^2 (m, 4, n) of every channel c on one grid (n,) or
    one per row (m, 1, n). Every step is elementwise, so a row's values do not
    depend on the other rows. NumericalError if one is not finite (|den|^2
    overflows on a wide enough band).
    """
    with np.errstate(all="ignore"):
        x = -(omega * omega)
        den_sq = _squared_magnitude(batch.den[:, None], x, omega)
        squares = (np.square(delta * batch.gains)[..., None]
                   * _squared_magnitude(batch.nums, x, omega) / den_sq)
    if not np.isfinite(squares).all():
        band = (float(omega.min()), float(omega.max()))
        raise NumericalError(f"|delta H(j omega)|^2 is not a finite float on the band {band}")
    return squares


def band_table(batch: TransferBatch, delta: float, band=DEFAULT_BAND) -> np.ndarray:
    """kappa (m, 4): sqrt(band mean of |delta H(j omega)|^2) of each channel.

    |H|^2 = g^2 N(s) N(-s) / (D(s) D(-s)) at s = j omega is, over the roots
    l_i of D, c_inf + sum_i a_i [1/(s - l_i) - 1/(s + l_i)] with
    a_i = g^2 N(l_i) N(-l_i) / (D'(l_i) D(-l_i)) and c_inf = (g lead N)^2,
    lead N being N's coefficient of D's degree. The roots are closed under
    conjugation, so the band integral is exactly c_inf (b - a)
    + 2 Im sum_i a_i [log(j b - l_i) - log(j a - l_i)], each log argument off
    the branch cut (real part -Re l_i > 0). Elementwise, summed in a fixed
    order: a row's kappa does not depend on the rows evaluated with it.
    Any monic D with simple roots, on any number of channels, is exact.
    """
    delta, (lo, hi) = positive_number("delta", delta), _band_edges(band)
    roots, index = batch.roots, np.arange(batch.roots.shape[1])
    product = np.ones_like(roots)       # D'(l_i) D(-l_i), one factor pair per root l_j
    for j in index:
        other = roots[:, j:j + 1]
        product = product * np.where(index == j, 1.0, roots - other) * (-roots - other)
    weight = (np.log(1j * hi - roots) - np.log(1j * lo - roots)) / product
    ascending, roots, lead = batch.nums[..., ::-1], roots[:, None], batch.nums[..., 0]
    total = (_horner(ascending, roots) * _horner(ascending, -roots) * weight[:, None]).sum(axis=-1)
    return np.sqrt(np.square(delta * batch.gains) * (lead * lead + 2.0 * total.imag / (hi - lo)))


def _magnitude_polynomial(p: np.ndarray) -> np.ndarray:
    """|p(j omega)|^2 = p(s) p(-s) in descending powers of x = omega^2 = -s^2."""
    sign = (-1.0) ** np.arange(len(p))[::-1]        # p(-s) = sign * p
    return np.polymul(p, sign * p)[::2] * sign      # s^(2k) = (-x)^k


def band_peak(batch: TransferBatch, delta: float, band=DEFAULT_BAND) -> np.ndarray:
    """chi (m,): the exact band peak of |delta H_u(j omega)| of each row.

    With x = omega^2, |H_u|^2 = g^2 N(x) / D(x) peaks at an edge or at a root
    of N'D - ND' (degree <= 4; D is monic). The candidates are the edges and
    the real part of each root inside [a^2, b^2]: all are band frequencies,
    so a spurious one cannot raise chi and a real root that rounding moved
    off the axis is kept. An edge peak is the plotted Hu value bit for bit.
    """
    delta, (lo, hi) = positive_number("delta", delta), _band_edges(band)
    # room for the two edges and every root; unused slots repeat the lower edge
    omega = np.full((len(batch.den), 1, batch.nums.shape[-1] + batch.den.shape[-1]), lo)
    omega[:, 0, 1] = hi
    for i, (num, den) in enumerate(zip(batch.nums[:, 3], batch.den)):
        N, D = _magnitude_polynomial(num), _magnitude_polynomial(den)
        x = np.roots(np.polysub(np.polymul(np.polyder(N), D), np.polymul(N, np.polyder(D)))).real
        x = x[(lo * lo <= x) & (x <= hi * hi)]
        omega[i, 0, 2:2 + len(x)] = np.sqrt(x)  # in [lo, hi], as sqrt(lo * lo) == lo
    return np.sqrt(_band_squares(batch, delta, omega)[:, 3].max(axis=-1))


def dump_frequency_response(design: SlidingDesign, delta: float, path,
                            band=DEFAULT_BAND, n_samples: int = DEFAULT_SAMPLES) -> None:
    """CSV of the scaled magnitudes |delta H_c(j omega)| of one design, for plotting.

    The columns are the square roots of ``_band_squares`` on
    ``frequency_grid(band, n_samples)``; the Hu column peaks at ``band_peak``'s
    chi if chi sits at a band edge, below it otherwise. A design whose
    transfer zeros are undefined raises NumericalError.
    """
    delta, omega = positive_number("delta", delta), frequency_grid(band, n_samples)
    designs = DesignBatch.of(design)
    if not zero_rows(designs.eta)[2][0]:
        raise NumericalError(
            "sliding vector has a vanishing third or fourth component; "
            "transfer-function zeros are undefined")
    (squares,) = _band_squares(transfer_batch(designs), delta, omega)
    write_table(path, "omega_rad_s,H1,H2,H3,Hu", [omega, np.sqrt(squares).T])
