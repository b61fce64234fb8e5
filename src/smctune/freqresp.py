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

from .errors import ConfigError, NumericalError, write_table
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

    Channel c, in the order 1, 2, 3, u, is gains[c] * nums[c](s) / den(s)
    with coefficients in descending powers of s; the four responses share
    the denominator ``den`` (the sliding characteristic polynomial), whose
    zeros are ``roots``.
    """

    den: np.ndarray                      # (m, 4)
    roots: np.ndarray                    # (m, 3) complex: lambda1, lambda2, lambda3
    nums: tuple[np.ndarray, ...]         # (m, 2), (m, 2), (m, 3), (m, 4)
    gains: tuple[np.ndarray, ...]        # four (m,) arrays


def transfer_batch(designs: DesignBatch) -> TransferBatch:
    """Realize G1, G2, G3, Gu of every design as rational functions of s.

    All four share the sliding characteristic polynomial
    (s - lambda3)(s^2 + 2 zeta omega_n s + omega_n^2) as denominator. The
    displacement/velocity responses come in closed form from alpha2 and the
    zeros psi1/psi2; the force response nu1 (sI - A1)^{-1} B1 + alpha1 is
    expanded through the adjugate of (sI - A1) (Faddeev-LeVerrier):
    adj(sI - A1) = I s^2 + M2 s + M3 with M2 = A1 + c2 I and M3 = A1 M2 + c1 I
    for den = [1, c2, c1, c0]. Rows whose zeros are undefined must be
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
    num_u = np.stack([zeros, rowdot(nu1, B1), rowdot(nu1, m2_b1), rowdot(nu1, m3_b1)],
                     axis=-1)
    nums = (np.stack([ones, -psi1], axis=-1),
            np.stack([ones, -psi2], axis=-1),
            np.stack([ones, -psi1, zeros], axis=-1),
            designs.alpha1[:, None] * den + num_u)
    gains = (a2, -a2 * eta[:, 2] / eta[:, 3], a2, ones)
    return TransferBatch(den=den, roots=roots, nums=nums, gains=gains)


def frequency_grid(band=DEFAULT_BAND, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Uniform linear grid over the band, endpoints included: the plotted grid."""
    lo, hi = band
    if not lo < hi:
        raise ConfigError(f"band must satisfy lower < upper, got {band}")
    if n_samples < 2:
        raise ConfigError(f"need at least 2 samples, got {n_samples}")
    return np.linspace(lo, hi, int(n_samples))


def _horner(ascending: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k ascending[:, k] x^k for every row; (m, 1) for a constant."""
    acc = ascending[:, -1:]
    for k in range(ascending.shape[1] - 2, -1, -1):
        acc = acc * x + ascending[:, k:k + 1]
    return acc


def _squared_magnitude(coeffs: np.ndarray, x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """|p(j omega)|^2 for each row of descending coefficients, in real arithmetic.

    With x = -omega^2, p(j omega) = E(x) + j omega O(x), where E and O collect
    the even and the odd powers of p, so |p|^2 = E^2 + (omega O)^2.
    """
    ascending = coeffs[:, ::-1]
    even = _horner(ascending[:, 0::2], x)
    if ascending.shape[1] == 1:
        return even * even * np.ones_like(x)
    odd = omega * _horner(ascending[:, 1::2], x)
    return even * even + odd * odd


def _band_squares(batch: TransferBatch, delta: float, omega: np.ndarray) -> list[np.ndarray]:
    """|delta H_c(j omega)|^2 of every channel c, (m, n) each, on one grid (n,)
    or one per row (m, n). |den|^2 is evaluated once for all channels. Every
    step is elementwise, so a row's values do not depend on the other rows.
    """
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    x = -(omega * omega)
    den_sq = _squared_magnitude(batch.den, x, omega)
    return [np.square(delta * gain)[:, None] * _squared_magnitude(num, x, omega) / den_sq
            for num, gain in zip(batch.nums, batch.gains)]


def band_table(batch: TransferBatch, delta: float, band=DEFAULT_BAND) -> np.ndarray:
    """kappa (m, 4): sqrt(band mean of |delta H(j omega)|^2) of channels 1, 2, 3, u.

    |H|^2 = g^2 N(s) N(-s) / (D(s) D(-s)) at s = j omega is, over the roots
    l_i of D, c_inf + sum_i a_i [1/(s - l_i) - 1/(s + l_i)] with
    a_i = g^2 N(l_i) N(-l_i) / (D'(l_i) D(-l_i)) and c_inf = (g lead N)^2 for
    the cubic force numerator (0 otherwise). The roots are closed under
    conjugation, so the band integral is exactly c_inf (b - a)
    + 2 Im sum_i a_i [log(j b - l_i) - log(j a - l_i)], each log argument off
    the branch cut (real part -Re l_i > 0). Elementwise, summed in a fixed
    order: a row's kappa does not depend on the rows evaluated with it.
    """
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    lo, hi = frequency_grid(band, 2)    # the band edges, checked
    roots, index = batch.roots, np.arange(batch.roots.shape[1])
    product = np.ones_like(roots)       # D'(l_i) D(-l_i), one factor pair per root l_j
    for j in index:
        other = roots[:, j:j + 1]
        product = product * np.where(index == j, 1.0, roots - other) * (-roots - other)
    weight = (np.log(1j * hi - roots) - np.log(1j * lo - roots)) / product
    kappa = np.empty((len(roots), 4))
    for c, (num, gain) in enumerate(zip(batch.nums, batch.gains)):
        ascending = num[:, ::-1]
        total = (_horner(ascending, roots) * _horner(ascending, -roots) * weight).sum(axis=-1)
        lead = num[:, 0] if num.shape[1] == batch.den.shape[1] else 0.0
        mean = lead * lead + 2.0 * total.imag / (hi - lo)
        kappa[:, c] = np.sqrt(np.square(delta * gain) * mean)
    return kappa


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
    lo, hi = frequency_grid(band, 2)    # the band edges, checked
    # room for the two edges and every root; unused slots repeat the lower edge
    omega = np.full((len(batch.den), batch.nums[3].shape[1] + batch.den.shape[1]), lo)
    omega[:, 1] = hi
    for i, (num, den) in enumerate(zip(batch.nums[3], batch.den)):
        N, D = _magnitude_polynomial(num), _magnitude_polynomial(den)
        x = np.roots(np.polysub(np.polymul(np.polyder(N), D), np.polymul(N, np.polyder(D)))).real
        x = x[(lo * lo <= x) & (x <= hi * hi)]
        omega[i, 2:2 + len(x)] = np.sqrt(x)     # in [lo, hi], as sqrt(lo * lo) == lo
    return np.sqrt(_band_squares(batch, delta, omega)[3].max(axis=1))


def dump_frequency_response(design: SlidingDesign, delta: float, path,
                            band=DEFAULT_BAND, n_samples: int = DEFAULT_SAMPLES) -> None:
    """CSV of the scaled magnitudes |delta H_c(j omega)| of one design, for plotting.

    The columns are the square roots of ``_band_squares`` on
    ``frequency_grid(band, n_samples)``; the Hu column peaks at ``band_peak``'s
    chi if chi sits at a band edge, below it otherwise. A design whose
    transfer zeros are undefined raises NumericalError.
    """
    designs = DesignBatch.of(design)
    if not zero_rows(designs.eta)[2][0]:
        raise NumericalError(
            "sliding vector has a vanishing third or fourth component; "
            "transfer-function zeros are undefined")
    omega = frequency_grid(band, n_samples)
    squares = _band_squares(transfer_batch(designs), delta, omega)
    write_table(path, "omega_rad_s,H1,H2,H3,Hu", [omega] + [np.sqrt(sq[0]) for sq in squares])
