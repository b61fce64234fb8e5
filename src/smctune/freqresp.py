"""Frequency-domain view of the sliding-mode closed loop.

Four transfer functions map the ground acceleration to the damper stroke
(G1), top-floor displacement (G2), damper velocity (G3), and control force
(Gu). Scaling each by the acceleration bound delta gives the worst-case
sinusoidal response H_i; band-limited RMS values kappa_i and the peak chi of
|H_u| feed the tuning constraints and the switching gain.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleDesignError
from .smc import DesignBatch, SlidingDesign, rowdot, sliding_polynomial

__all__ = [
    "DEFAULT_BAND",
    "DEFAULT_SAMPLES",
    "TransferBatch",
    "zero_rows",
    "transfer_batch",
    "frequency_grid",
    "band_table",
    "dump_frequency_response",
]

#: earthquake excitation band, rad/s (1 to 20 Hz)
DEFAULT_BAND = (2.0 * np.pi, 40.0 * np.pi)
#: frequency samples used for band metrics
DEFAULT_SAMPLES = 2000
#: bytes of one (rows, n_samples) float64 temporary of ``band_table``; it sets
#: how many designs are evaluated per block (4 at DEFAULT_SAMPLES)
BAND_BLOCK_BYTES = 64 * 1024


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
    the denominator ``den`` (the sliding characteristic polynomial).
    """

    den: np.ndarray                      # (m, 4)
    nums: tuple[np.ndarray, ...]         # (m, 2), (m, 2), (m, 3), (m, 4)
    gains: tuple[np.ndarray, ...]        # four (m,) arrays
    psi1: np.ndarray                     # (m,)
    psi2: np.ndarray                     # (m,)


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
    return TransferBatch(den=den, nums=nums, gains=gains, psi1=psi1, psi2=psi2)


def frequency_grid(band=DEFAULT_BAND, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Uniform linear grid over the band, endpoints included."""
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


def _band_squares(den, nums, gains, delta: float, omega: np.ndarray) -> list[np.ndarray]:
    """|delta H_c(j omega)|^2 of every channel c on one grid, (m, len(omega)) each.

    |den|^2 is evaluated once for all channels. Every step is elementwise, so
    a row's values do not depend on the other rows evaluated with it.
    """
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    x = -(omega * omega)
    den_sq = _squared_magnitude(den, x, omega)
    return [np.square(delta * gain)[:, None] * _squared_magnitude(num, x, omega) / den_sq
            for num, gain in zip(nums, gains)]


def _trapezoid_rms(squares: np.ndarray) -> np.ndarray:
    """Band RMS sqrt(mean over the band of |delta H(j omega)|^2) of each row.

    The band mean of the squared magnitude is the integral over the band
    divided by its width, estimated by the composite trapezoid rule on
    ``frequency_grid(band, n_samples)``: interior samples carry weight
    1/(n-1), the two endpoints 1/(2(n-1)). Equal weights on the inclusive
    grid would give each endpoint 1/n instead, an O(1/n) bias that matters
    here because every response peaks at the lower band edge; the trapezoid
    estimate converges as O(1/n^2). ``n_samples`` sets the resolution.
    """
    interior_weighted = squares.sum(axis=-1) - 0.5 * (squares[:, 0] + squares[:, -1])
    return np.sqrt(interior_weighted / (squares.shape[-1] - 1))


def band_table(batch: TransferBatch, delta: float, band=DEFAULT_BAND,
               n_samples: int = DEFAULT_SAMPLES) -> tuple[np.ndarray, np.ndarray]:
    """kappa (m, 4) of the channels 1, 2, 3, u and the force peak chi (m,).

    All rows share one ``frequency_grid``. They are evaluated in blocks whose
    (rows, n_samples) temporaries fit BAND_BLOCK_BYTES, so memory stays
    bounded however many designs the stack holds. kappa is the trapezoid
    band RMS (``_trapezoid_rms``), and chi comes from the same |H_u| values
    as kappa_u.
    """
    omega = frequency_grid(band, n_samples)
    rows = len(batch.den)
    block = max(1, BAND_BLOCK_BYTES // (omega.itemsize * omega.size))
    kappa, chi = np.empty((rows, 4)), np.empty(rows)
    for start in range(0, rows, block):
        part = slice(start, start + block)
        squares = _band_squares(batch.den[part], [num[part] for num in batch.nums],
                                [gain[part] for gain in batch.gains], delta, omega)
        for channel, sq in enumerate(squares):
            kappa[part, channel] = _trapezoid_rms(sq)
        chi[part] = np.sqrt(squares[3].max(axis=-1))
    return kappa, chi


def dump_frequency_response(design: SlidingDesign, delta: float, path,
                            band=DEFAULT_BAND, n_samples: int = DEFAULT_SAMPLES) -> None:
    """CSV of the scaled magnitudes |delta H_c(j omega)| of one design, for plotting.

    The columns are the square roots of the ``_band_squares`` values that
    ``band_table`` reduces to kappa and chi, so the peak of the Hu column is
    chi. A design whose transfer zeros are undefined is infeasible.
    """
    designs = DesignBatch.of(design)
    if not zero_rows(designs.eta)[2][0]:
        raise InfeasibleDesignError(
            "sliding vector has a vanishing third or fourth component; "
            "transfer-function zeros are undefined")
    omega = frequency_grid(band, n_samples)
    batch = transfer_batch(designs)
    squares = _band_squares(batch.den, batch.nums, batch.gains, delta, omega)
    rows = np.column_stack([omega] + [np.sqrt(sq[0]) for sq in squares]).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega_rad_s", "H1", "H2", "H3", "Hu"])
        writer.writerows([repr(x) for x in row] for row in rows)
