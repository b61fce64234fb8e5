"""Sliding-mode controller synthesis for the 4-state building + damper plant.

The design places three of the four closed-loop poles through the sliding
vector eta and the fourth through the full-state gain. By Ackermann's formula
both are e.P(A), with e the last row of the inverse controllability matrix and
P the desired characteristic polynomial. Written in powers of A, e.P(A) is
linear in the coefficients of P, so a whole stack of pole layouts costs a few
elementwise products against the plant-invariant rows e A^i. On the plane
sigma = eta.z = 0 the plant collapses to a third-order system (A1, B1) driven
by the ground acceleration.

The synthesis works on stacks of designs, one row per pole layout, and the
single-design functions are the same code with a stack of one. All arithmetic
that produces a design is elementwise and sums in a fixed order (``rowdot``),
never a BLAS product, so a row's numbers do not depend on the stack it was
computed in and a design rebuilt on its own matches its scan row bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, NumericalError, finite_number
from .structure import PlantStateSpace, controllability_matrix

__all__ = [
    "SlidingDesign",
    "DesignBatch",
    "real_poles",
    "dominant_pair",
    "ackermann_rows",
    "sliding_polynomial",
    "sliding_vectors",
    "design_batch",
    "switching_gain",
    "design_sliding_controller",
]

#: relative tolerance for verifying achieved pole locations
POLE_PLACEMENT_TOL = 1e-6
#: absolute tolerance of the identity eta.B = 1
ETA_B_TOL = 1e-9
#: relative tolerance of the block-triangular form of the transformed loop
BLOCK_TOL = 1e-6
#: lambda3 = -LAMBDA3_FACTOR * zeta * omega_n unless given
LAMBDA3_FACTOR = 3.0
#: lambda4 = -LAMBDA4_FACTOR * zeta * omega_n unless given
LAMBDA4_FACTOR = 10.0

#: why a row of a DesignBatch was rejected, indexed by DesignBatch.reject
#: (0 means accepted); the checks run in this order
REJECT_MESSAGES = (
    None,
    "eta.B deviates from 1 beyond tolerance",
    "pole placement failed: the achieved spectrum misses the requested poles",
    "transformation T is singular: last sliding weight is zero",
    "eta, k_gain, and lambda4 are mutually inconsistent; "
    "transformed dynamics are not block triangular",
)


@dataclass(frozen=True)
class SlidingDesign:
    """One sliding design, a row of a DesignBatch: pole layout, sliding vector,
    gain and reduced model, plus the relay's boundary layer and gain."""

    zeta: float
    omega_n: float          # rad/s
    lambda3: float
    lambda4: float
    eta: np.ndarray
    k_gain: np.ndarray
    alpha1: float
    alpha2: float
    A1: np.ndarray
    B1: np.ndarray
    nu1: np.ndarray
    epsilon: float = 0.05
    M0: float | None = None

    def with_switching_gain(self, M0: float) -> "SlidingDesign":
        return replace(self, M0=float(M0))

    def to_dict(self) -> dict:
        return {
            "poles": {name: getattr(self, name)
                      for name in ("zeta", "omega_n", "lambda3", "lambda4")},
            "eta": [float(x) for x in self.eta],
            "k_gain": [float(x) for x in self.k_gain],
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "M0": self.M0,
            "epsilon": self.epsilon,
        }


@dataclass(frozen=True)
class DesignBatch:
    """Sliding designs for a stack of pole layouts, row i for layout i.

    The fields are those of SlidingDesign but epsilon and M0, with a leading
    row axis, plus ``reject``: 0 for a row that passed every design check,
    otherwise the index of the first failed check in REJECT_MESSAGES.
    Rejected rows hold whatever the arithmetic gave and must not be used.
    """

    zeta: np.ndarray        # (m,)
    omega_n: np.ndarray     # (m,) rad/s
    lambda3: np.ndarray     # (m,)
    lambda4: np.ndarray     # (m,)
    eta: np.ndarray         # (m, 4)
    k_gain: np.ndarray      # (m, 4)
    alpha1: np.ndarray      # (m,)
    alpha2: np.ndarray      # (m,)
    A1: np.ndarray          # (m, 3, 3)
    B1: np.ndarray          # (m, 3)
    nu1: np.ndarray         # (m, 3)
    reject: np.ndarray      # (m,) int

    @classmethod
    def of(cls, design: SlidingDesign) -> "DesignBatch":
        """A stack of one holding ``design``."""
        return cls(**{f.name: np.asarray(getattr(design, f.name), dtype=float)[None]
                      for f in fields(cls) if f.name != "reject"},
                   reject=np.zeros(1, dtype=int))

    def take(self, rows) -> "DesignBatch":
        """The stack of the selected rows (index array or boolean mask)."""
        return replace(self, **{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def design(self, i: int, epsilon: float = 0.05) -> SlidingDesign:
        """Row i as a SlidingDesign; NumericalError if the row was rejected."""
        code = int(self.reject[i])
        if code:
            raise NumericalError(REJECT_MESSAGES[code])
        row = {f.name: getattr(self, f.name)[i] for f in fields(self) if f.name != "reject"}
        return SlidingDesign(**{name: float(v) if v.ndim == 0 else v.copy()
                                for name, v in row.items()}, epsilon=epsilon)


def real_poles(zeta, omega_n):
    """(lambda3, lambda4) of a grid point, for scalars or arrays alike.

    lambda3 = -LAMBDA3_FACTOR zeta omega_n and lambda4 = -LAMBDA4_FACTOR
    zeta omega_n: the one rule by which a (zeta, omega_n) point gets its real
    poles, in the scan and in the defaults of design_sliding_controller.
    """
    return -LAMBDA3_FACTOR * zeta * omega_n, -LAMBDA4_FACTOR * zeta * omega_n


def dominant_pair(zeta, omega_n):
    """(lambda1, lambda2) = -zeta omega_n -/+ j omega_n sqrt(1 - zeta^2).

    Scalars or arrays; either way the same elementwise operations, so a
    scan row and a single design of the same point agree bit for bit.
    """
    real, imag = -zeta * omega_n, omega_n * np.sqrt(1.0 - zeta * zeta)
    return real - 1j * imag, real + 1j * imag


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] * b[..., i], added in index order.

    Plain elementwise products and sums (broadcasting over the leading axes)
    instead of a BLAS product, whose blocking can change the summation order
    with the shape of the stack.
    """
    total = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        total = total + a[..., i] * b[..., i]
    return total


def _polymul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials in descending coefficients, row by row."""
    n_p, n_q = p.shape[-1], q.shape[-1]
    out = [None] * (n_p + n_q - 1)
    for i in range(n_p):
        for j in range(n_q):
            term = p[..., i] * q[..., j]
            out[i + j] = term if out[i + j] is None else out[i + j] + term
    return np.stack(out, axis=-1)


def ackermann_rows(plant: PlantStateSpace) -> np.ndarray:
    """Plant-invariant rows [e A^n; ...; e A; e], highest power first.

    e is the last row of the inverse controllability matrix, so for a monic
    polynomial with descending coefficients c, e.P(A) = sum_i c_i rows[i]
    over the last len(c) rows.
    """
    Co = controllability_matrix(plant.A, plant.B)
    unit_last = np.zeros(len(plant.B))
    unit_last[-1] = 1.0
    try:
        e_row = np.linalg.solve(Co.T, unit_last)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("controllability matrix is singular") from exc
    rows = [e_row]
    A_columns = np.asarray(plant.A, dtype=float).T
    for _ in range(len(e_row)):
        rows.append(rowdot(rows[-1], A_columns))
    return np.array(rows[::-1])


def _apply(rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """e.P(A) for each row of descending coefficients of P (stack of rows)."""
    basis = rows[len(rows) - coeffs.shape[-1]:]
    return rowdot(coeffs[..., None, :], basis.T)


def sliding_polynomial(zeta, omega_n, lambda3) -> np.ndarray:
    """[1, c2, c1, c0] of (s^2 + 2 zeta omega_n s + omega_n^2)(s - lambda3) per row.

    This is the characteristic polynomial of the sliding dynamics and the
    common denominator of every closed-loop response.
    """
    zeta, omega_n, lambda3 = (np.asarray(v, dtype=float) for v in (zeta, omega_n, lambda3))
    ones = np.ones_like(zeta)
    quadratic = np.stack([ones, 2.0 * zeta * omega_n, omega_n * omega_n], axis=-1)
    return _polymul(quadratic, np.stack([ones, -lambda3], axis=-1))


def sliding_vectors(rows: np.ndarray, zeta, omega_n, lambda3) -> np.ndarray:
    """eta = e.P1(A) for a stack of sliding pole layouts, (m, 4)."""
    return _apply(rows, sliding_polynomial(zeta, omega_n, lambda3))


def _closed_loop(plant: PlantStateSpace, k_gain: np.ndarray) -> np.ndarray:
    """A - B k for each row of k, (m, 4, 4)."""
    return plant.A - plant.B[:, None] * k_gain[:, None, :]


def _placement_error(closed: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Relative distance between the achieved and the requested spectra, per row."""
    achieved = np.sort_complex(np.linalg.eigvals(closed))
    wanted = np.sort_complex(wanted)
    return (np.linalg.norm(achieved - wanted, axis=-1)
            / np.maximum(1.0, np.linalg.norm(wanted, axis=-1)))


def _reduce(plant: PlantStateSpace, eta: np.ndarray, closed: np.ndarray,
            lambda4: np.ndarray):
    """Sliding-mode dynamics by the transformation w = T z, row by row.

    T = [[I3, 0], [eta]] (det T = eta[3]) has the closed-form inverse
    [[I3, 0], [t, 1/eta[3]]] with t = -eta[:3]/eta[3], so W = T closed T^-1,
    with closed = A - B k, is assembled from elementwise products. In these coordinates the closed loop is block
    triangular with the sliding poles in the upper-left block A1 and lambda4
    alone in the bottom-right corner. alpha1 = -eta.D is the excitation
    feedthrough; B1 collects the excitation path of the reduced states (for
    this plant structure B1 = [0, 0, alpha2]). nu1 reconstructs the
    equivalent control from z* and is independent of lambda4.

    Returns (A1, B1, alpha1, alpha2, nu1, singular, inconsistent); the last
    two flag rows whose T is singular or whose W is not block triangular.
    """
    singular = np.abs(eta[:, 3]) <= 1e-12 * np.maximum(1.0, np.sqrt(rowdot(eta, eta)))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_last = 1.0 / eta[:, 3]
        t_row = -eta[:, :3] / eta[:, 3:4]
        X = np.empty_like(closed)                       # (A - B k) T^-1
        X[:, :, :3] = closed[:, :, :3] + closed[:, :, 3:4] * t_row[:, None, :]
        X[:, :, 3] = closed[:, :, 3] * inv_last[:, None]
        W_last = rowdot(eta[:, None, :], np.swapaxes(X, 1, 2))  # row 3 of W
        scale = np.maximum(1.0, np.maximum(np.abs(X[:, :3]).max(axis=(1, 2)),
                                           np.abs(W_last).max(axis=1)))
        inconsistent = ~((np.abs(W_last[:, :3]).max(axis=1) <= BLOCK_TOL * scale)
                         & (np.abs(W_last[:, 3] - lambda4) <= BLOCK_TOL * scale))
        A1 = X[:, :3, :3].copy()
        alpha1 = -rowdot(eta, plant.D)
        B1 = plant.D[:3] + alpha1[:, None] * plant.B[:3]
        eta_A = rowdot(eta[:, None, :], plant.A.T)
        nu1 = -(eta_A[:, :3] + eta_A[:, 3:4] * t_row)
    return A1, B1, alpha1, B1[:, 2].copy(), nu1, singular, inconsistent


def design_batch(plant: PlantStateSpace, zeta, omega_n, lambda3, lambda4,
                 rows: np.ndarray | None = None) -> DesignBatch:
    """Synthesize and check the sliding design of every row of a pole stack.

    ``rows`` are the plant's ``ackermann_rows``, built here when omitted.
    Each row is checked as the single-design path always did: eta.B = 1 to
    ETA_B_TOL; the spectrum of A - B k against the requested poles by
    ``eigvals`` at POLE_PLACEMENT_TOL; T nonsingular; and W block triangular
    at BLOCK_TOL. The first failing check is recorded in ``reject``.
    """
    zeta, omega_n, lambda3, lambda4 = (np.asarray(v, dtype=float).reshape(-1)
                                       for v in (zeta, omega_n, lambda3, lambda4))
    if rows is None:
        rows = ackermann_rows(plant)
    sliding = sliding_polynomial(zeta, omega_n, lambda3)
    full = _polymul(sliding, np.stack([np.ones_like(lambda4), -lambda4], axis=-1))
    eta = _apply(rows, sliding)
    k_gain = _apply(rows, full)

    closed = _closed_loop(plant, k_gain)
    wanted = np.stack([*dominant_pair(zeta, omega_n), lambda3, lambda4], axis=-1)
    A1, B1, alpha1, alpha2, nu1, singular, inconsistent = _reduce(plant, eta, closed, lambda4)

    checks = (np.abs(rowdot(eta, plant.B) - 1.0) > ETA_B_TOL,
              _placement_error(closed, wanted) > POLE_PLACEMENT_TOL,
              singular, inconsistent)
    reject = np.zeros(len(zeta), dtype=int)
    for code in range(len(checks), 0, -1):     # the first failing check wins
        reject[checks[code - 1]] = code
    return DesignBatch(zeta=zeta, omega_n=omega_n, lambda3=lambda3, lambda4=lambda4,
                       eta=eta, k_gain=k_gain, alpha1=alpha1, alpha2=alpha2,
                       A1=A1, B1=B1, nu1=nu1, reject=reject)


def switching_gain(chi: float, varpi: float, varsigma: float = 0.5) -> float:
    """Relay amplitude M0 = varpi + chi + varsigma.

    chi bounds the equivalent control over the excitation band, varpi the
    friction, and varsigma > 0 provides the strict margin that guarantees
    finite-time reaching. Each must be a finite number, or ConfigError.
    """
    chi, varpi = finite_number("chi", chi), finite_number("varpi", varpi)
    varsigma = finite_number("varsigma", varsigma)
    if chi < 0 or varpi < 0:
        raise ConfigError("chi and varpi must be non-negative")
    if varsigma <= 0:
        raise ConfigError("varsigma must be positive")
    return varpi + chi + varsigma


def design_sliding_controller(plant: PlantStateSpace, zeta: float, omega_n: float,
                              lambda3: float | None = None, lambda4: float | None = None,
                              epsilon: float = 0.05) -> SlidingDesign:
    """Synthesize the complete sliding design for one pole layout.

    The dominant pair has damping 0 < zeta < 1 and natural frequency
    omega_n > 0 (rad/s); lambda3 and lambda4 must be negative and default to
    the scan's rule (``real_poles``). lambda3 sets the third sliding pole;
    lambda4 only shapes the reaching phase, and epsilon, the relay's boundary
    layer, must be positive. Each value must be a finite number, or
    ConfigError. This is ``design_batch`` with a stack of one. The
    switching gain is left unset; it follows from the force peak over the
    excitation band (see freqresp.band_peak and switching_gain).
    """
    zeta, omega_n = finite_number("zeta", zeta), finite_number("omega_n", omega_n)
    if not 0.0 < zeta < 1.0:
        raise ConfigError(f"zeta must lie in (0, 1), got {zeta}")
    if omega_n <= 0.0:
        raise ConfigError(f"omega_n must be positive, got {omega_n}")
    default3, default4 = real_poles(zeta, omega_n)
    lambda3 = default3 if lambda3 is None else finite_number("lambda3", lambda3)
    lambda4 = default4 if lambda4 is None else finite_number("lambda4", lambda4)
    if lambda3 >= 0.0 or lambda4 >= 0.0:
        raise ConfigError("lambda3 and lambda4 must be real and negative")
    epsilon = finite_number("epsilon", epsilon)
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    return design_batch(plant, zeta, omega_n, lambda3, lambda4).design(0, epsilon)
