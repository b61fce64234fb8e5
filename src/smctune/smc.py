"""Sliding-mode controller synthesis for the 4-state building + damper plant.

The design places the three poles of the sliding dynamics through the
sliding vector eta. By Ackermann's formula eta = e.P1(A), with e the last row
of the inverse controllability matrix and P1 the cubic whose roots are the
sliding poles; the relay u = -M0 sat(eta.z / epsilon) needs nothing else.
Written in powers of A, e.P1(A) is linear in the coefficients of P1, so a whole
stack of pole layouts costs a few elementwise products against the
plant-invariant rows e A^i. On the plane sigma = eta.z = 0 the plant collapses
to a third-order system (A1, B1) driven by the ground acceleration, and that
system's spectrum is what each design is checked against.

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
    "real_pole",
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
#: lambda3 = -LAMBDA3_FACTOR * zeta * omega_n unless given
LAMBDA3_FACTOR = 3.0
#: the relay's boundary layer epsilon unless given
BOUNDARY_LAYER = 0.05
#: the margin varsigma of the switching gain unless given
SWITCHING_MARGIN = 0.5

#: why a row of a DesignBatch was rejected, indexed by DesignBatch.reject
#: (0 means accepted); the checks run in this order
REJECT_MESSAGES = (
    None,
    "eta.B deviates from 1 beyond tolerance",
    "transformation T is singular: last sliding weight is zero",
    "pole placement failed: the sliding dynamics miss the requested poles",
)


@dataclass(frozen=True)
class SlidingDesign:
    """One sliding design, a row of a DesignBatch: pole layout, sliding vector
    and reduced model, plus the relay's boundary layer and gain."""

    zeta: float
    omega_n: float          # rad/s
    lambda3: float
    eta: np.ndarray
    alpha1: float
    alpha2: float
    A1: np.ndarray
    B1: np.ndarray
    nu1: np.ndarray
    epsilon: float
    M0: float | None = None

    def to_dict(self) -> dict:
        return {
            "poles": {name: getattr(self, name)
                      for name in ("zeta", "omega_n", "lambda3")},
            "eta": [float(x) for x in self.eta],
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
    eta: np.ndarray         # (m, 4)
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

    def design(self, i: int, epsilon: float, M0: float | None = None) -> SlidingDesign:
        """Row i as a SlidingDesign with the relay (epsilon, M0); NumericalError
        if the row was rejected."""
        code = int(self.reject[i])
        if code:
            raise NumericalError(REJECT_MESSAGES[code])
        row = {f.name: getattr(self, f.name)[i] for f in fields(self) if f.name != "reject"}
        return SlidingDesign(**{name: float(v) if v.ndim == 0 else v.copy()
                                for name, v in row.items()}, epsilon=epsilon, M0=M0)


def real_pole(zeta, omega_n):
    """lambda3 of a grid point, for scalars or arrays alike.

    lambda3 = -LAMBDA3_FACTOR zeta omega_n: the one rule by which a
    (zeta, omega_n) point gets its real pole, in the scan and in the default
    of design_sliding_controller.
    """
    return -LAMBDA3_FACTOR * zeta * omega_n


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
    c2, c1, root = 2.0 * zeta * omega_n, omega_n * omega_n, -lambda3
    return np.stack([np.ones_like(zeta), root + c2, c2 * root + c1, c1 * root], axis=-1)


def sliding_vectors(rows: np.ndarray, zeta, omega_n, lambda3) -> np.ndarray:
    """eta = e.P1(A) for a stack of sliding pole layouts, (m, 4)."""
    return _apply(rows, sliding_polynomial(zeta, omega_n, lambda3))


def _placement_error(matrices: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Relative distance between the spectrum of each matrix and its requested
    poles, per row; inf where either holds a value that is not finite."""
    error = np.full(len(matrices), np.inf)
    finite = np.isfinite(matrices).all(axis=(1, 2)) & np.isfinite(wanted).all(axis=1)
    achieved = np.sort_complex(np.linalg.eigvals(matrices[finite]))
    wanted = np.sort_complex(wanted[finite])
    error[finite] = (np.linalg.norm(achieved - wanted, axis=-1)
                     / np.maximum(1.0, np.linalg.norm(wanted, axis=-1)))
    return error


def _reduce(plant: PlantStateSpace, eta: np.ndarray):
    """Sliding-mode dynamics by the transformation w = T z, row by row.

    T = [[I3, 0], [eta]] (det T = eta[3]) has the closed-form inverse
    [[I3, 0], [t, 1/eta[3]]] with t = -eta[:3]/eta[3], so every product with
    T^-1 is assembled from elementwise products. nu1 = -(eta A T^-1)[:3]
    reconstructs the equivalent control from z*, and A1 = (A T^-1)[:3, :3] +
    B[:3] nu1 is the loop on the plane under that control. alpha1 = -eta.D is
    the excitation feedthrough; B1 collects the excitation path of the reduced
    states (for this plant structure B1 = [0, 0, alpha2]).

    Returns (A1, B1, alpha1, alpha2, nu1, singular); the last flags rows whose
    T is singular, and whose A1 is therefore not finite.
    """
    singular = np.abs(eta[:, 3]) <= 1e-12 * np.maximum(1.0, np.sqrt(rowdot(eta, eta)))
    t_row = -eta[:, :3] / eta[:, 3:4]
    eta_A = rowdot(eta[:, None, :], plant.A.T)
    nu1 = -(eta_A[:, :3] + eta_A[:, 3:4] * t_row)
    A1 = (plant.A[:3, :3] + plant.A[:3, 3:4] * t_row[:, None, :]
          + plant.B[:3, None] * nu1[:, None, :])
    alpha1 = -rowdot(eta, plant.D)
    B1 = plant.D[:3] + alpha1[:, None] * plant.B[:3]
    return A1, B1, alpha1, B1[:, 2].copy(), nu1, singular


def design_batch(plant: PlantStateSpace, zeta, omega_n, lambda3,
                 rows: np.ndarray | None = None) -> DesignBatch:
    """Synthesize and check the sliding design of every row of a pole stack.

    ``rows`` are the plant's ``ackermann_rows``, built here when omitted.
    Each row is checked on the loop the scan scores, in this order: eta.B = 1
    to ETA_B_TOL; T nonsingular; and the spectrum of A1 against the three
    sliding poles by ``eigvals`` at POLE_PLACEMENT_TOL. The first failing
    check is recorded in ``reject``. A row whose numbers overflow holds inf
    or NaN, fails a check and warns nothing.
    """
    zeta, omega_n, lambda3 = (np.asarray(v, dtype=float).reshape(-1)
                              for v in (zeta, omega_n, lambda3))
    if rows is None:
        rows = ackermann_rows(plant)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        eta = sliding_vectors(rows, zeta, omega_n, lambda3)
        A1, B1, alpha1, alpha2, nu1, singular = _reduce(plant, eta)
        wanted = np.stack([*dominant_pair(zeta, omega_n), lambda3], axis=-1)
        checks = (~(np.abs(rowdot(eta, plant.B) - 1.0) <= ETA_B_TOL), singular,
                  ~(_placement_error(A1, wanted) <= POLE_PLACEMENT_TOL))
    reject = np.zeros(len(zeta), dtype=int)
    for code in range(len(checks), 0, -1):     # the first failing check wins
        reject[checks[code - 1]] = code
    return DesignBatch(zeta=zeta, omega_n=omega_n, lambda3=lambda3, eta=eta,
                       alpha1=alpha1, alpha2=alpha2, A1=A1, B1=B1, nu1=nu1, reject=reject)


def switching_gain(chi: float, varpi: float, varsigma: float = SWITCHING_MARGIN) -> float:
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
                              lambda3: float | None = None,
                              epsilon: float = BOUNDARY_LAYER) -> SlidingDesign:
    """Synthesize the complete sliding design for one pole layout.

    The dominant pair has damping 0 < zeta < 1 and natural frequency
    omega_n > 0 (rad/s); lambda3, the third sliding pole, must be negative and
    defaults to the scan's rule (``real_pole``). epsilon, the relay's boundary
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
    lambda3 = real_pole(zeta, omega_n) if lambda3 is None else finite_number("lambda3", lambda3)
    if lambda3 >= 0.0:
        raise ConfigError(f"lambda3 must be negative, got {lambda3}")
    epsilon = finite_number("epsilon", epsilon)
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    return design_batch(plant, zeta, omega_n, lambda3).design(0, epsilon)
