"""Infinite-horizon LQR baseline with inverse-square (Bryson) weights.

Serves as the comparison controller: weights follow from the maximum
acceptable magnitude of each state and of the control force, and the gain
comes from the stabilizing solution of the continuous algebraic Riccati
equation. That solution starts from the stable invariant subspace of the
Hamiltonian matrix (Laub 1979) and is polished by Newton-Kleinman iterations
(Kleinman 1968) until the residual is at solver noise level. ``solve_riccati``
returns the solution with its residual as an ``LqrResult``; ``solve_lqr``
accepts it when the residual is small in absolute terms or relative to the
Riccati terms. numpy is the only dependency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, finite_number, positive_number
from .structure import PlantStateSpace

__all__ = [
    "MaxValues",
    "LqrSpec",
    "LqrResult",
    "bryson_weights",
    "solve_riccati",
    "solve_lqr",
    "lqr_equivalent_polespec",
]

RESIDUAL_MAX = 1e-8
#: residual bound relative to the largest entry of the Riccati terms (``solve_lqr``)
RESIDUAL_RELATIVE = 5e-13
#: Newton-Kleinman steps after the Hamiltonian solve, at most
NEWTON_STEPS = 30


@dataclass(frozen=True)
class MaxValues:
    """Largest acceptable magnitudes: states in m and m/s, force in N."""

    z1: float
    z2: float
    z3: float
    z4: float
    u: float

    def __post_init__(self):
        for name in ("z1", "z2", "z3", "z4", "u"):
            value = finite_number(f"maximum for {name}", getattr(self, name))
            if not 1e-150 <= value <= 1e150:  # so that 1/value^2 is a positive float
                raise ConfigError(f"maximum for {name} must lie in [1e-150, 1e150], got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LqrSpec:
    """Quadratic cost weights: diagonal Q and scalar control weight r."""

    Q: np.ndarray
    r: float


@dataclass(frozen=True)
class LqrResult:
    P: np.ndarray                  # stabilizing Riccati solution
    k_gain: np.ndarray             # u = -k_gain . z
    closed_loop_eigs: np.ndarray
    residual: float                # max-abs Riccati residual


def bryson_weights(max_values: MaxValues) -> LqrSpec:
    """Q[i,i] = 1/max_i^2 and r = 1/u_max^2."""
    q = np.array([1.0 / max_values.z1 ** 2, 1.0 / max_values.z2 ** 2,
                  1.0 / max_values.z3 ** 2, 1.0 / max_values.z4 ** 2])
    return LqrSpec(Q=np.diag(q), r=1.0 / max_values.u ** 2)


def _riccati_residual(A, B, Q, r, P) -> float:
    """Max-abs CARE residual; inf (or NaN) if it overflows, which no caller accepts."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = A.T @ P + P @ A - np.outer(P @ B, B @ P) / r + Q
    return float(np.abs(res).max())


def _lyapunov(A_cl, C):
    """X with A_cl^T X + X A_cl = -C, as one n^2 x n^2 Kronecker system."""
    n = len(A_cl)
    eye = np.eye(n)
    M = np.kron(eye, A_cl.T) + np.kron(A_cl.T, eye)
    return np.linalg.solve(M, -C.reshape(-1)).reshape(n, n)


def _hamiltonian_solution(A, b, Q, r):
    """P = Re(X2 X1^-1) from the n eigenvectors [X1; X2] of the Hamiltonian
    [[A, -b b^T/r], [-Q, -A^T]] whose eigenvalues have negative real part."""
    n = len(A)
    H = np.block([[A, -np.outer(b, b) / r], [-Q, -A.T]])
    try:
        eigs, vecs = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Riccati solve failed: {exc}") from exc
    stable = eigs.real < 0
    if np.count_nonzero(stable) != n:
        raise NumericalError(f"Riccati solve failed: the Hamiltonian has "
                             f"{np.count_nonzero(stable)} stable eigenvalues, not {n}")
    X1, X2 = vecs[:n, stable], vecs[n:, stable]
    try:
        P = np.linalg.solve(X1.T, X2.T).T.real
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Riccati solve failed: the stable subspace has a "
                             "singular X1 block") from exc
    if not np.all(np.isfinite(P)):
        raise NumericalError("Riccati solve failed: non-finite solution")
    return P


def solve_riccati(A, B, Q, r) -> LqrResult:
    """Stabilizing CARE solution for a single-input pair.

    The stable invariant subspace of the Hamiltonian matrix provides the
    starting point; up to NEWTON_STEPS Newton-Kleinman iterations (one
    Lyapunov solve each) then drive the residual to rounding level. The
    residual is reported, not gated (``solve_lqr`` gates it).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(B, dtype=float).reshape(-1)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    r = positive_number("control weight r", r)
    n = len(A)
    if A.shape != (n, n) or b.shape != (n,) or Q.shape != (n, n):
        raise ConfigError(f"Riccati solve needs A and Q n x n and B of length n, got "
                          f"{A.shape}, {b.shape} and {Q.shape}")

    P = _hamiltonian_solution(A, b, Q, r)
    best_P = P
    best_res = _riccati_residual(A, b, Q, r, P)
    for _ in range(NEWTON_STEPS):
        k = (b @ P) / r
        A_cl = A - np.outer(b, k)
        if np.max(np.linalg.eigvals(A_cl).real) >= 0:
            break
        try:
            P = _lyapunov(A_cl, Q + r * np.outer(k, k))
        except np.linalg.LinAlgError:
            break
        P = 0.5 * (P + P.T)
        res = _riccati_residual(A, b, Q, r, P)
        if res < best_res:
            best_P, best_res = P, res
        if res < 1e-13 * max(1.0, float(np.abs(Q).max())):
            break

    P = 0.5 * (best_P + best_P.T)
    k = (b @ P) / r
    eigs = np.linalg.eigvals(A - np.outer(b, k))
    residual = _riccati_residual(A, b, Q, r, P)
    if np.max(eigs.real) >= 0:
        raise NumericalError("Riccati iteration did not produce a stabilizing gain")
    try:
        np.linalg.cholesky(P + 1e-14 * np.eye(len(P)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Riccati solution is not positive definite") from exc
    return LqrResult(P=P, k_gain=k, closed_loop_eigs=np.sort_complex(eigs), residual=residual)


def solve_lqr(plant: PlantStateSpace, spec: LqrSpec) -> LqrResult:
    """LQR gain for the 4-state plant under the given weights.

    The Riccati residual must be finite and at most RESIDUAL_MAX or
    RESIDUAL_RELATIVE times the largest entry of Q, A^T P and P b b^T P / r:
    scaling Q and r together scales P and the residual, but not the gain.
    """
    result = solve_riccati(plant.A, plant.B, spec.Q, spec.r)
    P, b = result.P, plant.B
    with np.errstate(over="ignore", invalid="ignore"):  # then the residual is not finite
        terms = max(np.abs(spec.Q).max(), np.abs(plant.A.T @ P).max(),
                    np.abs(np.outer(P @ b, b @ P)).max() / spec.r)
    bound = max(RESIDUAL_MAX, RESIDUAL_RELATIVE * terms)
    if not (np.isfinite(result.residual) and result.residual <= bound):
        raise NumericalError(f"Riccati residual {result.residual:.3e} exceeds {bound:.3g}")
    return result


def lqr_equivalent_polespec(result: LqrResult, omega0: float) -> dict[str, float]:
    """Damping ratio and natural frequency of the dominant complex pair.

    Dominance means the smallest |Re(lambda)| / |lambda| among complex pairs,
    i.e. the least-damped oscillatory mode. The frequency is reported both in
    rad/s and normalized by omega0.
    """
    eigs = result.closed_loop_eigs
    complex_eigs = eigs[np.abs(eigs.imag) > 1e-9 * np.abs(eigs)]
    if len(complex_eigs) == 0:
        raise NumericalError("closed-loop spectrum has no complex pair")
    lam = min(complex_eigs, key=lambda v: abs(v.real) / abs(v))
    omega_n = abs(lam)
    return {
        "zeta": float(-lam.real / omega_n),
        "omega_n": float(omega_n),
        "omega_ratio": float(omega_n / omega0),
    }
