"""Critical points of the weighted log-absolute master function.

On a fixed chamber, sum_H u_H log|f_H(z)| with all u_H > 0 is strictly
concave (each summand is concave, and the level functionals pin every
coordinate), so damped Newton ascent seeded at the chamber's witness
converges to the unique interior maximizer.  One critical point per bounded
chamber is found and certified: tiny gradient, negative definite Hessian
(via Cholesky of its negation), and the iterate never leaves the chamber.

Newton runs the same value, gradient and Hessian kernels as `log_master`,
`gradient` and `hessian`.  Its constants: it stops once the gradient's
inf-norm is at most GRADIENT_TOL (1e-10) and raises ConvergenceError after
MAX_ITERATIONS (200) steps; the backtracking line search accepts a step
inside the chamber with Armijo slope ARMIJO_SLOPE (1e-4), shrinking by
STEP_SHRINK (1/2) and stalling below MIN_STEP (1e-18).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement, Chamber, bounded_chambers_bijective, build_arrangement
from .errors import ConvergenceError, EngineConsistencyError


GRADIENT_TOL = 1e-10
MAX_ITERATIONS = 200
ARMIJO_SLOPE = 1e-4
STEP_SHRINK = 0.5
MIN_STEP = 1e-18


@dataclass(frozen=True)
class CriticalPointReport:
    chamber_index: int
    sign_string: str
    point: tuple
    gradient_inf_norm: float
    hessian_negative_definite: bool
    iterations: int
    converged: bool

    def to_json(self):
        """JSON fields; a failed run's infinite gradient norm becomes null."""
        gnorm = self.gradient_inf_norm
        return {
            "chamber_index": self.chamber_index,
            "signs": self.sign_string,
            "point": list(self.point),
            "gradient_inf_norm": gnorm if math.isfinite(gnorm) else None,
            "hessian_negative_definite": self.hessian_negative_definite,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _matrices(arr: Arrangement, weights):
    A = np.array([[float(a) for a in f.coefficients] for f in arr.functionals])
    b = np.array([float(f.constant) for f in arr.functionals])
    u = np.asarray(weights, dtype=float)
    if u.shape != (len(arr.functionals),):
        raise ValueError(f"expected {len(arr.functionals)} weights, got {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("weights must be finite")
    if np.any(u <= 0):
        raise ValueError("weights must be strictly positive")
    return A, b, u


def default_weights(arr: Arrangement, seed=0):
    """Generic positive weights, uniform on [1/2, 2] with a fixed seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, len(arr.functionals))


def _affine(A, b, z):
    """f = A z + b, the functional values at z; ValueError on a hyperplane."""
    f = A @ np.asarray(z, dtype=float) + b
    if np.any(f == 0):
        raise ValueError("point lies on a hyperplane")
    return f


def _value(u, f):
    return float(u @ np.log(np.abs(f)))


def _gradient(A, u, f):
    return A.T @ (u / f)


def _hessian(A, u, f):
    return -(A.T * (u / f**2)) @ A


def log_master(arr: Arrangement, weights, z):
    """sum_H u_H log|f_H(z)|; real on every chamber, same critical points."""
    A, b, u = _matrices(arr, weights)
    return _value(u, _affine(A, b, z))


def gradient(arr: Arrangement, weights, z):
    """Component v: sum_i u_{v,i}/(z_v - i) + sum_{e=(v,w)} u_e/(z_v - z_w)."""
    A, b, u = _matrices(arr, weights)
    return _gradient(A, u, _affine(A, b, z))


def hessian(arr: Arrangement, weights, z):
    A, b, u = _matrices(arr, weights)
    return _hessian(A, u, _affine(A, b, z))


def solve_chamber(arr: Arrangement, weights, chamber: Chamber, index=0):
    """Damped Newton ascent seeded at the chamber's witness.

    Raises ValueError if the witness, rounded to floats, is not strictly
    inside the chamber's signs.
    """
    A, b, u = _matrices(arr, weights)
    signs = np.array(chamber.signs, dtype=float)
    z = np.array([float(x) for x in chamber.witness])
    f = A @ z + b
    if not np.all(signs * f > 0):
        raise ValueError(f"witness of chamber {chamber.sign_string} is not strictly inside it")
    for iterations in range(1, MAX_ITERATIONS + 1):
        g = _gradient(A, u, f)
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= GRADIENT_TOL:
            break
        step = np.linalg.solve(-_hessian(A, u, f), g)
        base = _value(u, f)
        slope = float(g @ step)
        # Near the optimum the expected gain (about slope/2) sinks below the
        # rounding noise of the objective; value comparisons are then
        # meaningless, and undamped Newton converges quadratically anyway.
        value_test = slope > 1e-9 * (1.0 + abs(base))
        t = 1.0
        while True:
            trial = z + t * step
            f = A @ trial + b
            if np.all(signs * f > 0) and (
                not value_test or _value(u, f) >= base + ARMIJO_SLOPE * t * slope
            ):
                break
            t *= STEP_SHRINK
            if t < MIN_STEP:
                raise ConvergenceError("line search stalled")
        z = trial  # f is already A z + b for the accepted step
    else:
        raise ConvergenceError(
            f"gradient norm {gnorm:.3e} above {GRADIENT_TOL} after {MAX_ITERATIONS} iterations"
        )
    try:
        np.linalg.cholesky(-_hessian(A, u, f))
        negdef = True
    except np.linalg.LinAlgError:  # pragma: no cover
        negdef = False
    if not np.all(signs * f > 0):  # pragma: no cover - the line search only accepts inside points
        raise EngineConsistencyError("Newton iterate left its chamber")
    return CriticalPointReport(
        chamber_index=index,
        sign_string=chamber.sign_string,
        point=tuple(float(x) for x in z),
        gradient_inf_norm=gnorm,
        hessian_negative_definite=negdef,
        iterations=iterations,
        converged=gnorm <= GRADIENT_TOL and negdef,
    )


def _try_solve(arr, weights, chamber, index):
    try:
        return solve_chamber(arr, weights, chamber, index)
    except ConvergenceError:
        return CriticalPointReport(
            chamber_index=index,
            sign_string=chamber.sign_string,
            point=(),
            gradient_inf_norm=float("inf"),
            hessian_negative_definite=False,
            iterations=MAX_ITERATIONS,
            converged=False,
        )


def solve_all_chambers(arr: Arrangement, weights, chambers):
    """Solve every chamber in order, collecting failures per chamber."""
    return [_try_solve(arr, weights, c, i) for i, c in enumerate(chambers)]


def critical_point_reports(graph, m, seed=0):
    """One report per bounded chamber, seeded at the chamber's witness."""
    arr = build_arrangement(graph, m)
    chambers = bounded_chambers_bijective(arr)
    return solve_all_chambers(arr, default_weights(arr, seed), chambers)
