"""Critical points of the weighted log-absolute master function.

On a fixed chamber, sum_H u_H log|f_H(z)| with all u_H > 0 is strictly
concave (each summand is concave, and the level functionals pin every
coordinate), so damped Newton ascent seeded at the chamber's witness
converges to the unique interior maximizer.  One critical point per bounded
chamber is found and certified: tiny gradient, negative definite Hessian
(via Cholesky of its negation), and the iterate never leaves the chamber.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement, Chamber, bounded_chambers_bijective, build_arrangement
from .errors import ConvergenceError, EngineConsistencyError


@dataclass(frozen=True)
class NewtonConfig:
    gradient_tol: float = 1e-10
    max_iterations: int = 200
    armijo_slope: float = 1e-4
    step_shrink: float = 0.5
    min_step: float = 1e-18


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
        return {
            "chamber_index": self.chamber_index,
            "signs": self.sign_string,
            "point": list(self.point),
            "gradient_inf_norm": self.gradient_inf_norm,
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
    if np.any(u <= 0):
        raise ValueError("weights must be strictly positive")
    return A, b, u


def default_weights(arr: Arrangement, seed=0):
    """Generic positive weights, uniform on [1/2, 2] with a fixed seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, len(arr.functionals))


def log_master(arr: Arrangement, weights, z):
    """sum_H u_H log|f_H(z)|; real on every chamber, same critical points."""
    A, b, u = _matrices(arr, weights)
    f = A @ np.asarray(z, dtype=float) + b
    if np.any(f == 0):
        raise ValueError("point lies on a hyperplane")
    return float(u @ np.log(np.abs(f)))


def gradient(arr: Arrangement, weights, z):
    """Component v: sum_i u_{v,i}/(z_v - i) + sum_{e=(v,w)} u_e/(z_v - z_w)."""
    A, b, u = _matrices(arr, weights)
    f = A @ np.asarray(z, dtype=float) + b
    if np.any(f == 0):
        raise ValueError("point lies on a hyperplane")
    return A.T @ (u / f)


def hessian(arr: Arrangement, weights, z):
    A, b, u = _matrices(arr, weights)
    f = A @ np.asarray(z, dtype=float) + b
    if np.any(f == 0):
        raise ValueError("point lies on a hyperplane")
    return -(A.T * (u / f**2)) @ A


def solve_chamber(arr: Arrangement, weights, chamber: Chamber, index=0, config=NewtonConfig()):
    """Damped Newton ascent seeded at the chamber's witness.

    Raises ValueError if the witness, rounded to floats, is not strictly
    inside the chamber's signs.
    """
    A, b, u = _matrices(arr, weights)
    signs = np.array(chamber.signs, dtype=float)

    def inside(z):
        return bool(np.all(signs * (A @ z + b) > 0))

    def value(z):
        return float(u @ np.log(np.abs(A @ z + b)))

    z = np.array([float(x) for x in chamber.witness])
    if not inside(z):
        raise ValueError(f"witness of chamber {chamber.sign_string} is not strictly inside it")
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        f = A @ z + b
        g = A.T @ (u / f)
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= config.gradient_tol:
            break
        H = -(A.T * (u / f**2)) @ A
        step = np.linalg.solve(-H, g)
        base = value(z)
        slope = float(g @ step)
        # Near the optimum the expected gain (about slope/2) sinks below the
        # rounding noise of the objective; value comparisons are then
        # meaningless, and undamped Newton converges quadratically anyway.
        value_test = slope > 1e-9 * (1.0 + abs(base))
        t = 1.0
        while True:
            trial = z + t * step
            if inside(trial) and (
                not value_test
                or value(trial) >= base + config.armijo_slope * t * slope
            ):
                break
            t *= config.step_shrink
            if t < config.min_step:
                raise ConvergenceError("line search stalled")
        z = z + t * step
    else:
        raise ConvergenceError(
            f"gradient norm {gnorm:.3e} above {config.gradient_tol} after "
            f"{config.max_iterations} iterations"
        )
    f = A @ z + b
    g = A.T @ (u / f)
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    H = -(A.T * (u / f**2)) @ A
    try:
        np.linalg.cholesky(-H)
        negdef = True
    except np.linalg.LinAlgError:  # pragma: no cover
        negdef = False
    if not inside(z):  # pragma: no cover - the line search only accepts inside points
        raise EngineConsistencyError("Newton iterate left its chamber")
    return CriticalPointReport(
        chamber_index=index,
        sign_string=chamber.sign_string,
        point=tuple(float(x) for x in z),
        gradient_inf_norm=gnorm,
        hessian_negative_definite=negdef,
        iterations=iterations,
        converged=gnorm <= config.gradient_tol and negdef,
    )


def _try_solve(arr, weights, chamber, index, config):
    try:
        return solve_chamber(arr, weights, chamber, index, config)
    except ConvergenceError:
        return CriticalPointReport(
            chamber_index=index,
            sign_string=chamber.sign_string,
            point=(),
            gradient_inf_norm=float("inf"),
            hessian_negative_definite=False,
            iterations=config.max_iterations,
            converged=False,
        )


def solve_all_chambers(arr: Arrangement, weights, chambers, config=NewtonConfig()):
    """Solve every chamber in order, collecting failures per chamber."""
    return [_try_solve(arr, weights, c, i, config) for i, c in enumerate(chambers)]


def critical_point_reports(graph, m, weights=None, seed=0, config=NewtonConfig()):
    """One report per bounded chamber, seeded at the chamber's witness."""
    arr = build_arrangement(graph, m)
    if weights is None:
        weights = default_weights(arr, seed)
    chambers = bounded_chambers_bijective(graph, m)
    return solve_all_chambers(arr, weights, chambers, config)


def count_critical_points(graph, m, weights=None, seed=0, config=NewtonConfig()):
    """Number of certified critical points, one per bounded chamber."""
    reports = critical_point_reports(graph, m, weights, seed, config)
    return sum(1 for r in reports if r.converged)
