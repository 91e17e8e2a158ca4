"""Critical points of the weighted log-absolute master function.

On a fixed chamber, sum_H u_H log|f_H(z)| with all u_H > 0 is strictly
concave (each summand is concave, and the level functionals pin every
coordinate), so damped Newton ascent from any point of the chamber
converges to the unique interior maximizer.  One critical point per bounded
chamber is found and certified: tiny gradient, negative definite Hessian
(via Cholesky of its negation), and the iterate never leaves the chamber.

The reflection z -> (m-2)*1 - z and the automorphisms of G map the
arrangement onto itself (`Arrangement.symmetries`, certified once per
arrangement and shared with the LP route).  The default weights
are equal on each orbit of functionals under the group they generate, so
the master function is invariant under it and the critical point of a
chamber's image is the image of its critical point.  Newton solves the
first chamber of each orbit from its witness and starts every other
chamber of the orbit at the image of that critical point; an image outside
its chamber raises EngineConsistencyError, as a symmetry that maps a
chamber's point out of its image is broken, and so does a witness outside
its chamber.  Every chamber is certified at its own final point all the
same.

Everything runs on the standard library.  Every functional is z_j - z_k + c
with z_n = 0 (`Arrangement.terms`), so one list of (j, k, c, weight) per
arrangement and weights, with the weights as floats, is the whole kernel;
gradient and -H come from one pass over it, and each Newton step solves
with a Cholesky factor of -H.
Newton runs the same value, gradient and Hessian kernels as `log_master`,
`gradient` and `hessian`.  Its constants: it stops once the gradient's
inf-norm is at most GRADIENT_TOL (1e-10, absolute: it does not scale with
the weights); the backtracking line search accepts a step inside the
chamber with Armijo slope ARMIJO_SLOPE (1e-4), shrinking by STEP_SHRINK
(1/2) and stalling below MIN_STEP (1e-18).  A stall, MAX_ITERATIONS (200)
steps or an -H that fails to factor raises ConvergenceError naming the
chamber, so every report returned is converged and certified.
"""

from __future__ import annotations

import math
import random
from operator import mul

from .arrangement import (
    Arrangement,
    Chamber,
    _orbit,
    bounded_chambers_bijective,
    build_arrangement,
)
from .errors import ConvergenceError, EngineConsistencyError
from .graphs import Value, _set, orbit_of


GRADIENT_TOL = 1e-10
MAX_ITERATIONS = 200
ARMIJO_SLOPE = 1e-4
STEP_SHRINK = 0.5
MIN_STEP = 1e-18


class CriticalPointReport(Value):
    """A converged, certified run (any other raises ConvergenceError): its
    JSON keys `hessian_negative_definite` and `converged` are always true."""

    __slots__ = ("chamber_index", "sign_string", "point", "gradient_inf_norm", "iterations")

    def __init__(self, chamber_index, sign_string, point, gradient_inf_norm, iterations):
        _set(self, "chamber_index", chamber_index)
        _set(self, "sign_string", sign_string)
        _set(self, "point", point)
        _set(self, "gradient_inf_norm", gradient_inf_norm)
        _set(self, "iterations", iterations)

    def to_json(self):
        return {
            "chamber_index": self.chamber_index,
            "signs": self.sign_string,
            "point": list(self.point),
            "gradient_inf_norm": self.gradient_inf_norm,
            "hessian_negative_definite": True,
            "iterations": self.iterations,
            "converged": True,
        }


def _kernel(arr: Arrangement, weights):
    """The terms, one (j, k, c, weight) per functional so that
    f = z[j] - z[k] + c (`arr.terms`, with z[n] = 0), and the weights as a
    list of floats."""
    u = [float(w) for w in weights]
    if len(u) != len(arr.terms):
        raise ValueError(f"expected {len(arr.terms)} weights, got {len(u)}")
    if not all(map(math.isfinite, u)):
        raise ValueError("weights must be finite")
    if any(w <= 0 for w in u):
        raise ValueError("weights must be strictly positive")
    return [(j, k, float(c), w) for (j, k, c), w in zip(arr.terms, u)], u


def default_weights(arr: Arrangement, seed=0):
    """Generic positive weights, uniform on [1/2, 2] with a fixed seed.

    One draw per orbit of functionals under the group of
    `Arrangement.symmetries` (the reflection z -> (m-2)*1 - z and the
    automorphisms of G), in the order of each orbit's first functional, so
    that the master function is invariant under the group; a critical
    point is unique per chamber for any positive weights.  A negative seed
    is refused: `random.Random` would take its absolute value and give -s
    the weights of s.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    index_maps = [g.index for g in arr.symmetries]
    rng = random.Random(seed)
    weights = [None] * len(arr.terms)
    for first in range(len(weights)):
        if weights[first] is None:
            w = rng.uniform(0.5, 2.0)
            for i in orbit_of(first, index_maps):
                weights[i] = w
    return weights


def _values(terms, z):
    """The functional values at the padded point z (z[n] = 0)."""
    return [z[j] - z[k] + c for j, k, c, _ in terms]


def _objective(u, absf):
    """sum_H u_H log|f_H| from the weights and the values' absolute values."""
    return sum(map(mul, u, map(math.log, absf)))


def _derivatives(terms, n, f):
    """Gradient and -H (lists) at the functional values f."""
    g = [0.0] * n
    p = [[0.0] * n for _ in range(n)]
    for (j, k, _, w), x in zip(terms, f):
        r = w / x
        q = r / x
        g[j] += r
        pj = p[j]
        pj[j] += q
        if k < n:  # an edge functional; a level one has k = n
            g[k] -= r
            pk = p[k]
            pk[k] += q
            pj[k] -= q
            pk[j] -= q
    return g, p


def _cholesky(a):
    """Lower factor L of a (L L^T = a), rows as lists, read from a's lower triangle.

    None unless a is positive definite: a pivot that is not strictly
    positive (zero, negative or NaN) rejects it.  Plain loops beat sum(map())
    on the short rows of n <= 6.
    """
    factor = []
    for i, ai in enumerate(a):
        row = []
        for j, lj in enumerate(factor):
            s = ai[j]
            for k in range(j):
                s -= row[k] * lj[k]
            row.append(s / lj[j])
        d = ai[i]
        for x in row:
            d -= x * x
        if not d > 0:
            return None
        row.append(math.sqrt(d))
        factor.append(row)
    return factor


def _newton_step(factor, g):
    """The step x solving L L^T x = g for the Cholesky factor L, padded by the
    pinned coordinate, and the slope g.x, which equals y.y where L y = g."""
    n = len(factor)
    y = []
    for i, row in enumerate(factor):
        s = g[i]
        for k, yk in enumerate(y):
            s -= row[k] * yk
        y.append(s / row[i])
    x = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, n):
            s -= factor[k][i] * x[k]
        x[i] = s / factor[i][i]
    return x, sum(map(mul, y, y))


def _values_at(arr, terms, z):
    """The functional values at a caller's point z; ValueError for a point of
    the wrong dimension or on a hyperplane."""
    z = [float(x) for x in z]
    if len(z) != arr.dimension:
        raise ValueError(f"expected a point with {arr.dimension} coordinates, got {len(z)}")
    f = _values(terms, z + [0.0])
    if 0.0 in f:
        raise ValueError("point lies on a hyperplane")
    return f


def log_master(arr: Arrangement, weights, z):
    """sum_H u_H log|f_H(z)|; real on every chamber, same critical points."""
    terms, u = _kernel(arr, weights)
    return _objective(u, map(abs, _values_at(arr, terms, z)))


def gradient(arr: Arrangement, weights, z):
    """Component v: sum_i u_{v,i}/(z_v - i) + sum_{e=(v,w)} u_e/(z_v - z_w)."""
    terms, _ = _kernel(arr, weights)
    g, _ = _derivatives(terms, arr.dimension, _values_at(arr, terms, z))
    return g


def hessian(arr: Arrangement, weights, z):
    """-sum_H u_H a_H a_H^T / f_H(z)^2, as a list of rows."""
    terms, _ = _kernel(arr, weights)
    _, p = _derivatives(terms, arr.dimension, _values_at(arr, terms, z))
    return [[-x for x in row] for row in p]


def solve_chamber(arr: Arrangement, weights, chamber: Chamber, index=0, kernel=None, start=None):
    """Damped Newton ascent from `start`, if given, and from the chamber's
    witness otherwise.

    Each step solves -H step = g with the Cholesky factor of -H; the factor
    at the last iterate is the negative-definite certificate.  A factor that
    fails at any iterate, a stalled line search or MAX_ITERATIONS steps
    raise ConvergenceError, led by "chamber <signs>:".  `kernel`, if given,
    is `_kernel(arr, weights)`, built once by the caller.

    Raises EngineConsistencyError, led by "chamber <signs>:", if the start
    point, `start` or the witness rounded to floats, is not strictly inside
    the chamber's signs.
    """
    terms, u = _kernel(arr, weights) if kernel is None else kernel
    n = arr.dimension
    signs, name = chamber.signs, chamber.sign_string
    if start is None:
        z = [x / chamber.d for x in chamber.nums] + [0.0]  # x / d rounds as float(Fraction(x, d)) does
    else:
        z = list(start) + [0.0]
    f = _values(terms, z)
    sf = list(map(mul, signs, f))  # |f|, positive inside the chamber
    if min(sf) <= 0:
        what = "witness" if start is None else "mapped start"
        raise EngineConsistencyError(f"chamber {name}: {what} lies outside it")
    value = None  # the objective at z, once the line search has computed it
    for iterations in range(1, MAX_ITERATIONS + 1):
        g, p = _derivatives(terms, n, f)
        factor = _cholesky(p)
        if factor is None:
            raise ConvergenceError(f"chamber {name}: Hessian not negative definite at iteration {iterations}")
        gnorm = max(map(abs, g))
        if gnorm <= GRADIENT_TOL:
            break
        step, slope = _newton_step(factor, g)
        base = _objective(u, sf) if value is None else value
        # Near the optimum the expected gain (about slope/2) sinks below the
        # rounding noise of the objective; value comparisons are then
        # meaningless, and undamped Newton converges quadratically anyway.
        value_test = slope > 1e-9 * (1.0 + abs(base))
        t = 1.0
        while True:
            trial = [a + t * b for a, b in zip(z, step)]
            f = _values(terms, trial)
            sf = list(map(mul, signs, f))
            value = None
            if min(sf) > 0:
                if not value_test:
                    break
                value = _objective(u, sf)
                if value >= base + ARMIJO_SLOPE * t * slope:
                    break
            t *= STEP_SHRINK
            if t < MIN_STEP:
                raise ConvergenceError(f"chamber {name}: line search stalled")
        z = trial  # f is already the values at z for the accepted step
    else:
        raise ConvergenceError(
            f"chamber {name}: gradient norm {gnorm:.3e} above {GRADIENT_TOL} after {MAX_ITERATIONS} iterations"
        )
    if min(sf) <= 0:  # pragma: no cover - the line search only accepts inside points
        raise EngineConsistencyError("Newton iterate left its chamber")
    return CriticalPointReport(
        chamber_index=index,
        sign_string=name,
        point=tuple(z[:n]),
        gradient_inf_norm=gnorm,
        iterations=iterations,
    )


def solve_all_chambers(arr: Arrangement, weights, chambers):
    """Solve every chamber in order; the first that fails raises ConvergenceError.

    The first chamber of each orbit under `Arrangement.symmetries` is
    solved from its witness; once it has converged at z*, every other
    chamber of its orbit starts at the image of z* under the symmetry
    mapping it there, which must lie strictly inside it (else
    EngineConsistencyError).  Under the default weights that start is the
    chamber's own critical point up to rounding: on the paw at m=4, 18 of
    the 72 chambers are solved in full and the 54 others take one iteration
    each.  Under other weights it is only a start point.
    """
    kernel = _kernel(arr, weights)
    starts = {}  # signs -> image of a critical point of the chamber's orbit
    reports = []
    for i, chamber in enumerate(chambers):
        start = starts.get(chamber.signs)
        reports.append(solve_chamber(arr, weights, chamber, i, kernel, start))
        if start is None:
            starts.update(_orbit(arr.symmetries, chamber.signs, reports[-1].point, lambda g, z: g.point(z)))
    return reports


def critical_point_reports(graph, m, seed=0):
    """One report per bounded chamber, under `default_weights(arr, seed)`."""
    arr = build_arrangement(graph, m)
    chambers = bounded_chambers_bijective(arr)
    return solve_all_chambers(arr, default_weights(arr, seed), chambers)
