"""Directed-graph analogues of the chromatic polynomial, by two routes.

For a digraph the in- and out-variants of the intersection number vary
polynomially in the number of extra markings; the monic degree-|V| integer
polynomials behind them are computed by

* the closed product formula over in/out-degrees (acyclic digraphs only), and
* the engine's coefficient table (`moduli.omega_coefficients`), one call
  per mode, rewritten from falling factorials in m to powers of x,

and cross-checked against each other on acyclic digraphs.  The two share no
code.  Reversing all arcs swaps the two polynomials.
"""

from __future__ import annotations

from .graphs import Digraph, IntPolynomial, Value, _set
from .moduli import DEFAULT_TERM_CAP, omega_coefficients


def _check_mode(mode):
    if mode not in ("in", "out"):
        raise ValueError(f"mode must be 'in' or 'out', got {mode!r}")


def chi_acyclic(graph: Digraph, mode) -> IntPolynomial:
    """Product of (x - indeg(v)) or (x - outdeg(v)); valid only without directed cycles."""
    _check_mode(mode)
    if not graph.is_acyclic():
        raise ValueError("closed product formula requires an acyclic digraph")
    degree = graph.in_degree if mode == "in" else graph.out_degree
    out = IntPolynomial((1,))
    for v in graph.vertices:
        out = out * IntPolynomial((-degree(v), 1))
    return out


def chi_engine(graph: Digraph, mode, term_cap=DEFAULT_TERM_CAP) -> IntPolynomial:
    """The polynomial from one engine table c_0..c_n.

    The engine value at m is sum of c_j (m-2)(m-3)...(m-1-j) and equals
    (-1)^n times the polynomial at -(m-2), so the polynomial is
    (-1)^n sum of c_j (-x)(-x-1)...(-x-j+1).  The c_j are integers and
    c_n = 1, so it is monic of degree n with integer coefficients.
    """
    _check_mode(mode)
    out = IntPolynomial(())
    falling = IntPolynomial((1,))
    for j, c in enumerate(omega_coefficients(graph, mode, term_cap)):
        out = out + falling * c
        falling = falling * IntPolynomial((-j, -1))
    return out * (-1) ** graph.n


def advisory_flags(poly: IntPolynomial, name="chi"):
    """Warnings for conjectural properties: nonnegativity on small nonnegative
    integers, sign-alternating coefficients, log-concave coefficient magnitudes.

    These are open questions, so violations warn and never fail anything.
    """
    warnings = []
    deg = poly.degree
    for x in range(0, deg + 2):
        if poly.evaluate(x) < 0:
            warnings.append(f"{name}: negative value {poly.evaluate(x)} at x={x}")
    for d, c in enumerate(poly.coefficients):
        if c == 0:
            continue
        expected = (-1) ** (deg - d)
        if (c > 0) != (expected > 0):
            warnings.append(f"{name}: coefficient of x^{d} breaks sign alternation")
            break
    mags = [abs(c) for c in poly.coefficients]
    for d in range(1, len(mags) - 1):
        if mags[d] ** 2 < mags[d - 1] * mags[d + 1]:
            warnings.append(f"{name}: |coefficients| not log-concave at x^{d}")
            break
    return warnings


class DigraphPolynomialReport(Value):
    __slots__ = ("chi_in", "chi_out", "route_in", "route_out", "consistent", "advisories")

    def __init__(self, chi_in, chi_out, route_in, route_out, consistent, advisories=()):
        _set(self, "chi_in", chi_in)
        _set(self, "chi_out", chi_out)
        _set(self, "route_in", route_in)
        _set(self, "route_out", route_out)
        _set(self, "consistent", consistent)
        _set(self, "advisories", advisories)

    def to_json(self):
        return {
            "chi_in": list(self.chi_in.coefficients),
            "chi_out": list(self.chi_out.coefficients),
            "route_in": self.route_in,
            "route_out": self.route_out,
            "consistent": self.consistent,
            "advisories": list(self.advisories),
        }


def chi_checked(graph: Digraph, mode, term_cap=DEFAULT_TERM_CAP):
    """(polynomial, route, consistent) for one mode.

    The engine's table always runs; on an acyclic digraph the closed formula
    must agree with it, and the closed formula is returned.
    """
    engine = chi_engine(graph, mode, term_cap)
    if not graph.is_acyclic():
        return engine, "engine", True
    closed = chi_acyclic(graph, mode)
    return closed, "acyclic-formula", closed == engine


def digraph_polynomial_report(graph: Digraph, term_cap=DEFAULT_TERM_CAP):
    """Both polynomials from the engine; on acyclic digraphs also cross-check the closed formula."""
    chi_in, route_in, ok_in = chi_checked(graph, "in", term_cap)
    chi_out, route_out, ok_out = chi_checked(graph, "out", term_cap)
    return DigraphPolynomialReport(
        chi_in=chi_in,
        chi_out=chi_out,
        route_in=route_in,
        route_out=route_out,
        consistent=ok_in and ok_out,
        advisories=tuple(advisory_flags(chi_in, "chi_in") + advisory_flags(chi_out, "chi_out")),
    )
