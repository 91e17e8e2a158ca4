#!/usr/bin/env python3
"""Survey the in/out polynomials over all labeled digraphs on three vertices.

For each of the 64 digraphs this computes both polynomials (closed formula
where acyclic, the engine's table always), checks route agreement and the
arc-reversal swap, and tallies how often the conjectural properties
(nonnegativity on small integers, alternating signs, log-concavity) fail.
Failures of those properties are observations, not errors.
"""

import itertools
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chromoduli.digraph_poly import digraph_polynomial_report  # noqa: E402
from chromoduli.graphs import Digraph  # noqa: E402


def all_three_vertex_digraphs():
    pairs = list(itertools.permutations(range(3), 2))
    for mask in range(2 ** len(pairs)):
        arcs = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        yield Digraph.of(range(3), arcs)


# The kinds of `digraph_poly.advisory_flags` warnings, each by a phrase that
# names it whatever value or degree the warning quotes.
ADVISORY_KINDS = ("negative value", "breaks sign alternation", "not log-concave")


def advisory_kind(warning):
    """The kind of an advisory warning: "chi_in: negative value -2 at x=1" is "negative value"."""
    for kind in ADVISORY_KINDS:
        if kind in warning:
            return kind
    raise ValueError(f"unknown advisory: {warning}")


def main():
    tallies = Counter()
    seen = set()
    reports = {d: digraph_polynomial_report(d) for d in all_three_vertex_digraphs()}
    for d, report in reports.items():
        if not report.consistent:
            failure = "routes disagree"
        elif reports[d.reverse()].chi_in != report.chi_out:
            failure = "reversal does not swap chi_in and chi_out"
        else:
            failure = None
        if failure is not None:
            print(f"error: arcs={list(d.arcs)}: {failure}", file=sys.stderr)
            return 1
        tallies["digraphs"] += 1
        tallies["acyclic"] += d.is_acyclic()
        for warning in report.advisories:
            tallies[advisory_kind(warning)] += 1
        seen.add((report.chi_in.coefficients, report.chi_out.coefficients))
        print(
            f"arcs={list(d.arcs)!s:36s} chi_in={list(report.chi_in.coefficients)} "
            f"chi_out={list(report.chi_out.coefficients)} "
            f"route={report.route_in} warnings={len(report.advisories)}"
        )
    print("\nsummary")
    for key, count in sorted(tallies.items()):
        print(f"  {key}: {count}")
    print(f"  distinct polynomial pairs: {len(seen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
