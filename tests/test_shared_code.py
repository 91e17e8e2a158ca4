import itertools
import json
import sys

import pytest

from chromoduli import arrangement, cli, critical, graphs, orientations

from graph_catalog import paw_graph

# Reading the graph and the arrangement, which every route may share.
INPUTS = {"graphs.SimpleGraph.n", "arrangement.Arrangement.dimension"}

# The other package functions that two routes of `cli.simple_routes(paw, 4)`
# may both call, per pair, as measured when this list was written.  A change
# that makes two routes share more code fails here until it adds the
# functions to this list and says why in CHANGES.md.
SHARED = {
    ("chromatic", "chambers_lp"): {"graphs._refined_colors"},
    ("chromatic", "critical_points"): {"graphs._refined_colors"},
    ("chambers_bijective", "chambers_lp"): {"arrangement._signs_at", "arrangement.Chamber.__init__"},
    # the certified symmetry group, built and walked, and nothing else
    ("chambers_lp", "critical_points"): {
        "arrangement.Arrangement.symmetries",
        "arrangement._symmetries",
        "arrangement._Symmetry.__init__",
        "arrangement._Symmetry.point",
        "arrangement._Symmetry.signs",
        "arrangement._orbit",
        "graphs.automorphism_generators",
        "graphs._refined_colors",
        "graphs._extend",
        "graphs.orbit_of",
    },
}


def _calls(key):
    """The package functions that route `key` of a fresh paw table at m=4 calls.

    A nested function counts as the function it is defined in.  The table
    is built before the profile starts, and its own closures are left out.
    The bijective chambers count as Newton's input, not its code: their
    building is left out of every route but their own.  A fresh table has
    not built its symmetries yet, so the LP and Newton routes each count
    the calls that build them.
    """
    route = cli.simple_routes(paw_graph(), 4)[key]
    calls, skipping = set(), None  # the frame that builds Newton's bijective chambers

    def profile(frame, event, arg):
        nonlocal skipping
        module = frame.f_globals.get("__name__", "")
        if skipping is not None:
            if event == "return" and frame is skipping:
                skipping = None
        elif event == "call" and module.startswith("chromoduli."):
            name = frame.f_code.co_qualname.split(".<locals>")[0]
            if name != "simple_routes":
                calls.add(f"{module.rpartition('.')[2]}.{name}")
            elif frame.f_code.co_name == "bijective" and key != "chambers_bijective":
                skipping = frame

    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_routes_share_only_the_listed_code():
    calls = {key: _calls(key) for key in cli.simple_routes(paw_graph(), 4)}
    for a, b in itertools.combinations(calls, 2):
        assert (calls[a] & calls[b]) - INPUTS <= SHARED.get((a, b), set()), (a, b)
    # the profile sees the group the LP search and Newton both walk
    assert {"arrangement._orbit", "arrangement._Symmetry.point"} <= calls["chambers_lp"] & calls["critical_points"]
    assert "arrangement.bounded_chambers_bijective" not in calls["critical_points"]


def test_a_lost_orientation_moves_stanley_alone(tmp_path, monkeypatch, capsys):
    # `acyclic_orientations` is Stanley's alone: drop its last orientation
    # and verify fails on Stanley's count while every other route, the
    # bijective chambers and Newton on them included, still reads chromatic
    real = orientations.acyclic_orientations
    monkeypatch.setattr(orientations, "acyclic_orientations", lambda *args: real(*args)[:-1])
    k4 = tmp_path / "K4.txt"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    code = cli.main(["verify", "--graph", str(cli.DATA_DIR / "paw.txt"), "--graph", str(k4), "--m", "3,4"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == cli.EXIT_DISAGREE and len(rows) == 4
    for row in rows:
        values = row["values"]
        assert row["agree"] is False and row["skipped"] == [] and "failed" not in row
        assert values["stanley"] < values["chromatic"]
        assert {key for key, value in values.items() if value != values["chromatic"]} == {"stanley"}


def _faults():
    """One wrong variant of each function that the LP and Newton routes share,
    as the (owner, attribute, value) patches that put it in place; a
    function imported by name is patched where it is read as well."""
    symmetries, init, signs, orbit = (
        arrangement._symmetries,
        arrangement._Symmetry.__init__,
        arrangement._Symmetry.signs,
        arrangement._orbit,
    )

    def identity_mirror(arr):  # the mirror's functionals map to themselves
        r, *rest = symmetries(arr)
        return (arrangement._Symmetry(r.perm, r.scale, r.offset, tuple(range(len(arr.terms))), r.sign), *rest)

    def shifted(self, perm, scale, offset, index, sign):  # the mirror reflects about (m-1)/2
        init(self, perm, scale, offset + 1 if scale < 0 else offset, index, sign)

    def flipped(g, s):  # the image's first sign is wrong
        t = signs(g, s)
        return (-t[0],) + t[1:]

    def first_generator(gs, s, item, move):  # every image is moved by the first map
        return orbit(gs, s, item, lambda g, x: move(gs[0], x))

    reversal = lambda n: tuple(range(n))[::-1]  # not an automorphism of the paw
    return {
        "arrangement.Arrangement.symmetries": [
            (arrangement.Arrangement, "symmetries", property(lambda arr: symmetries(arr)[1:]))
        ],
        "arrangement._symmetries": [(arrangement, "_symmetries", identity_mirror)],
        "arrangement._Symmetry.__init__": [(arrangement._Symmetry, "__init__", shifted)],
        "arrangement._Symmetry.point": [(arrangement._Symmetry, "point", lambda g, z, d=1: list(z))],
        "arrangement._Symmetry.signs": [(arrangement._Symmetry, "signs", flipped)],
        "arrangement._orbit": [(arrangement, "_orbit", first_generator), (critical, "_orbit", first_generator)],
        "graphs.automorphism_generators": [(arrangement, "automorphism_generators", lambda g: [reversal(g.n)])],
        "graphs._refined_colors": [(graphs, "_refined_colors", lambda g: [0] * g.n)],
        "graphs._extend": [(graphs, "_extend", lambda adj, color, image, target: reversal(len(adj)))],
        "graphs.orbit_of": [(module, "orbit_of", lambda point, generators: {point}) for module in (graphs, critical)],
    }


# The faults that only cost work: one colour for every vertex widens the
# automorphism search, whose maps are checked edge by edge all the same,
# and orbits of one point leave the generators redundant and the Newton
# weights one per functional.  Every other fault fails the LP route, Newton
# or both.
HARMLESS = {"graphs._refined_colors", "graphs.orbit_of"}

# (-1)^n chi(-(m-2)) with chi(x) = x(x-1)^2(x-2) for the paw and x(x-1)(x-2)(x-3) for K4
EXPECTED = {("paw.txt", 3): 12, ("paw.txt", 4): 72, ("K4.txt", 3): 24, ("K4.txt", 4): 120}


def test_every_function_lp_and_newton_share_has_a_fault():
    assert set(_faults()) == SHARED[("chambers_lp", "critical_points")]


@pytest.mark.parametrize("name", sorted(SHARED[("chambers_lp", "critical_points")]))
def test_a_fault_in_the_shared_group_never_passes_a_wrong_value(name, tmp_path, monkeypatch, capsys):
    k4 = tmp_path / "K4.txt"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    for owner, attribute, value in _faults()[name]:
        monkeypatch.setattr(owner, attribute, value)
    code = cli.main(["verify", "--graph", str(cli.DATA_DIR / "paw.txt"), "--graph", str(k4), "--m", "3,4"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["graph"], row["m"]) for row in rows] == list(EXPECTED)
    for row in rows:
        # a fault may fail the routes that share the group, but moves no value
        assert set(row["values"].values()) == {EXPECTED[row["graph"], row["m"]]}
        assert set(row.get("failed", ())) <= {"chambers_lp", "critical_points"} and row["skipped"] == []
    assert code == (cli.EXIT_OK if name in HARMLESS else cli.EXIT_DISAGREE)


def _chamber_faults():
    """One wrong variant of each function that the two chamber routes share,
    as the (owner, attribute, value) patch that puts it in place."""
    signs_at, init = arrangement._signs_at, arrangement.Chamber.__init__

    def flipped(arr, nums, d):  # the last functional's sign is wrong
        signs = signs_at(arr, nums, d)
        return signs[:-1] + (-signs[-1],)

    def halved(self, signs, nums, d):  # every witness is read at half its value
        init(self, signs, nums, 2 * d)

    return {
        "arrangement._signs_at": (arrangement, "_signs_at", flipped),
        "arrangement.Chamber.__init__": (arrangement.Chamber, "__init__", halved),
    }


@pytest.mark.parametrize("name", sorted(SHARED[("chambers_bijective", "chambers_lp")]))
def test_a_fault_in_the_shared_chamber_code_never_passes_a_wrong_value(name, tmp_path, monkeypatch, capsys):
    # a wrong substitution or witness fails the certificates downstream of
    # the bijective chambers, the LP route's and Newton's, as a failed route
    # of a printed row: never as a moved value or a usage error.  A halved
    # witness stays inside its chamber at m=3, where every chamber lies in
    # the one cube (0, 1)^n, so only the m=4 rows must fail.
    k4 = tmp_path / "K4.txt"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    monkeypatch.setattr(*_chamber_faults()[name])
    code = cli.main(["verify", "--graph", str(cli.DATA_DIR / "paw.txt"), "--graph", str(k4), "--m", "3,4"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == cli.EXIT_DISAGREE
    assert [(row["graph"], row["m"]) for row in rows] == list(EXPECTED)
    for row in rows:
        assert set(row["values"].values()) == {EXPECTED[row["graph"], row["m"]]}
        assert set(row.get("failed", ())) <= {"chambers_lp", "critical_points"} and row["skipped"] == []
    assert all(row.get("failed") for row in rows if row["m"] == 4)
