import itertools
import json
import sys

import pytest

from chromoduli import cli, orientations

from graph_catalog import paw_graph

# Reading the graph and the arrangement, which every route may share.
INPUTS = {"graphs.SimpleGraph.n", "graphs.label_sort_key", "arrangement.Arrangement.dimension"}

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
