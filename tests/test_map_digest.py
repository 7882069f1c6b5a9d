"""tools/map_digest.py runs end to end on the toy workloads and prints the same text twice."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "map_digest.py"


def toy_digest(workload, seed):
    """Run the tool twice on one toy workload and check its layout; return its per-arm digests."""
    cmd = [sys.executable, str(TOOL), "--workload", workload, "--seed", str(seed), "--toy"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert re.fullmatch(f"workload {workload} seed {seed} toy systems [0-9]+", lines[0])
    # one digest of the built sequence's matrices, right-hand side and shifts
    assert re.fullmatch("spec [0-9a-f]{64}", lines[1])
    maps, factors, solves, totals = {}, {}, {}, {}
    for line in lines[2:]:
        arm, kind, key, *rest = line.split()
        if kind == "map":
            assert int(key) == maps.get(arm, 0) and re.fullmatch("[0-9a-f]{64}", rest[0])
            maps[arm] = int(key) + 1
        elif kind == "factors":
            # one digest of all the arm's factorizations, before its solves
            assert arm not in factors and arm not in solves and not rest
            assert re.fullmatch("[0-9a-f]{64}", key)
            factors[arm] = key
        elif kind == "solves":
            # one digest of all the arm's solves, before its iteration total
            assert arm in factors and arm not in solves and arm not in totals and not rest
            assert re.fullmatch("[0-9a-f]{64}", key)
            solves[arm] = key
        else:
            assert kind == "iterations" and not rest and int(key) > 0 and arm in solves
            totals[arm] = int(key)
    assert list(totals) == list(solves) == list(factors) == ["recompute", "reuse", "map", "refresh", "map2"]
    # map and map2 differ only in the map's thread count, which changes no bit
    assert solves["map"] == solves["map2"]
    return lines[0], maps, factors, solves


def test_map_digest_toy_run_is_complete_and_repeatable():
    header, maps, factors, solves = toy_digest("helmholtz-sweep", 1)
    assert header == "workload helmholtz-sweep seed 1 toy systems 7"
    # one line per map: every system but 0 maps in map and map2, and refresh
    # maps every system but 0 and 4, which it factors
    assert maps == {"map": 6, "refresh": 5, "map2": 6}
    # the arms solve with other preconditioners, so their digests differ
    assert len({solves[a] for a in ("recompute", "reuse", "map", "refresh")}) == 4
    # reuse, map and map2 factor only system 0; recompute factors every system
    # and refresh systems 0 and 4
    assert factors["reuse"] == factors["map"] == factors["map2"]
    assert len({factors[a] for a in ("recompute", "reuse", "refresh")}) == 3


def test_map_digest_complex_toy_run_is_complete_and_repeatable():
    # the complex path: a Talbot-shifted FEM pair, with seed 1's conductivity and right-hand side
    header, maps, factors, solves = toy_digest("talbot-fem32", 1)
    assert header == "workload talbot-fem32 seed 1 toy systems 4"
    # four systems: every arm but recompute factors only system 0, and
    # refresh, whose next factor would be system 4, maps as map does
    assert maps == {"map": 3, "refresh": 3, "map2": 3}
    assert factors["reuse"] == factors["map"] == factors["refresh"] == factors["map2"] != factors["recompute"]
    assert solves["refresh"] == solves["map"]
    assert len({solves[a] for a in ("recompute", "reuse", "map")}) == 3
