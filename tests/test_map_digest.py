"""tools/map_digest.py runs end to end on a toy workload and prints the same text twice."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "map_digest.py"


def test_map_digest_toy_run_is_complete_and_repeatable():
    cmd = [sys.executable, str(TOOL), "--workload", "helmholtz-sweep", "--seed", "1", "--toy"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert lines[0] == "workload helmholtz-sweep seed 1 toy systems 7"
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
    # one line per map: every system but 0 maps in map and map2, and refresh
    # maps every system but 0 and 4, which it factors
    assert list(totals) == list(solves) == list(factors) == ["recompute", "reuse", "map", "refresh", "map2"]
    assert maps == {"map": 6, "refresh": 5, "map2": 6}
    # the arms solve with other preconditioners, so their digests differ;
    # map and map2 differ only in the map's thread count, which changes no bit
    assert solves["map"] == solves["map2"]
    assert len({solves[a] for a in ("recompute", "reuse", "map", "refresh")}) == 4
    # reuse, map and map2 factor only system 0; recompute factors every system
    # and refresh systems 0 and 4
    assert factors["reuse"] == factors["map"] == factors["map2"]
    assert len({factors[a] for a in ("recompute", "reuse", "refresh")}) == 3
