"""Cold-start probe, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py <repo root> <workload> <repr of op input>

Times ``import coulombw`` and then the workload's first op, and prints
one JSON line with both, raw and scaled to the reference machine speed
(speed.py, measured after the op because its unit imports mpmath).  The
input arrives as a literal made by the parent, so nothing beyond the
stdlib and this directory's stdlib-only modules is loaded before the clock
starts.
"""

import ast
import json
import os
import sys
import time


def main():
    root, workload, literal = sys.argv[1:4]
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed
    import workloads

    inp = ast.literal_eval(literal)
    run = getattr(workloads, workload + "_run")
    t0 = time.perf_counter()
    import coulombw
    t1 = time.perf_counter()
    run(coulombw, inp)
    t2 = time.perf_counter()
    speed.unit_s()
    scale = speed.scale()
    print(json.dumps({"import_s": (t1 - t0) * scale, "first_call_s": (t2 - t1) * scale,
                      "raw_import_s": t1 - t0, "raw_first_call_s": t2 - t1, "scale": scale}))


if __name__ == "__main__":
    main()
