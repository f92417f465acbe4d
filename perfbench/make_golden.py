"""Regenerate perfbench/golden/pdo_series.json from `isoladder pdo --w w`.

    python3 perfbench/make_golden.py

The golden text pins the pdo_cli workload's output check.  Regenerating it
is a deliberate change of what `isoladder pdo` renders: it needs its own
justification in the change that does it, and never rides along with a
performance change.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import workloads
from run import RUN_TIMEOUT_S, run_child


def main() -> int:
    golden = {}
    for w in workloads.PDO_WS:
        argv = [sys.executable, "-m", "isoladder", *workloads.cli_args("pdo_cli", w, 0)]
        code, out, _ = run_child(argv, perf_counter() + RUN_TIMEOUT_S)
        doc = json.loads(out)
        if code != 0 or doc["pass"] is not True:
            print(f"error: isoladder pdo --w {w!r} does not pass; golden not written", file=sys.stderr)
            return 1
        golden[repr(w)] = {key: doc[key] for key in ("lowering_series", "raising_series")}
    workloads.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} golden series to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
