"""Record per-check counts from plain runs into expected_counts.json.

    python3 perfbench/record_counts.py

Reads every .bench_run/<workload>-seed<n>-<size>-trace0.json left by
run.py and stores its [records, skips] per check under workload, size and
seed.  Only the shape is recorded; whether records passed is checked on
every run, never recorded.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-(?P<size>full|smoke)-trace0\.json")


def main() -> int:
    path = HERE / "expected_counts.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    for details in sorted((HERE.parent / ".bench_run").glob("*-trace0.json")):
        m = NAME.fullmatch(details.name)
        if m is None:
            continue
        run = json.loads(details.read_text(encoding="utf-8"))
        slot = table.setdefault(m["workload"], {}).setdefault(m["size"], {})
        slot[m["seed"]] = run["counts"]
        print(f"recorded {details.name}")
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
