#!/usr/bin/env python3
"""Write BENCHMARK.json at the repository root from the benchmark's own
tables (workloads, metrics, bounds), so the two never disagree.

    python3 perfbench/manifest.py
"""

import json

from run import END_TO_END, ROOT, RUN_SECONDS
from spans import PER_LAYER
from workloads import WORKLOADS


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {path}")
