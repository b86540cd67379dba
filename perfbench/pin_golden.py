"""Re-pin ``golden_fig8.json``: the simulated numbers of every fig8 run
point for all 12 workloads at the budget ``paper_fig8`` uses.

Run from the repository root, only when a change is meant to alter the
simulated numbers:

    python3 perfbench/pin_golden.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.harness.experiments import fig8  # noqa: E402
from repro.harness.parallel import PointRunner  # noqa: E402
from repro.workloads import WORKLOAD_NAMES  # noqa: E402

from suite import (FIG8_BUDGET, GOLDEN_FIG8, _Collect,  # noqa: E402
                   point_record)


def main():
    observer = _Collect()
    fig8.run(WORKLOAD_NAMES, budget=FIG8_BUDGET,
             runner=PointRunner(observer=observer))
    points = {point.label(): point_record(summary)
              for point, summary in observer.done}
    with open(GOLDEN_FIG8, "w") as handle:
        json.dump({"budget": FIG8_BUDGET, "points": points}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
