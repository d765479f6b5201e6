"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign-n40 --seed 3 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload, ``--trace 1``
runs it again with an ``Observer`` installed and prints every per-layer
metric instead (0 for a layer the workload does not run).  Report lines (``[phase] key=value ...``) come first;
the last line of standard output is always the JSON result.  The
program under test is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-small", "campaign-n40", "formation-n64")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import campaign, common, formation, serving

    module = {
        "serve-small": serving,
        "campaign-n40": campaign,
        "formation-n64": formation,
    }[args.workload]
    tally, metrics = module.run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = common.complete_layers(args.workload, metrics)
    common.print_phase(
        "tally",
        attempted=tally.attempted,
        failed=tally.failed,
        failed_share=round(tally.failed / max(1, tally.attempted), 4),
        converged_but_failed=tally.converged_failures,
        incorrect=tally.incorrect,
        reasons=tally.reasons,
    )
    print(common.result_line(tally, metrics, trace=bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
