"""Set up one benchmark run's inputs in a fresh interpreter.

Usage: python3 perfbench/prepare.py --workload NAME --seed N --dir DIR

The parent times this whole process, so interpreter start-up, the numpy
and ciukit imports, input generation and any model training all count as
set-up time.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from ciukit.cli import main as cli_main

    from workloads import WORKLOADS

    workdir = Path(args.dir)
    workdir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload].prepare(workdir, args.seed, cli_main)
    return 0


if __name__ == "__main__":
    sys.exit(main())
