#!/usr/bin/env python3
"""Benchmark of the qsu2 verification suites, driven from outside.

    python3 perfbench/run.py --workload tails --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``qsu2`` from its
``src/`` directory (no install).  With ``--trace 0`` it times whole passes
over the workload's invocations and reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it adds traced passes and reports the
per-layer metrics, writing every span to ``.perfbench/``.  Human-readable
lines come first; the last line of standard output is the JSON result.
Exit code 2 means no result: the sources are missing or the arguments are
bad.  See README.md next to this file.
"""

from __future__ import annotations

import os

# At most one BLAS/OpenMP thread (fewer than nproc), set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsu2 benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qsu2" / "__init__.py").is_file():
        print(f"perfbench: no qsu2 sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if not Path(harness.qsu2.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: qsu2 was imported from {harness.qsu2.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spans_out = (harness.ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
                 if args.trace else None)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         spans_out=spans_out)
    for line in result.pop("lines"):
        print(line)
    print("environment " + json.dumps(result.pop("environment")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
