"""Benchmark entry point.  Run from the root of a repository checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Prints the metric table and the run record, then, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The run record and the traced run's
spans are also written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pin numpy's thread pools before anything imports numpy; the set-up probes
# inherit the same environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "beliefgames" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'beliefgames'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import beliefgames

    if Path(beliefgames.__file__).resolve().parent != (src / "beliefgames").resolve():
        print(f"perfbench: imported beliefgames from {beliefgames.__file__}, not {src}", file=sys.stderr)
        return 2

    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    out = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    result, record = out["result"], out["record"]
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    stem = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (work / stem).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    tail = record["tail"]
    print(f"{'failed_frac':40s} {record['failed_frac']:>16.6g} ratio")
    print(f"{'known_defect_frac':40s} {record['known_defect_frac']:>16.6g} ratio")
    print(f"op_tail_ms is p{tail['percentile']:g} of {tail['samples']} ops ({tail['beyond']} beyond)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
