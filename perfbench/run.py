"""Benchmark the empursuit `encode` and `learn` commands on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload learn --seed 1 --seconds 55 --trace 0

Workloads: encode-long-atoms, learn (see perfbench/workloads.py).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of traced operations. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name every metric with its unit,
direction and sample count, plus the environment. The full record and
the spans of a traced run go to .perfbench/ under the repository root.
The program is imported from src/ of the same checkout.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import THREAD_VARS  # noqa: E402

# One BLAS thread, set before numpy loads: one operation at a time on one
# core, and two threads only spent twice the CPU for the same wall time.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402


def _report(result: dict, units: dict, better: dict) -> None:
    n = result["samples"]
    for name, value in result["metrics"].items():
        count = n.get(name, n.get("traced_cycles"))
        print(f"{name:40s} {value:14.6g} {units[name]:10s} {better[name]:6s} n={count}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':40s} {rate:14.6g} {'fraction':10s} {'lower':6s} n={result['attempted']}")
    for name in result["missing_spans"]:
        print(f"span never fired: {name}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "empursuit", "__init__.py")):
        print(f"error: no empursuit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from perfbench import bench, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        units = bench.PER_LAYER
        better = dict.fromkeys(units, "lower")
    else:
        units = {k: u for k, (u, _) in bench.END_TO_END.items()}
        better = {k: b for k, (_, b) in bench.END_TO_END.items()}
    _report(result, units, better)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(ROOT, ".perfbench", name), "w") as fh:
        json.dump(result, fh, indent=1)
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    summary["metrics"] = {
        k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
