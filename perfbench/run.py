"""The fenstring benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload point --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Prints every metric as `metric <name> <value> <unit>` (end-to-end times
scaled to the reference speed of timing.Speed; the measured ones follow as
`unscaled <name> ...`), the workload's description counts and the
environment record, writes them to
perfbench/out/, and ends with one JSON line holding exactly the keys
"correct", "attempted", "failed" and "metrics". --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 is the traced run and
reports the per-layer ones. Exit status: 0 when every output matched its
expected value, 1 when any did not, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import timing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# setup_s is the median of the run's own set-up and of this many more on
# each side of the timed loops, so that the set-ups span the run; each is
# scaled by the machine's speed measured just before and after it
EXTRA_SETUPS = 1


def environment(args, counts):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "")
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fenstring").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "package_commit": _commit(),
        "package_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "operation_counts": counts,
        "wait_us": "0 for every layer: single-threaded, no queue",
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input sizes relative to the defined benchmark (tests use small ones)")
    args = parser.parse_args(argv)

    if not (SRC / "fenstring" / "__init__.py").is_file():
        print(f"fenstring source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cpu = timing.pin_to_one_cpu()
    speed = timing.Speed()
    setup_s, raw_setup_s = [], []

    def timed_setup():
        done, raw, scaled = speed.timed(lambda: workloads.setup(args.workload, args.seed, args.scale))
        raw_setup_s.append(raw / 1e9)
        setup_s.append(scaled / 1e9)
        return done

    if not args.trace:
        for _ in range(EXTRA_SETUPS):
            timed_setup()  # the result is dropped
    fs, w = timed_setup()
    gc.collect()
    gc.freeze()  # the inputs stay alive all run; keep them out of the collector's scans
    description = workloads.describe(w)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, counts, attempted, failed = timing.per_layer(
            fs, w, args.seconds, ROOT, OUT, OUT / f"{tag}.spans.json.gz")
        metrics.update(description)
        units = dict(timing.STAGE_UNITS, **{k: "count" for k in description})
        units["workload.distinct_request_share"] = "ratio"
    else:
        metrics, raw, counts, attempted, failed = timing.end_to_end(
            fs, w, args.seconds, ROOT, OUT, speed)
        for _ in range(EXTRA_SETUPS):
            timed_setup()
        metrics["setup_s"] = statistics.median(setup_s)
        raw["setup_s"] = statistics.median(raw_setup_s)
        units = timing.END_TO_END_UNITS
    counts["requests"] = len(w.requests)

    env = environment(args, counts)
    env["pinned_cpu"] = cpu
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    if not args.trace:
        for name, value in raw.items():
            print(f"unscaled {name} {value} {units[name]}")
        for name, value in description.items():
            print(f"workload {name} {value}")
    print("environment " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(
        dict(result, unscaled=None if args.trace else raw, description=description,
             setup_runs_s=setup_s, setup_runs_unscaled_s=raw_setup_s, environment=env), indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
