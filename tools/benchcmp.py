"""Compare perfbench run records of a parent and a change, with an A/A control,
and write the comparison as BENCH_<pr>.json.

    python3 tools/benchcmp.py --pr N --claim point:throughput_ops_s \\
        --parent PARENT/perfbench/out --change CHANGE/perfbench/out \\
        --aa PARENT_COPY/perfbench/out --held-out 3711 3712 \\
        --change-label "what the change does"

Each directory holds the run records that `perfbench/run.py --trace 0`
writes (`<workload>-seed<n>-trace0.json`) in one checkout: the parent, the
change, and for the A/A control a second checkout of the parent. Runs are
paired by workload and seed. Run every side once per seed, rotating which
side runs first; for example, from the root of each checkout in turn:

    python3 perfbench/run.py --workload point --seed 3701 --seconds 15 --trace 0

For each workload the tool prints every end-to-end metric of
BENCHMARK.json: each side's median and IQR (the distance between the
quartiles), the change in the median, the pairs the change won and the
metric's bound. It then judges:

- the claimed metric on its workload. The change must win at least 9 of
  every 10 pairs, with at least 10 pairs run and ties counting for
  neither side; its median must beat the parent's by more than the
  parent's IQR; it must win the pair of each held-out seed; and its
  relative gain must lie beyond the A/A control's spread, the upper
  quartile of the gains that the parent copy showed over the parent,
  pair by pair. With no A/A runs on the workload the claim is refused;
- every metric on every workload against BENCHMARK.json's bound: the
  change's median may be worse than the parent's by at most the bound.
  When the parent's IQR is wider than the bound, the metric is
  unresolved, unless every change run is better than every parent run.

Each record names the package it ran by `environment.package_sha256`, a
hash of the checkout's `src/fenstring/*.py`. The records of one side must
name one package, the A/A side the parent's and the change another. Records
are compared unchecked only when no record on any side has the hash. Each
side's hash is written into BENCH_<pr>.json.

Exit status: 0 when the claim holds (or none is made), every metric is
within its bound and every output was correct; 1 otherwise; 2 on bad
arguments or records.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
# how the runs are to be made; the records cannot tell
ORDER = "each seed ran every side once, the order rotating from seed to seed"
# a claim needs at least this many pairs, and the change must win this share
MIN_PAIRS = 10
WIN_SHARE = 0.9


class RecordError(Exception):
    """The run records cannot be compared as asked."""


def load_records(directory) -> dict:
    """{(workload, seed): record} of the untraced run records in ``directory``."""
    records = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        env = record["environment"]
        records[env["workload"], env["seed"]] = record
    if not records:
        raise RecordError(f"no run records (*-trace0.json) in {directory}")
    return records


def package_of(records: dict, side: str):
    """The package_sha256 that every one of ``side``'s records names, or None
    when none names one."""
    hashes = {record["environment"].get("package_sha256") for record in records.values()}
    if len(hashes) > 1:
        raise RecordError(f"the {side} records ran {len(hashes)} different packages")
    return hashes.pop()


def check_packages(parent: dict, change: dict, aa: dict) -> dict:
    """{side: package_sha256 or None}, once each side has run the code it is
    labelled with: the A/A side the parent's package, the change another."""
    packages = {"parent": package_of(parent, "parent"), "change": package_of(change, "change")}
    if aa:
        packages["parent2"] = package_of(aa, "A/A")
    unnamed = [side for side, package in packages.items() if package is None]
    if len(unnamed) == len(packages):
        return packages
    if unnamed:
        names = " and ".join("A/A" if side == "parent2" else side for side in unnamed)
        raise RecordError(f"the {names} records name no package, the others do")
    if packages.get("parent2", packages["parent"]) != packages["parent"]:
        raise RecordError("the A/A records ran another package than the parent's")
    if packages["change"] == packages["parent"]:
        raise RecordError("the change records ran the parent's package")
    return packages


def quartiles(values) -> tuple:
    """(Q1, median, Q3) as statistics.quantiles gives them; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def _better(value, than, higher: bool) -> bool:
    return value > than if higher else value < than


def summarize(runs, a: str, b: str, metrics: dict) -> dict:
    """The summary of paired runs of sides ``a`` and ``b``, in BENCH_32.json's
    layout. ``runs`` are {"seed", "side", "metrics"}; ``metrics`` maps each
    metric's name to its BENCHMARK.json entry (``unit`` and ``better``)."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    pairs = [(sides[a], sides[b]) for sides in by_seed.values() if a in sides and b in sides]
    summary = {}
    for name, spec in metrics.items():
        first = [x[name] for x, _ in pairs]
        second = [y[name] for _, y in pairs]
        q1a, _, q3a = quartiles(first)
        q1b, _, q3b = quartiles(second)
        higher = spec["better"] == "higher"
        summary[name] = {
            "unit": spec["unit"],
            f"{a}_median": round(statistics.median(first), 3),
            f"{a}_iqr": round(q3a - q1a, 3),
            f"{b}_median": round(statistics.median(second), 3),
            f"{b}_iqr": round(q3b - q1b, 3),
            f"{b}_better_pairs": sum(_better(y, x, higher) for x, y in zip(first, second)),
        }
    return summary


def pair_block(first: dict, second: dict, a: str, b: str, workload: str, metrics: dict):
    """The paired runs of one workload from two record sets, summarized, or
    None when no seed ran on both sides."""
    seeds = sorted(seed for wl, seed in first if wl == workload and (wl, seed) in second)
    if not seeds:
        return None
    runs = []
    for seed in seeds:
        for side, records in ((a, first), (b, second)):
            values = records[workload, seed]["metrics"]
            runs.append({"seed": seed, "side": side,
                         "metrics": {name: values[name]["value"] for name in metrics}})
    seconds = first[workload, seeds[0]]["environment"]["seconds"]
    failed = {side: sum(records[workload, s]["failed"] for s in seeds)
              for side, records in ((a, first), (b, second))}
    return {
        "seconds": int(seconds) if float(seconds).is_integer() else seconds,
        "seeds": seeds,
        "pairs": len(seeds),
        "failed": failed,
        "correct": all(records[workload, s]["correct"] for s in seeds
                       for records in (first, second)),
        "summary": summarize(runs, a, b, metrics),
        "runs": runs,
    }


def _values(block: dict, side: str, name: str) -> dict:
    return {run["seed"]: run["metrics"][name] for run in block["runs"] if run["side"] == side}


def _gains(block: dict, a: str, b: str, name: str, higher: bool) -> list:
    """Each pair's relative gain of side ``b`` over side ``a``; positive is better."""
    first, second = _values(block, a, name), _values(block, b, name)
    sign = 1 if higher else -1
    return [sign * (second[seed] / first[seed] - 1) for seed in block["seeds"]]


def judge_claim(block: dict, aa_block, name: str, higher: bool, held_out=()) -> dict:
    """The claim rule on ``block``'s parent/change runs of metric ``name``."""
    row = block["summary"][name]
    pairs, won = block["pairs"], row["change_better_pairs"]
    sign = 1 if higher else -1
    parent, change = row["parent_median"], row["change_median"]
    gain = sign * (change / parent - 1)
    parent_values, change_values = _values(block, "parent", name), _values(block, "change", name)
    held = {seed: _better(change_values[seed], parent_values[seed], higher)
            for seed in held_out if seed in parent_values}
    checks = {
        f"won {WIN_SHARE:.0%} of the pairs, at least {MIN_PAIRS} run":
            pairs >= MIN_PAIRS and won >= math.ceil(WIN_SHARE * pairs),
        "median gain larger than the parent's IQR": sign * (change - parent) > row["parent_iqr"],
        "every held-out pair won": len(held) == len(held_out) and all(held.values()),
    }
    verdict = {
        "metric": name,
        "pairs": pairs,
        "change_better_pairs": won,
        "median_gain": round(gain, 4),
        "parent_iqr_share": round(row["parent_iqr"] / parent, 4),
        "held_out": {str(seed): won_pair for seed, won_pair in held.items()},
    }
    if aa_block is None:
        checks["gain beyond the A/A spread"] = False
        verdict["aa_spread"] = None
    else:
        aa_q3 = quartiles(_gains(aa_block, "parent", "parent2", name, higher))[2]
        checks["gain beyond the A/A spread"] = gain > aa_q3
        verdict["aa_spread"] = round(aa_q3, 4)
    verdict["checks"] = checks
    verdict["holds"] = all(checks.values())
    return verdict


def judge_bounds(block: dict, metrics: dict) -> dict:
    """{metric: "ok" | "worse" | "unresolved"} against each metric's bound."""
    statuses = {}
    for name, spec in metrics.items():
        row = block["summary"][name]
        higher = spec["better"] == "higher"
        parent = row["parent_median"]
        worse = (-1 if higher else 1) * (row["change_median"] / parent - 1)
        parent_values = _values(block, "parent", name).values()
        change_values = _values(block, "change", name).values()
        separated = all(_better(c, p, higher) for c in change_values for p in parent_values)
        if row["parent_iqr"] / parent > spec["bound"] and not separated:
            statuses[name] = "unresolved"
        else:
            statuses[name] = "worse" if worse > spec["bound"] else "ok"
    return statuses


def compare(parent: dict, change: dict, aa: dict, metrics: dict, claim=None,
            held_out=()) -> dict:
    """Pair the record sets, summarize each workload and judge the change.

    ``claim`` is (workload, metric) or None. Returns {"packages": {side:
    package_sha256}, "blocks": {workload: block}, "aa_blocks": {workload:
    block}, "claim": verdict or None, "bounds": {workload: statuses},
    "passed": bool}."""
    packages = check_packages(parent, change, aa)
    workloads = sorted({wl for wl, _ in parent})
    blocks, aa_blocks = {}, {}
    for wl in workloads:
        if (block := pair_block(parent, change, "parent", "change", wl, metrics)) is not None:
            blocks[wl] = block
        if (block := pair_block(parent, aa, "parent", "parent2", wl, metrics)) is not None:
            aa_blocks[wl] = block
    verdict = None
    if claim is not None:
        workload, name = claim
        if workload not in blocks:
            raise RecordError(f"no paired {workload} runs for the claim")
        verdict = judge_claim(blocks[workload], aa_blocks.get(workload), name,
                              metrics[name]["better"] == "higher", held_out)
        verdict["workload"] = workload
    bounds = {wl: judge_bounds(block, metrics) for wl, block in blocks.items()}
    passed = (
        (verdict is None or verdict["holds"])
        and all(status == "ok" for statuses in bounds.values() for status in statuses.values())
        and all(block["correct"] and not any(block["failed"].values())
                for block in blocks.values())
    )
    return {"packages": packages, "blocks": blocks, "aa_blocks": aa_blocks, "claim": verdict,
            "bounds": bounds, "passed": passed}


def _table(block: dict, a: str, b: str, statuses=None) -> list:
    """One line per metric: each side's median (IQR), the change, pairs won."""
    lines = [f"  {'metric':24} {a + ' median (IQR)':>24} {b + ' median (IQR)':>24} "
             f"{'change':>8} {'won':>6}" + ("  bound" if statuses else "")]
    for name, row in block["summary"].items():
        first, second = row[a + "_median"], row[b + "_median"]
        cells = [f"{first:.3f} ({row[a + '_iqr']:.3f})", f"{second:.3f} ({row[b + '_iqr']:.3f})"]
        won = f"{row[b + '_better_pairs']}/{block['pairs']}"
        line = f"  {name:24} {cells[0]:>24} {cells[1]:>24} {second / first - 1:>+8.1%} {won:>6}"
        lines.append(line + (f"  {statuses[name]}" if statuses else ""))
    return lines


def report(result: dict) -> str:
    """The tables of every workload and the A/A control, and the claim's checks."""
    lines = []
    for wl, block in result["blocks"].items():
        lines.append(f"{wl}: parent against change, {block['pairs']} pairs, "
                     f"seeds {block['seeds'][0]}-{block['seeds'][-1]}, {block['seconds']} s runs, "
                     f"failed {block['failed']}")
        lines += _table(block, "parent", "change", result["bounds"][wl])
    for wl, block in result["aa_blocks"].items():
        lines.append(f"{wl}: A/A, parent against a second parent checkout, {block['pairs']} pairs")
        lines += _table(block, "parent", "parent2")
    claim = result["claim"]
    if claim is not None:
        spread = "none" if claim["aa_spread"] is None else f"{claim['aa_spread']:+.2%}"
        lines.append(f"claim: {claim['metric']} on {claim['workload']}, median gain "
                     f"{claim['median_gain']:+.2%} against an A/A spread up to {spread}, "
                     f"{claim['change_better_pairs']}/{claim['pairs']} pairs won")
        lines += [f"  {'yes' if ok else 'NO ':3} {check}" for check, ok in claim["checks"].items()]
    lines.append("passed" if result["passed"] else "FAILED")
    return "\n".join(lines)


def bench_file(result: dict, command, env: dict, change: str) -> dict:
    """The comparison in BENCH_32.json's layout, with the verdict added;
    ``env`` is a parent run's environment record, ``change`` says what the
    change does."""
    blocks = dict(result["blocks"])
    claim = result["claim"]
    aa_note = ("; <workload>_parent_against_parent is the A/A control, the parent against "
               "a second checkout of it" if result["aa_blocks"] else "")
    doc = {
        "what": "perfbench workloads, --trace 0, parent and change each from its own checkout; "
                "the claimed workload at the top level, the others under other_workloads"
                f"{aa_note}; written by tools/benchcmp.py",
        "command": " ".join(command) + " --workload <workload> --seed <seed> "
                                       "--seconds <seconds> --trace 0",
        "parent": env.get("package_commit"),
        "change": change,
        "package_sha256": result["packages"],
        "claimed_metric": f"{claim['metric']} on {claim['workload']}" if claim else None,
        "order": ORDER,
        "machine": f"{env['nproc']} vCPU {env['cpu_model']}, {env['python_implementation']} "
                   f"{env['python']}, each run pinned to one CPU by the harness",
    }
    if claim is not None:
        doc[claim["workload"]] = blocks.pop(claim["workload"])
    doc["other_workloads"] = blocks
    for wl, block in result["aa_blocks"].items():
        doc[f"{wl}_parent_against_parent"] = block
    doc["verdict"] = {"claim": claim, "bounds": result["bounds"], "passed": result["passed"]}
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent's perfbench/out")
    parser.add_argument("--change", required=True, help="the change's perfbench/out")
    parser.add_argument("--aa", help="perfbench/out of a second checkout of the parent")
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain the change claims")
    parser.add_argument("--held-out", type=int, nargs="*", default=[],
                        help="seeds not used while the change was written")
    parser.add_argument("--pr", help="write the comparison as BENCH_<pr>.json at the "
                                     "repository root")
    parser.add_argument("--change-label", default="", help="what the change does")
    args = parser.parse_args(argv)

    benchmark = json.loads(BENCHMARK.read_text())
    metrics = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    claim = None
    if args.claim:
        workload, _, name = args.claim.partition(":")
        if name not in metrics:
            parser.error(f"--claim: {name!r} is no end-to-end metric of BENCHMARK.json")
        claim = (workload, name)
    try:
        parent = load_records(args.parent)
        change = load_records(args.change)
        aa = load_records(args.aa) if args.aa else {}
        result = compare(parent, change, aa, metrics, claim, args.held_out)
    except RecordError as exc:
        print(f"benchcmp: {exc}", file=sys.stderr)
        return 2
    print(report(result))

    if args.pr:
        env = next(iter(parent.values()))["environment"]
        path = ROOT / f"BENCH_{args.pr}.json"
        doc = bench_file(result, benchmark["command"], env, args.change_label)
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path.name}")
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
