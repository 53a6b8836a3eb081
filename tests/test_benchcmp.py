"""tools/benchcmp.py: pairing run records, the claim rule with its A/A
control, the bound checks, and BENCH_32.json reproduced from its own runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchcmp", ROOT / "tools" / "benchcmp.py")
benchcmp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchcmp)

METRICS = {entry["name"]: entry
           for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
BASE = {"throughput_ops_s": 45000.0, "latency_p50_us": 20.0, "latency_p99_us": 28.0,
        "array_throughput_ops_s": 37000.0, "cli_play_plies_s": 7000.0, "peak_rss_mb": 28.0,
        "setup_s": 0.85}
SEEDS = range(101, 113)  # 12 pairs; the last two are held out
HELD_OUT = [111, 112]
# a run-to-run jitter of about 1%, the same for every side of a seed's runs
JITTER = [0.0, 0.012, -0.008, 0.005, -0.011, 0.009, -0.004, 0.002, -0.006, 0.010, -0.002, 0.007]


def record(workload, seed, scale=None, failed=0, package=None):
    """A run record as perfbench/run.py --trace 0 writes it; ``scale`` maps a
    metric to the factor its base value is multiplied by, and ``package`` is
    the package hash, or None for a record without one."""
    jitter = 1 + JITTER[(seed - SEEDS[0]) % len(JITTER)]
    values = {name: value * jitter * (scale or {}).get(name, 1) for name, value in BASE.items()}
    return {
        "correct": failed == 0,
        "attempted": 1000,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": METRICS[name]["unit"]}
                    for name, value in values.items()},
        "environment": {"workload": workload, "seed": seed, "seconds": 15.0, "nproc": 2,
                        "cpu_model": "Test CPU", "python": "3.11.7",
                        "python_implementation": "CPython", "package_commit": "abc1234",
                        **({} if package is None else {"package_sha256": package})},
    }


def records(workload="point", scales=None, seeds=SEEDS, package=None):
    """{(workload, seed): record}; ``scales`` gives each seed's scale, or one for all."""
    return {(workload, seed): record(workload, seed,
                                     scales(seed) if callable(scales) else scales, package=package)
            for seed in seeds}


def gain(factor):
    return {"throughput_ops_s": factor}


def compare(change, aa, claim=("point", "throughput_ops_s")):
    return benchcmp.compare(records(), change, aa, METRICS, claim, HELD_OUT)


def test_a_clear_gain_outside_the_aa_spread_passes():
    # +5% on every pair; the parent copy reads -1%..+1% against the parent
    result = compare(records(scales=gain(1.05)),
                     records(scales=lambda seed: gain(1 + 0.01 * (seed % 3 - 1))))
    claim = result["claim"]
    assert claim["holds"] and result["passed"]
    assert all(claim["checks"].values())
    assert (claim["pairs"], claim["change_better_pairs"]) == (12, 12)
    assert claim["held_out"] == {"111": True, "112": True}
    assert result["bounds"]["point"] == dict.fromkeys(METRICS, "ok")
    assert claim["median_gain"] == pytest.approx(0.05, abs=1e-4)


def test_a_gain_on_too_few_pairs_fails_the_claim():
    # +5% on 9 of 12 pairs, -1% on three: the median gain is clear, the pairs are not
    lost = {103, 106, 109}
    result = compare(records(scales=lambda seed: gain(0.99 if seed in lost else 1.05)),
                     records(scales=lambda seed: gain(1 + 0.01 * (seed % 3 - 1))))
    checks = result["claim"]["checks"]
    assert not result["claim"]["holds"] and not result["passed"]
    assert [name for name, ok in checks.items() if not ok] == [
        f"won {benchcmp.WIN_SHARE:.0%} of the pairs, at least {benchcmp.MIN_PAIRS} run"]
    assert result["claim"]["change_better_pairs"] == 9


def test_a_gain_inside_the_aa_spread_fails_only_the_aa_check():
    # the same +5% on every pair, but two copies of the parent already
    # differ by -2%..+8%: the gain could be the harness's own spread
    result = compare(records(scales=gain(1.05)),
                     records(scales=lambda seed: gain(1 + 0.02 * (seed % 6) - 0.02)))
    checks = result["claim"]["checks"]
    assert [name for name, ok in checks.items() if not ok] == ["gain beyond the A/A spread"]
    assert not result["passed"]
    assert result["bounds"]["point"] == dict.fromkeys(METRICS, "ok")


# a lower-is-better claim: p99 latency on point, the parent copy within -1%..+1%
_P99 = ("point", "latency_p99_us")


def _p99(factor):
    return {"latency_p99_us": factor}


def _p99_aa(package=None):
    return records(scales=lambda seed: _p99(1 + 0.01 * (seed % 3 - 1)), package=package)


def test_a_latency_that_falls_passes_a_lower_is_better_claim():
    result = compare(records(scales=_p99(0.95)), _p99_aa(), _P99)
    claim = result["claim"]
    assert claim["holds"] and result["passed"]
    assert (claim["pairs"], claim["change_better_pairs"]) == (12, 12)
    assert claim["held_out"] == {"111": True, "112": True}
    # the gain is counted positive when the latency falls
    assert claim["median_gain"] == pytest.approx(0.05, abs=1e-4)
    assert claim["aa_spread"] == pytest.approx(0.01, abs=1e-3)


def test_a_latency_that_rises_fails_a_lower_is_better_claim():
    result = compare(records(scales=_p99(1.05)), _p99_aa(), _P99)
    claim = result["claim"]
    assert not claim["holds"] and not result["passed"]
    assert claim["change_better_pairs"] == 0
    assert claim["median_gain"] == pytest.approx(-0.05, abs=1e-4)
    assert not any(claim["checks"].values())
    # 5% is inside latency_p99_us's bound: only the claim fails the comparison
    assert result["bounds"]["point"] == dict.fromkeys(METRICS, "ok")


def test_a_claim_without_an_aa_control_is_refused():
    result = compare(records(scales=gain(1.05)), {})
    assert result["claim"]["checks"]["gain beyond the A/A spread"] is False
    assert result["aa_blocks"] == {} and not result["passed"]


def test_a_lost_held_out_pair_fails_the_claim():
    result = compare(records(scales=lambda seed: gain(0.99 if seed == 112 else 1.05)),
                     records())
    assert result["claim"]["held_out"] == {"111": True, "112": False}
    assert not result["claim"]["checks"]["every held-out pair won"]


def test_bounds_name_a_regression_and_a_spread_too_wide_to_tell():
    # setup_s 30% slower everywhere; peak_rss_mb spreads 0.6..1.4 on both sides
    def scales(factor):
        return lambda seed: {"setup_s": factor, "peak_rss_mb": 0.6 + 0.1 * (seed % 9)}

    result = benchcmp.compare(records("replay", scales(1.0)), records("replay", scales(1.3)),
                              {}, METRICS)
    assert result["claim"] is None and not result["passed"]
    statuses = result["bounds"]["replay"]
    assert statuses["setup_s"] == "worse"
    assert statuses["peak_rss_mb"] == "unresolved"
    assert {name for name, status in statuses.items() if status != "ok"} == {"setup_s",
                                                                             "peak_rss_mb"}


def test_a_failed_output_fails_the_comparison():
    change = records()
    change["point", 105] = record("point", 105, failed=1)
    result = benchcmp.compare(records(), change, {}, METRICS)
    assert result["blocks"]["point"]["failed"] == {"parent": 0, "change": 1}
    assert not result["passed"]


def test_bench_32_summaries_are_reproduced_from_their_own_runs():
    bench = json.loads((ROOT / "BENCH_32.json").read_text())
    point = bench["point"]
    assert benchcmp.summarize(point["runs"], "parent", "change", METRICS) == point["summary"]
    aa = bench["point_parent_against_parent"]
    assert benchcmp.summarize(aa["runs"], "parent", "parent2", METRICS) == aa["summary"]
    # and its two claims hold under the rule, against its own A/A control
    for metric in ("throughput_ops_s", "latency_p99_us"):
        higher = METRICS[metric]["better"] == "higher"
        assert benchcmp.judge_claim(point, aa, metric, higher)["holds"], metric


def test_records_without_a_package_hash_are_compared_unchecked():
    result = compare(records(scales=gain(1.05)), records())
    assert result["packages"] == {"parent": None, "change": None, "parent2": None}
    assert result["claim"]["holds"]


@pytest.mark.parametrize("parent, change, aa, refusal", [
    ("p", {**records(package="c"), ("point", 105): record("point", 105, package="c2")},
     "p", "the change records ran 2 different packages"),
    ("p", "c", {**records(package="p"), ("point", 107): record("point", 107)},
     "the A/A records ran 2 different packages"),
    ("p", "c", "c", "the A/A records ran another package than the parent's"),
    ("p", "p", "p", "the change records ran the parent's package"),
    ("p", None, "p", "the change records name no package, the others do"),
    (None, "c", "p", "the parent records name no package, the others do"),
    ("p", "c", None, "the A/A records name no package, the others do"),
    (None, None, "p", "the parent and change records name no package, the others do"),
    ("p", None, {}, "the change records name no package, the others do"),
], ids=["change-mixed", "aa-mixed", "aa-not-the-parent", "change-is-the-parent",
        "change-unnamed", "parent-unnamed", "aa-unnamed", "only-aa-named", "no-aa-change-unnamed"])
def test_a_side_that_ran_other_code_than_its_label_is_refused(parent, change, aa, refusal):
    """A side given as a hash or None stands for point records naming that package."""
    sides = [side if isinstance(side, dict) else records(package=side)
             for side in (parent, change, aa)]
    with pytest.raises(benchcmp.RecordError, match=refusal):
        benchcmp.compare(*sides, METRICS)


def _record_dirs(tmp_path, sides):
    """{side: directory} with each side's records written as perfbench/run.py names them."""
    dirs = {}
    for side, sets in sides.items():
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        for one in sets:
            for (workload, seed), run in one.items():
                (dirs[side] / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(run))
    return dirs


def test_main_writes_bench_json_in_bench_32_s_layout(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(benchcmp, "ROOT", tmp_path)  # where BENCH_<pr>.json goes
    dirs = _record_dirs(tmp_path, {
        "parent": [records(package="p"), records("fuzz", package="p")],
        "change": [records(scales=gain(1.05), package="c"), records("fuzz", package="c")],
        "aa": [records(package="p"), records("fuzz", package="p")],
    })
    status = benchcmp.main([
        "--parent", str(dirs["parent"]), "--change", str(dirs["change"]), "--aa", str(dirs["aa"]),
        "--claim", "point:throughput_ops_s", "--held-out", "111", "112", "--pr", "99",
        "--change-label", "a test change",
    ])
    out = capsys.readouterr().out
    assert status == 0 and out.rstrip().endswith("passed\nwrote BENCH_99.json")
    written = json.loads((tmp_path / "BENCH_99.json").read_text())
    bench_32 = json.loads((ROOT / "BENCH_32.json").read_text())
    for key in ("what", "command", "parent", "change", "claimed_metric", "order", "machine",
                "point", "other_workloads", "point_parent_against_parent"):
        assert key in written, key
    assert written["claimed_metric"] == "throughput_ops_s on point"
    assert written["machine"] == ("2 vCPU Test CPU, CPython 3.11.7, "
                                  "each run pinned to one CPU by the harness")
    assert set(written["point"]) == set(bench_32["point"])
    assert written["point"]["summary"].keys() == bench_32["point"]["summary"].keys()
    assert written["point"]["runs"][0].keys() == bench_32["point"]["runs"][0].keys()
    assert set(written["other_workloads"]) == {"fuzz"}
    assert written["package_sha256"] == {"parent": "p", "change": "c", "parent2": "p"}
    assert written["verdict"]["passed"] is True


@pytest.mark.parametrize("factor, status", [(0.95, 0), (1.05, 1)], ids=["falls", "rises"])
def test_main_judges_a_latency_claim(tmp_path, capsys, monkeypatch, factor, status):
    monkeypatch.setattr(benchcmp, "ROOT", tmp_path)
    dirs = _record_dirs(tmp_path, {
        "parent": [records(package="p")],
        "change": [records(scales=_p99(factor), package="c")],
        "aa": [_p99_aa(package="p")],
    })
    assert benchcmp.main([
        "--parent", str(dirs["parent"]), "--change", str(dirs["change"]), "--aa", str(dirs["aa"]),
        "--claim", "point:latency_p99_us", "--held-out", "111", "112", "--pr", "99",
    ]) == status
    out = capsys.readouterr().out
    assert f"claim: latency_p99_us on point, median gain {1 - factor:+.2%}" in out
    written = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert written["claimed_metric"] == "latency_p99_us on point"
    assert written["verdict"]["claim"]["holds"] is (status == 0)


def test_main_refuses_a_change_that_ran_the_parent_s_package(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(benchcmp, "ROOT", tmp_path)
    dirs = _record_dirs(tmp_path, {side: [records(package="p")] for side in ("parent", "change")})
    assert benchcmp.main(["--parent", str(dirs["parent"]), "--change", str(dirs["change"]),
                          "--pr", "99"]) == 2
    assert "the change records ran the parent's package" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_99.json").exists()


def test_main_refuses_an_empty_directory(tmp_path, capsys):
    assert benchcmp.main(["--parent", str(tmp_path), "--change", str(tmp_path)]) == 2
    assert "no run records" in capsys.readouterr().err
