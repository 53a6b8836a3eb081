"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import timing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.03


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def fs():
    return workloads.import_package()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--scale", str(TINY))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"metric {name} " in proc.stdout


def test_checkout_without_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_expected_result_is_a_failure(fs, tmp_path):
    w = workloads.build(fs, "point", 3, 0.05)
    fen, move, options, expected, expected_array = w.primary[0]
    w.primary[0] = (fen, move, options, expected + " ", expected_array)
    loop = timing.Loop(w.primary, timing.primary_call(fs, "point"))
    loop.run(0.05)
    assert loop.failed == -(-loop.attempted // len(w.primary))  # each time request 0 ran

    # and the traced run reports it in its fail_rate
    w.primary = w.primary[:1]
    metrics, _, attempted, failed = timing.per_layer(fs, w, 0.2, ROOT, tmp_path,
                                                     tmp_path / "spans.json.gz")
    assert failed > 0 and metrics["fail_rate"] == failed / attempted


def test_scaled_rounds_are_divided_by_the_slowness(fs):
    w = workloads.build(fs, "point", 3, 0.05)
    loop = timing.Loop(w.primary, timing.primary_call(fs, "point"))
    for slowness in (2.0, 2.0):
        loop.run(0.02)
        loop.scale(slowness)
    assert loop.rate() == pytest.approx(2 * loop.rate(scaled=False))
    for share in (50, 99):
        assert loop.latency_us(share) == pytest.approx(loop.latency_us(share, scaled=False) / 2,
                                                       rel=1e-5)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_latency_tail_is_made_by_ops_slow_every_time_not_by_one_slow_call():
    visits = {}

    def call(op):
        visits[op] = visits.get(op, 0) + 1
        if op < 3 or (op == 50 and visits[op] == 1):  # ops 0-2 always slow, op 50 once
            _busy(0.002)
        return 1, 0

    loop = timing.Loop(list(range(200)), call)
    for _ in range(3):
        loop.run(0.05)  # a pass over the ops takes about 7 ms
        loop.scale(1.0)
    assert loop.ops_timed() == 200 and min(visits.values()) >= 3
    assert loop.latency_us(99) > 1500  # 198th of 200 op medians: one of ops 0-2
    assert loop.latency_us(50) < 500
    ranked = sorted(statistics.median(raw) for raw, _ in loop.by_op)
    assert ranked[-4] < 500_000  # in ns; op 50's one slow call is not its median


def test_paused_time_is_left_out_of_latencies():
    pauses = types.SimpleNamespace(paused_ns=0)

    def call(op):
        _busy(0.002)  # as if a speed sample ran inside the call
        pauses.paused_ns += 2_000_000
        return 1, 0

    loop = timing.Loop([0], call)
    loop.run(0.01, pauses)
    loop.scale(1.0)
    assert loop.latency_us(50) < 1000


def test_reference_speed_does_not_run_the_package():
    code = ("import sys, timing; s = timing.Speed(); assert 0.05 < s.slowness() < 20; "
            "assert timing._reference_pass(s.fens) == len(s.fens) == timing.REFERENCE_PLIES; "
            "assert not any(m.split('.')[0] == 'fenstring' for m in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_wrong_game_fen_is_a_failed_ply(fs):
    w = workloads.build(fs, "replay", 3, 0.05)
    start, moves, options, expected = w.primary[0]
    w.primary[0] = (start, moves, options, expected[:-1] + ["8/8/8/8/8/8/8/8 w - - 0 1"])
    loop = timing.Loop(w.primary[:1], timing.primary_call(fs, "replay"))
    loop.run(0.01)
    assert loop.failed * len(moves) == loop.attempted


def test_fuzz_at_seed_0_is_the_acceptance_tests_run(fs):
    calls = workloads.build_fuzz(fs, 0, 0.02)["primary"]
    assert [(seed, o.ep_mode, o.clock_mode, o.validation) for _, seed, o in calls] == [
        (1000, "always", "standard", "lenient"), (1001, "always", "frozen", "lenient"),
        (1002, "adjacent-only", "standard", "lenient"), (1003, "adjacent-only", "frozen", "lenient")]
    assert workloads.FUZZ_CHAIN_PAIRS == 25000


def test_fuzz_driver_check_fails_when_nothing_is_compared(fs, monkeypatch):
    w = workloads.build(fs, "fuzz", 3, 0.02)
    assert timing.check_fuzz_driver(fs, w) == (sum(c[0] for c in w.canaries), 0)
    assert fs.fuzzing.oracle_apply is fs.oracle_apply  # the stand-in is taken out again

    def compares_nothing(iterations, seed, options):
        for _ in fs.fuzz_pairs(iterations, seed, options):
            pass
        return fs.FuzzReport(seed, iterations, iterations, 0)

    monkeypatch.setattr(fs, "differential_fuzz", compares_nothing)
    attempted, failed = timing.check_fuzz_driver(fs, w)
    assert failed == attempted > 0
    # its reports alone look correct
    call = timing.primary_call(fs, "fuzz")
    assert call(w.primary[0]) == (w.primary[0][0], 0)


@pytest.mark.parametrize("seed", [1, 2])
def test_descriptions_repeat_and_cover_what_they_claim(fs, seed):
    built = {name: workloads.build(fs, name, seed, 0.1) for name in workloads.WORKLOADS}
    described = {name: workloads.describe(w) for name, w in built.items()}
    for name in workloads.WORKLOADS:
        assert workloads.describe(workloads.build(fs, name, seed, 0.1)) == described[name]

    point, reject, replay = described["point"], described["reject"], described["replay"]
    for kind in workloads.SPECIAL_KINDS:
        assert point[f"workload.special.{kind}"] == built["point"].intended[kind]
    for code in workloads.MOVE_ERROR_CODES:
        assert point[f"workload.error.{code}"] == built["point"].intended[code]
    assert point["workload.distinct_request_share"] == 1.0
    for code in workloads.REJECT_CODES:
        assert reject[f"workload.error.{code}"] == built["reject"].intended[code] > 0
    assert sum(v for k, v in reject.items() if k.startswith("workload.error.")) == len(
        built["reject"].requests)
    combos = {(o.ep_mode, o.clock_mode, o.validation) for _, _, o, _, _ in built["point"].requests}
    assert combos == set(workloads.OPTION_COMBOS)

    assert replay["workload.pieces_median"] >= 20
    for start, moves, _, fens in built["replay"].primary:
        for before, after in zip([start] + fens, fens):
            shared = sum(a == b for a, b in zip(before.split()[0].split("/"),
                                                after.split()[0].split("/")))
            assert shared >= 6
