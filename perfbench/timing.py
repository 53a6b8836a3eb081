"""Timed loops of the fenstring benchmark.

Every workload is a closed loop with one client in one process: the next
call is made when the previous one returns. Each call's output is compared
with the expected result computed in set-up, inside the loop, so a wrong FEN
or error code counts as a failed operation on every run.

``end_to_end`` times whole calls with tracing off, each stretch of calls
scaled to a reference speed of the machine (see ``Speed``). ``per_layer`` is the
traced run: it records one span per call the benchmark makes into a public
function of the package, keeps the spans in memory and writes them out at
the end. Spans are flat records (name, request id, start ns, end ns); the
spans of one request share its id, and since the benchmark calls each
function itself no span has a child, so a span's duration is its self time.
Every layer is single-threaded and has no queue, so no span waits.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from array import array

import workloads
from workloads import error_text

ns = time.perf_counter_ns

# The machine this was written on (2 vCPUs shared with other tenants) changes
# speed as a whole, by up to 1.8x, every few seconds and for minutes at a
# time. So the timed loops run in short rounds, each between two measurements
# of the machine's speed, and each round's time is scaled to a reference speed
# (``Speed``). A total over total time, or a mean over rounds, then sums the
# scaled rounds.
ROUND_S = 0.2  # a round makes at least one call: on fuzz, one 25000-pair chain
ARRAY_SHARE = 0.5  # an array-path round lasts this share of the string-path round before it
ARRAY_ROUND_MAX_S = 1.0  # but no longer than this (a fuzz chain takes seconds)
CLI_EVERY_S = 1.0  # one CLI `play` run for each this long of --seconds, spread over the run
WARMUP_S = 0.5
CLI_PLAY_RUNS = 5  # in the traced run
CLI_STARTUP_RUNS = 3
EMPTY_CALLS = 20000  # calibrates the cost of taking a span around an empty call
STAGE_REPS = 5

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "array_throughput_ops_s": "1/s",
    "cli_play_plies_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

STAGE_UNITS = {
    "fen_codec.parse_fen.us": "us",
    "fen_codec.parse_fen_strict.us": "us",
    "fen_codec.parse_fen_reject.us": "us",
    "segment_ops.expand_rank.us": "us",
    "segment_ops.contract_rank.us": "us",
    "move_apply.parse_move.us": "us",
    "move_apply.update_castling_rights.us": "us",
    "move_apply.derive_en_passant.us": "us",
    "move_apply.update_clocks.us": "us",
    "move_apply.apply_move.us": "us",
    "move_apply.apply_move.residual_us": "us",
    "move_apply.play_sequence.overhead_us_per_ply": "us",
    "move_apply.segments_touched_per_op": "count",
    "oracle.board_from_fen.us": "us",
    "oracle.fen_from_board.us": "us",
    "oracle.oracle_apply.us": "us",
    "oracle.random_pseudo_move.us": "us",
    "oracle.string_array_ratio": "ratio",
    "fuzzing.fuzz_pairs.us_per_pair": "us",
    "fuzzing.compare.us_per_pair": "us",
    "fuzzing.mismatches": "count",
    "cli.startup_s": "s",
    "cli.play.us_per_ply": "us",
    "trace.overhead_pct": "%",
    "fail_rate": "ratio",
}

# the reference kernel: a fixed game of the benchmark's own simulator, its
# positions written as FEN, read back by the simulator's mailbox code, their
# moves listed, and their cells contracted again. It calls nothing in the
# package.
REFERENCE_SEED = "reference"
REFERENCE_PLIES = 40
REFERENCE_PASSES = 3  # a speed measurement is the median of this many timed passes
SAMPLE_EVERY_S = 0.1  # and one is taken this often while a long round runs
SETTLE_S = 0.02  # untimed calls at the start of a round that keeps every latency
SAMPLES_PER_OP = 32  # latencies kept per op; bounds the harness's memory
# median time of one pass on the machine the benchmark was written on (2-vCPU
# Intel Xeon VM, CPython 3.11); a scaled time is in seconds of that machine
REFERENCE_PASS_NS = 3.3e6
# and of a bare interpreter start (`python -c pass`) there at that speed
REFERENCE_START_NS = 105e6

PRIMARY_FUNCTION = {
    "replay": "move_apply.play_sequence",
    "point": "move_apply.apply_move",
    "reject": "move_apply.apply_move",
    "fuzz": "fuzzing.differential_fuzz",
}


def _request_call(fn, slot):
    """Checked call of fn(fen, move, options) against request[slot]."""
    def call(op):
        try:
            got = fn(op[0], op[1], op[2])
        except Exception as exc:  # counted as a failure unless it is the expected code
            got = error_text(exc)
        return 1, got != op[slot]
    return call


def primary_call(fs, name):
    """The checked call the primary loop makes; returns (operations, failed)."""
    if name == "replay":
        play = fs.play_sequence

        def call(op):
            start, moves, options, expected = op
            try:
                got = play(start, moves, options)
            except Exception:
                return len(moves), len(moves)
            if got == expected:
                return len(moves), 0
            return len(moves), sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(moves))
        return call
    if name == "fuzz":
        fuzz = fs.differential_fuzz

        def call(op):
            iterations, seed, options = op
            try:
                report = fuzz(iterations, seed, options)
            except Exception:
                return iterations, iterations
            got = (report.seed, report.iterations, report.positions, report.mismatches,
                   report.first_counterexample)
            if got == (seed, iterations, iterations, 0, None):
                return iterations, 0
            return iterations, max(1, report.mismatches + abs(iterations - report.positions))
        return call
    apply = fs.apply_move
    return _request_call(lambda fen, move, options: apply(fen, move, options).fen_after, 3)


def array_call(fs):
    return _request_call(fs.oracle_apply, 4)


# --- machine speed -----------------------------------------------------------

def pin_to_one_cpu():
    """Keeps this process, and the CLI processes it starts, on the last CPU
    it may use; returns that CPU, or None where affinity cannot be set.
    Each CPU of the machine this was written on had its own changes of
    speed, and a CLI process that ran on the other CPU than the speed
    measurements took no part in them."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _reference_positions():
    positions = []
    workloads.simulate(random.Random(REFERENCE_SEED), REFERENCE_PLIES, positions)
    return [p.fen() for p in positions]


def _reference_pass(fens):
    """Returns how many positions read back to their own FEN with moves to make."""
    n = 0
    for fen in fens:
        pos = workloads.Position.from_fen(fen)
        rows = []
        for r in range(0, 64, 8):
            run, row = 0, []
            for cell in pos.board[r:r + 8]:
                if cell == ".":
                    run += 1
                    continue
                if run:
                    row.append(str(run))
                    run = 0
                row.append(cell)
            if run:
                row.append(str(run))
            rows.append("".join(row))
        n += "/".join(rows) == fen.split(" ", 1)[0] and len(pos.moves()) > 0
    return n


class Speed:
    """How slow the machine runs now, against the reference speed.

    ``slowness()`` times a few passes of the reference kernel and returns
    the median pass time over REFERENCE_PASS_NS: 2.0 when the machine runs
    at half that speed. ``sampling()`` also measures it every SAMPLE_EVERY_S
    while a round of calls runs, from a timer signal, and counts the time
    taken in ``paused_ns`` so that the round leaves it out. A stretch of
    calls is divided by the mean of the measurements just before, during and
    just after it, so its scaled time is what it would have taken at the
    reference speed. The kernel runs the benchmark's own code, so a change to
    the package moves the scaled times and not the scale.
    """

    def __init__(self):
        self.fens = _reference_positions()
        assert _reference_pass(self.fens) == len(self.fens)
        self.seen = []
        self.paused_ns = 0
        self.measuring = False
        self.slowness()  # warm-up
        self.seen.clear()

    def slowness(self):
        self.measuring = True
        try:
            fens, times = self.fens, []
            for _ in range(REFERENCE_PASSES):
                t0 = ns()
                _reference_pass(fens)
                times.append(ns() - t0)
        finally:
            self.measuring = False
        factor = statistics.median(times) / REFERENCE_PASS_NS
        self.seen.append(factor)
        return factor

    def _sample(self, _signum, _frame):
        if not self.measuring:
            t0 = ns()
            self.slowness()
            self.paused_ns += ns() - t0

    @contextlib.contextmanager
    def sampling(self):
        before = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, before)

    def round(self, loop, seconds):
        """One round of ``loop``, measured after; the measurement before it
        is the last one taken. A loop that keeps the latency of every call
        first settles, untimed, because the calls that find the caches cold
        after another loop ran would make its tail; and it is not sampled,
        for the same reason. Its rounds are short, so the two measurements
        around one are close enough."""
        tails = loop.keep and not loop.per_pair
        if tails:
            loop.settle(SETTLE_S)
        first = len(self.seen) - 1
        with contextlib.nullcontext() if tails else self.sampling():
            loop.run(seconds, self)
        self.slowness()
        loop.scale(statistics.fmean(self.seen[first:]))

    def timed(self, fn):
        """fn() measured before, during and after, as a long round is;
        returns (result, raw ns, scaled ns)."""
        first = len(self.seen)
        self.slowness()
        paused = self.paused_ns
        t0 = ns()
        with self.sampling():
            result = fn()
        took = ns() - t0 - (self.paused_ns - paused)
        self.slowness()
        return result, took, took / statistics.fmean(self.seen[first:])


NO_PAUSES = types.SimpleNamespace(paused_ns=0)


class Loop:
    """Closed loop over ``ops``, cycling through them in order, in rounds.

    Each round keeps its operations, its time and the latency of each call.
    The caller then gives the round the machine's slowness while it ran
    (``scale``). The run's rate is operations over scaled time. Its latency
    percentiles are taken over operations, each op's latency being the
    median of its scaled latencies over the run (of its first
    SAMPLES_PER_OP), so that a call caught by an interrupt or by cold caches
    does not make the tail, while the ops that are slow every time do. With
    ``per_pair`` a call's latency is its time per operation (on fuzz, per
    compared pair: the pairs inside one differential_fuzz call cannot be
    timed apart). Without ``latencies`` only the rate is kept.
    """

    def __init__(self, ops, call, per_pair=False, latencies=True):
        self.ops, self.call, self.per_pair, self.keep = ops, call, per_pair, latencies
        self.next = 0
        self.attempted = self.failed = 0
        self.forget_timings()

    def run(self, seconds, pauses=NO_PAUSES, spans=None, name_id=0):
        """Calls for about ``seconds``; returns operations per second
        (unscaled). Time counted in ``pauses.paused_ns`` meanwhile (speed
        samples) is left out of the round and of the latencies. With
        ``spans``, each call's start and end are recorded as a span."""
        ops, call, per_pair = self.ops, self.call, self.per_pair
        latencies = self.round_latencies = array("q")
        record = latencies.append if self.keep else _discard
        self.round_first = i = self.next
        count = len(ops)
        done = bad = 0
        paused_at_start = pauses.paused_ns
        start = t1 = ns()
        deadline = start + int(seconds * 1e9)
        while t1 < deadline:
            op = ops[i]
            paused = pauses.paused_ns
            t0 = ns()
            n, failed = call(op)
            t1 = ns()
            took = t1 - t0 - (pauses.paused_ns - paused)
            record(took // n if per_pair else took)
            if spans is not None:
                spans.extend((name_id, i, t0, t1))
            done += n
            bad += failed
            i = i + 1 if i + 1 < count else 0
        self.next = i
        self.samples += len(latencies)
        self.attempted += done
        self.failed += bad
        busy = t1 - start - (pauses.paused_ns - paused_at_start)
        self.round_done.append(done)
        self.round_ns.append(busy)
        return done * 1e9 / busy

    def settle(self, seconds):
        """Checked calls for about ``seconds``, untimed."""
        ops, call = self.ops, self.call
        i, count = self.next, len(ops)
        deadline = ns() + int(seconds * 1e9)
        while ns() < deadline:
            n, failed = call(ops[i])
            self.attempted += n
            self.failed += failed
            i = i + 1 if i + 1 < count else 0
        self.next = i

    def scale(self, slowness):
        """The machine's slowness during the round just run."""
        self.slowness.append(slowness)
        i, count = self.round_first, len(self.ops)
        for took in self.round_latencies:
            raw, scaled = self.by_op[i]
            if len(raw) < SAMPLES_PER_OP:
                raw.append(took)
                scaled.append(took / slowness)
            i = i + 1 if i + 1 < count else 0
        self.round_latencies = array("q")

    def forget_timings(self):
        """Drop the timings seen so far (a warm-up's); its checks still count."""
        self.samples = 0
        self.round_done, self.round_ns, self.slowness = [], [], []
        self.round_latencies = array("q")
        self.by_op = [(array("f"), array("f")) for _ in self.ops] if self.keep else []

    @property
    def rounds(self):
        return len(self.round_ns)

    def rate(self, scaled=True):
        """Operations per second over all rounds."""
        slowness = self.slowness if scaled else [1.0] * self.rounds
        assert len(slowness) == self.rounds
        return sum(self.round_done) * 1e9 / sum(t / s for t, s in zip(self.round_ns, slowness))

    def ops_timed(self):
        return sum(1 for raw, _ in self.by_op if raw)

    def latency_us(self, share, scaled=True):
        """The nearest-rank ``share`` quantile over ops of each op's median latency."""
        medians = sorted(statistics.median(scaled_ns if scaled else raw_ns)
                         for raw_ns, scaled_ns in self.by_op if raw_ns)
        return medians[-(-len(medians) * share // 100) - 1] / 1e3  # nearest rank


def _discard(_latency):
    pass


NOT_A_FEN = "not a FEN"


def check_fuzz_driver(fs, w):
    """Check that differential_fuzz compares what it should; returns (pairs
    attempted, pairs failed). Untimed.

    On correct code its report says only "every pair compared, none
    mismatched", which a driver that compared nothing would say too. So each
    of ``w.canaries`` is fuzzed with ``oracle_apply`` replaced, in every
    module of the package, by a stand-in that records its input and answers
    NOT_A_FEN. The driver must then hand the oracle exactly the pairs set-up
    listed, count every pair as a mismatch, and show the string path's
    expected result in its first counterexample.
    """
    real, seen = fs.oracle_apply, []

    def stand_in(fen, move, *args, **kwargs):
        seen.append((fen, move))
        return NOT_A_FEN

    modules = [fs] + [m for m in vars(fs).values() if isinstance(m, types.ModuleType)]
    bound = [(m, key) for m in modules for key, value in vars(m).items() if value is real]
    attempted = failed = 0
    for m, key in bound:
        setattr(m, key, stand_in)
    try:
        for iterations, seed, options, expected in w.canaries:
            seen.clear()
            try:
                report = fs.differential_fuzz(iterations, seed, options)
                fen, move, after = expected[0]
                ok = (seen == [pair[:2] for pair in expected] and report.positions == iterations
                      and report.mismatches == iterations
                      and report.first_counterexample == (fen, move, after, NOT_A_FEN))
            except Exception:
                ok = False
            attempted += iterations
            failed += 0 if ok else iterations
    finally:
        for m, key in bound:
            setattr(m, key, real)
    return attempted, failed


# --- the CLI, as a user runs it ---------------------------------------------

class Cli:
    """Runs ``python -m fenstring.cli`` from the checkout's src/ and checks `play`."""

    def __init__(self, root, workdir, game, tag):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.start, self.moves, self.expected = game
        self.moves_file = workdir / f"{tag}-{os.getpid()}.moves"
        self.attempted = self.failed = 0

    def _run(self, *args):
        return self._run_python("-m", "fenstring.cli", *args)

    def _run_python(self, *args):
        t0 = ns()
        proc = subprocess.run([sys.executable, *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc, ns() - t0

    def bare_start(self):
        """The wall time of an interpreter start that imports nothing of the package."""
        return self._run_python("-c", "pass")[1]

    def startup(self):
        proc, wall = self._run("validate", self.start)
        self.attempted += 1
        self.failed += proc.returncode != 0 or proc.stdout.strip() != self.start
        return wall

    def play(self):
        self.moves_file.write_text("\n".join(self.moves) + "\n")
        try:
            proc, wall = self._run("play", self.start, str(self.moves_file))
        finally:
            self.moves_file.unlink()
        got = proc.stdout.splitlines()
        self.attempted += len(self.expected)
        if proc.returncode != 0 or got != self.expected:
            self.failed += max(1, sum(a != b for a, b in zip(got, self.expected))
                               + abs(len(got) - len(self.expected)))
        return wall


# --- end to end ---------------------------------------------------------------

def warm_up(fs, w, primary, *others):
    """Untimed first calls of each loop, with the fuzz driver's check; returns
    that check's (attempted, failed). A fuzz call lasts seconds, so on fuzz
    the check, which runs differential_fuzz on each chain's head, stands in
    for the primary loop's warm-up."""
    checked = check_fuzz_driver(fs, w)
    for loop in others if w.name == "fuzz" else (primary, *others):
        loop.run(WARMUP_S)
        loop.forget_timings()
    return checked


def end_to_end(fs, w, seconds, root, workdir, speed):
    """The end-to-end metrics of one workload (set-up time excepted),
    scaled and unscaled, with the counts of operations attempted and failed.

    The string path, the array path and the CLI take turns through the whole
    run, and the machine's speed is measured between every two of them.
    """
    cli = Cli(root, workdir, w.game, w.name)
    primary = Loop(w.primary, primary_call(fs, w.name), per_pair=w.name == "fuzz")
    oracle = Loop(w.requests, array_call(fs), latencies=False)
    cli.play()  # warm-up: the first start-up of the interpreter reads files cold
    checked, check_failed = warm_up(fs, w, primary, oracle)
    walls, scaled_walls = [], []
    cli_runs = max(1, round(seconds / CLI_EVERY_S))
    speed.slowness()
    start = ns()
    # on fuzz a run lasts until each of the four chains has been fuzzed, so
    # the CLI runs are spread by the share of the run done, whichever of its
    # time and its chains is behind, and run after the round they fall in
    while True:
        done = min(1.0, (ns() - start) / (seconds * 1e9), primary.samples / len(w.primary))
        while len(walls) < done * cli_runs:
            # a CLI run is a bare interpreter start, whose speed follows the
            # machine's process start-up more than its CPU, and the package's
            # import and play: so the bare start, timed right after, is
            # replaced by its reference time, and the rest is scaled by the
            # speed measured just before and just after (the process and the
            # CLI it starts share one CPU)
            before = speed.seen[-1]
            walls.append(cli.play())
            slowness = (before + speed.slowness()) / 2
            scaled_walls.append(REFERENCE_START_NS + (walls[-1] - cli.bare_start()) / slowness)
        if done == 1.0:
            break
        speed.round(primary, ROUND_S)
        speed.round(oracle, min(ARRAY_SHARE * primary.round_ns[-1] / 1e9, ARRAY_ROUND_MAX_S))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plies = len(w.game[1])
    metrics, raw = {}, {}
    for out, scaled in ((metrics, True), (raw, False)):
        out.update({
            "throughput_ops_s": primary.rate(scaled),
            "latency_p50_us": primary.latency_us(50, scaled),
            "latency_p99_us": primary.latency_us(99, scaled),
            "array_throughput_ops_s": oracle.rate(scaled),
            "cli_play_plies_s": plies * 1e9 / statistics.median(scaled_walls if scaled else walls),
            "peak_rss_mb": peak_rss_mb,
        })
    counts = {
        "primary_operations": primary.attempted,
        "primary_rounds": primary.rounds,
        "latency_samples": primary.samples,
        "latency_ops_timed": primary.ops_timed(),
        "array_operations": oracle.attempted,
        "array_rounds": oracle.rounds,
        "cli_play_runs": len(walls),
        "cli_plies": cli.attempted,
        "fuzz_driver_checked_pairs": checked,
        "speed_measurements": len(speed.seen),
        "slowness_median": statistics.median(speed.seen),
        "slowness_min": min(speed.seen),
        "slowness_max": max(speed.seen),
    }
    return (metrics, raw, counts, primary.attempted + oracle.attempted + cli.attempted + checked,
            primary.failed + oracle.failed + cli.failed + check_failed)


# --- traced run ---------------------------------------------------------------

class Tracer:
    """Spans in memory as flat int64 records: name id, request id, start, end."""

    def __init__(self):
        self.names = []
        self.spans = array("q")

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def call(self, nid, req, fn, args):
        """fn(*args) inside one span; an exception is returned, not raised,
        because error paths are timed too."""
        t0 = ns()
        try:
            result = fn(*args)
        except Exception as exc:
            result = exc
        t1 = ns()
        self.spans.extend((nid, req, t0, t1))
        return result

    def stage(self, name, fn, calls):
        """One span per (request id, args) in ``calls``; returns the results."""
        nid = self.name_id(name)
        return [self.call(nid, req, fn, args) for req, args in calls]

    def by_request(self, overhead_ns):
        """{name: {request id: summed duration in ns}} and {name: span count},
        with the cost of taking a span subtracted from each."""
        totals, counts = {}, {}
        it = iter(self.spans)
        for nid, req, t0, t1 in zip(it, it, it, it):
            name = self.names[nid]
            per = totals.setdefault(name, {})
            per[req] = per.get(req, 0) + (t1 - t0 - overhead_ns)
            counts[name] = counts.get(name, 0) + 1
        return totals, counts

    def write(self, path):
        with gzip.open(path, "wt") as out:
            json.dump({"fields": ["name", "request", "start_ns", "end_ns"],
                       "names": self.names, "spans": self.spans.tolist()}, out)


def stage_plan(fs, w, tracer):
    """For each sample request, apply_move and the calls it makes, with the
    arguments it would pass; and the same request's array-path calls.
    Derived outside any timing."""
    nid = tracer.name_id
    plan = []
    for i, (fen, move, options, after, _) in enumerate(w.sample):
        record, mv = fs.parse_fen(fen), fs.parse_move(move)
        src, dst = mv.from_square, mv.to_square
        touched = sorted({fs.segment_index(src.rank), fs.segment_index(dst.rank)})
        after_ranks = after.split()[0].split("/")
        mover, captured = fs.piece_at(record, src), fs.piece_at(record, dst)
        en_passant = (mover.kind == "P" and record.en_passant == dst
                      and abs(src.file - dst.file) == 1 and abs(src.rank - dst.rank) == 1)
        steps = [(nid("move_apply.apply_move"), fs.apply_move, (fen, move, options)),
                 (nid("fen_codec.parse_fen"), fs.parse_fen, (fen,))]
        try:
            fs.parse_fen(fen, "strict")
            steps.append((nid("fen_codec.parse_fen_strict"), fs.parse_fen, (fen, "strict")))
        except fs.FenstringError:
            pass
        if options.validation == "strict":  # apply_move re-checks its result
            steps.append((nid("fen_codec.parse_fen_strict"), fs.parse_fen, (after, "strict")))
        steps += [(nid("segment_ops.expand_rank"), fs.expand_rank, (record.ranks[k],))
                  for k in touched]
        steps += [(nid("segment_ops.contract_rank"), fs.contract_rank,
                   (fs.expand_rank(after_ranks[k]),)) for k in touched]
        steps += [
            (nid("move_apply.parse_move"), fs.parse_move, (move,)),
            (nid("move_apply.update_castling_rights"), fs.update_castling_rights,
             (record.castling, mover, src, dst, captured)),
            (nid("move_apply.derive_en_passant"), fs.derive_en_passant,
             (after_ranks, mover, src, dst, options.ep_mode)),
            (nid("move_apply.update_clocks"), fs.update_clocks,
             (record.halfmove, record.fullmove, mover, captured is not None or en_passant,
              options.clock_mode)),
        ]
        array_steps = [
            (nid("oracle.board_from_fen"), fs.board_from_fen, (fen,)),
            (nid("oracle.fen_from_board"), fs.fen_from_board, (fs.board_from_fen(fen),)),
            (nid("oracle.oracle_apply"), fs.oracle_apply, (fen, move, options)),
            (nid("oracle.random_pseudo_move"), fs.random_pseudo_move, (fen, i)),
        ]
        plan.append((steps, array_steps))
    return plan


def per_layer(fs, w, seconds, root, workdir, spans_path):
    """The per-layer metrics of one workload, from a traced run."""
    tracer = Tracer()

    # the primary loop in pairs of one untraced and one traced round on the
    # same operations, in alternating order so that drift in machine speed
    # cancels within a pair. A whole fuzz chain takes seconds, so on fuzz the
    # pairs run differential_fuzz on the chains' heads.
    ops = w.fuzz_calls if w.name == "fuzz" else w.primary
    primary = Loop(ops, primary_call(fs, w.name), per_pair=w.name == "fuzz")
    checked, check_failed = warm_up(fs, w, primary)
    primary_id = tracer.name_id("primary." + PRIMARY_FUNCTION[w.name])
    overheads = []
    end = ns() + int(seconds * 0.5e9)
    while ns() < end:
        first = primary.next
        rate = {}
        for traced in (False, True) if len(overheads) % 2 == 0 else (True, False):
            primary.next = first
            rate[traced] = primary.run(ROUND_S / 2, NO_PAUSES, tracer.spans if traced else None,
                                       primary_id)
        overheads.append((rate[False] - rate[True]) / rate[False] * 100)

    # every public function on the same precomputed inputs. The calls for one
    # request follow each other, so differences between them are taken over
    # a few hundred microseconds, in which the machine's speed barely drifts.
    # An untimed play_sequence first warms the caches for the whole group, and
    # the array path runs after the string path so that it does not evict it.
    tracer.stage("trace.empty_call", lambda: None, [(i, ()) for i in range(EMPTY_CALLS)])
    plan = stage_plan(fs, w, tracer)
    apply_id = tracer.name_id("move_apply.apply_move")
    play_id = tracer.name_id("move_apply.play_sequence")
    reject_id = tracer.name_id("fen_codec.parse_fen_reject")
    outcomes = []
    for rep in range(STAGE_REPS):
        i = 0
        for j, (start, moves, options, _) in enumerate(w.sample_sequences):
            try:
                fs.play_sequence(start, moves, options)
            except Exception:  # the timed call below records what went wrong
                pass
            tracer.call(play_id, j, fs.play_sequence, (start, moves, options))
            group = range(i, i + len(moves))
            for k in group:
                for nid, fn, args in plan[k][0]:
                    result = tracer.call(nid, k, fn, args)
                    if rep == 0 and nid == apply_id:
                        outcomes.append(result)
            for k in group:
                for nid, fn, args in plan[k][1]:
                    tracer.call(nid, k, fn, args)
            i += len(moves)
        for k, args in enumerate(w.bad_fens):
            tracer.call(reject_id, k, fs.parse_fen, args)
    calls = list(enumerate(w.fuzz_calls))
    tracer.stage("fuzzing.fuzz_pairs", lambda *a: list(fs.fuzz_pairs(*a)), calls)
    reports = tracer.stage("fuzzing.differential_fuzz", fs.differential_fuzz, calls)

    # the CLI
    cli = Cli(root, workdir, w.game, w.name)
    cli.play()  # warm-up
    for name, run, times in (("cli.startup", cli.startup, CLI_STARTUP_RUNS),
                             ("cli.play", cli.play, CLI_PLAY_RUNS)):
        tracer.stage(name, run, [(j, ()) for j in range(times)])

    totals, counts = tracer.by_request(0)
    overhead = sum(totals["trace.empty_call"].values()) / counts["trace.empty_call"]
    totals, counts = tracer.by_request(round(overhead))

    def us(name):
        return sum(totals[name].values()) / counts[name] / 1e3

    apply_ns = totals["move_apply.apply_move"]
    stage_names = ("segment_ops.expand_rank", "segment_ops.contract_rank", "move_apply.parse_move",
                   "move_apply.update_castling_rights", "move_apply.derive_en_passant",
                   "move_apply.update_clocks")
    residual = []
    for i, (*_r, options, _a, _b) in enumerate(w.sample):
        parse = "fen_codec.parse_fen_strict" if options.validation == "strict" else "fen_codec.parse_fen"
        residual.append(apply_ns[i] - totals[parse][i] - sum(totals[n][i] for n in stage_names))
    plies = len(w.sample)
    pairs = sum(call[0] for call in w.fuzz_calls)
    fuzz_pairs_us = sum(totals["fuzzing.fuzz_pairs"].values()) / pairs / 1e3
    mismatches = sum(r.mismatches + abs(c[0] - r.positions) if hasattr(r, "mismatches") else c[0]
                     for r, c in zip(reports, w.fuzz_calls))
    touched = [len(o.segments_touched) for o in outcomes if hasattr(o, "segments_touched")]
    startup = statistics.median(totals["cli.startup"].values()) / 1e9
    play = statistics.median(totals["cli.play"].values()) / 1e9
    attempted = primary.attempted + pairs + cli.attempted + checked
    failed = primary.failed + mismatches + cli.failed + check_failed

    metrics = {name: us(name[:-3]) for name in STAGE_UNITS if name.endswith(".us")}
    metrics.update({
        "move_apply.apply_move.residual_us": statistics.fmean(residual) / STAGE_REPS / 1e3,
        "move_apply.play_sequence.overhead_us_per_ply":
            (sum(totals["move_apply.play_sequence"].values()) - sum(apply_ns.values()))
            / plies / STAGE_REPS / 1e3,
        "move_apply.segments_touched_per_op": statistics.fmean(touched) if touched else 0.0,
        "oracle.string_array_ratio": us("oracle.oracle_apply") / us("move_apply.apply_move"),
        "fuzzing.fuzz_pairs.us_per_pair": fuzz_pairs_us,
        "fuzzing.compare.us_per_pair":
            sum(totals["fuzzing.differential_fuzz"].values()) / pairs / 1e3 - fuzz_pairs_us,
        "fuzzing.mismatches": mismatches,
        "cli.startup_s": startup,
        "cli.play.us_per_ply": (play - startup) / len(w.game[1]) * 1e6,
        "trace.overhead_pct": statistics.median(overheads),
        "fail_rate": failed / attempted,
    })
    tracer.write(spans_path)
    counts_out = {
        "primary_operations": primary.attempted,
        "primary_round_pairs": len(overheads),
        "sample_requests": plies,
        "stage_passes": STAGE_REPS,
        "fuzz_pairs": pairs,
        "cli_plies": cli.attempted,
        "fuzz_driver_checked_pairs": checked,
        "spans": len(tracer.spans) // 4,
        "span_overhead_ns": overhead,
    }
    return {name: metrics[name] for name in STAGE_UNITS}, counts_out, attempted, failed

