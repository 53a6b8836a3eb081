"""Command-line interface.

Exit statuses: 0 success, 1 internal failure (or fuzz mismatch), 2
input-format error (any typed error that is not a move error), 3
move-application error.

Each command imports what only it uses (json, the oracle, the fuzzer, the
legacy codec), so that `play` loads the string path and nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import FenstringError, MoveError
from .fen_codec import (
    _OPTION_VALUES, FenRecord, _en_passant_field, _fen_text, _parse_clock, _read_fen,
    parse_castling,
)
from .move_apply import ApplyOptions, ApplyOutcome, _iter_sequence, apply_move

# `bench` times the workload in this many batches, each on both paths
BENCH_BATCHES = 10

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_MOVE = 3

# FENs per write to stdout in `play`. On an unbuffered stream (PYTHONUNBUFFERED)
# print would make two write(2) calls per ply; a block makes one
PLAY_BLOCK = 256


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but help that cannot be written raises, where
    argparse's own would drop the OSError: a closed stdout then ends -h as
    it ends every command. Subparsers are built of the same class. Usage
    errors still go through argparse's writer, which exits 2 on a closed
    stderr too."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _positive_int(text: str) -> int:
    # argparse would name this function in its message for a ValueError
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _add_apply_options(parser: argparse.ArgumentParser) -> None:
    for name, values in _OPTION_VALUES.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, choices=values, default=getattr(ApplyOptions(), name))


def _options_from(args) -> ApplyOptions:
    return ApplyOptions(**{name: getattr(args, name) for name in _OPTION_VALUES})


def _validate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("fen")
    parser.add_argument("--validation", choices=_OPTION_VALUES["validation"], default="lenient")


def _apply_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("fen")
    parser.add_argument("move")
    _add_apply_options(parser)
    parser.add_argument("--output", choices=("plain", "record"), default="plain")


def _play_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("fen")
    parser.add_argument("moves_file")
    _add_apply_options(parser)


def _run_arguments(parser: argparse.ArgumentParser, iterations: int) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=_positive_int, default=iterations)
    _add_apply_options(parser)


def _convert_forsyth_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("text")
    parser.add_argument("--side", choices=("w", "b"), default="w")
    parser.add_argument("--castling", default="-")
    parser.add_argument("--ep", default="-")
    parser.add_argument("--halfmove", default="0")
    parser.add_argument("--fullmove", default="1")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone, which parses
    that command's argv as the parser of every command does."""
    parser = _Parser(
        prog="fenstring",
        description="Apply chess moves directly to FEN strings by segment rewriting.",
    )
    # the top-level usage line, printed with an "unrecognized arguments"
    # error, names every command even when one subparser is built
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help, add_arguments, _) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help))
    return parser


def cmd_validate(args) -> int:
    print(_fen_text(_read_fen(args.fen, args.validation)))
    return EXIT_OK


def cmd_apply(args) -> int:
    if args.output == "plain":
        print(apply_move(args.fen, args.move, _options_from(args)).fen_after)
        return EXIT_OK
    import json

    record = dict.fromkeys(ApplyOutcome._fields + ("error",))
    try:
        outcome = apply_move(args.fen, args.move, _options_from(args))
    except FenstringError as exc:
        # the outcome keys stay null; main reports the error and its exit status
        record["error"] = {"code": exc.code, "message": str(exc)}
        print(json.dumps(record))
        raise
    record.update(outcome._asdict(), segments_touched=sorted(outcome.segments_touched))
    print(json.dumps(record))
    return EXIT_OK


def cmd_play(args) -> int:
    options = _options_from(args)
    record = _read_fen(args.fen, options.validation)
    try:
        with open(args.moves_file, encoding="utf-8-sig") as handle:
            moves = []
            for line in handle:
                line = line.split("#", 1)[0].strip()
                if line:
                    moves.append(line)
    except UnicodeDecodeError as exc:
        print(f"{args.moves_file}: not UTF-8 text: {exc.reason}", file=sys.stderr)
        return EXIT_INPUT
    block = []
    try:
        for fen in _iter_sequence(record, moves, options):
            block.append(fen)
            if len(block) == PLAY_BLOCK:
                sys.stdout.write("\n".join(block) + "\n")
                block.clear()
    finally:
        # the plies before a failing one are written before main reports it
        if block:
            sys.stdout.write("\n".join(block) + "\n")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    from .fuzzing import differential_fuzz

    report = differential_fuzz(args.iterations, args.seed, _options_from(args))
    print(report.format())
    return EXIT_OK if report.mismatches == 0 else EXIT_INTERNAL


def cmd_bench(args) -> int:
    from statistics import median

    from .fuzzing import fuzz_pairs
    from .oracle import oracle_apply

    options = _options_from(args)
    workload = list(fuzz_pairs(args.iterations, args.seed, options))
    n = len(workload)
    size = -(-n // BENCH_BATCHES)

    def timed(apply, batch):
        start = time.perf_counter()
        for fen, move in batch:
            apply(fen, move, options)
        return time.perf_counter() - start

    # each batch runs on both paths, in turn string or array first, so that
    # neither path always meets the caches the other one warmed
    string_times, array_times = [], []
    paths = [(string_times, apply_move), (array_times, oracle_apply)]
    for i in range(0, n, size):
        for times, apply in paths:
            times.append(timed(apply, workload[i:i + size]))
        paths.reverse()
    string_secs, array_secs = sum(string_times), sum(array_times)
    ratios = sorted(s / a for s, a in zip(string_times, array_times))

    print(f"iterations: {n}")
    print(f"string path: {n / string_secs:12.1f} ops/s  ({string_secs:.3f} s)")
    print(f"array path:  {n / array_secs:12.1f} ops/s  ({array_secs:.3f} s)")
    print(f"ratio (array/string throughput): {median(ratios):.3f}, "
          f"median of {len(ratios)} alternated batches (low {ratios[0]:.3f}, "
          f"high {ratios[-1]:.3f})")
    return EXIT_OK


def cmd_convert_forsyth(args) -> int:
    from .legacy import parse_legacy_forsyth

    # each field is read by the FEN rule for it, in the order of the fields,
    # before any text is joined: one with a space in it, or an empty one, is
    # named by its own error and not as a field count
    record = FenRecord(parse_legacy_forsyth(args.text), args.side, parse_castling(args.castling),
                       _en_passant_field(args.ep),
                       _parse_clock(args.halfmove, 0, "halfmove clock"),
                       _parse_clock(args.fullmove, 1, "fullmove number"))
    print(_fen_text(record))
    return EXIT_OK


# each command: its help, what adds its arguments to its subparser, its handler
_COMMANDS = {
    "validate": ("parse a FEN and echo its canonical form", _validate_arguments, cmd_validate),
    "apply": ("apply one move to a FEN", _apply_arguments, cmd_apply),
    "play": ("apply a newline-separated moves file, printing each FEN", _play_arguments, cmd_play),
    "fuzz": ("differential fuzz: string path vs array oracle",
             lambda parser: _run_arguments(parser, 1000), cmd_fuzz),
    "bench": ("throughput of the string path vs the array path",
              lambda parser: _run_arguments(parser, 10000), cmd_bench),
    "convert-forsyth": ("convert 1883 Forsyth notation to FEN", _convert_forsyth_arguments,
                        cmd_convert_forsyth),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            # a command named exactly builds its own subparser alone; any other argv all six
            args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
            return _COMMANDS[args.command][2](args)
        finally:
            # a closed stdout raises here, where it is reported, not at exit
            sys.stdout.flush()
    except FenstringError as exc:
        # a sequence's error names its failing ply
        where = f"ply {exc.ply}: " if hasattr(exc, "ply") else ""
        print(f"{where}{exc.code}: {exc}", file=sys.stderr)
        return EXIT_MOVE if isinstance(exc, MoveError) else EXIT_INPUT
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the signal docs' recipe: what stdout buffers goes to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
