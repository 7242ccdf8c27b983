"""Command-line surface: plan, pack, stages, curate, annotate, validate, tile.

All data flows as newline-delimited UTF-8 JSON on stdin/stdout (or --input/
--output paths); diagnostics go to stderr. Option values layer as flags >
environment (MMPREP_<CMD>_<DEST>, e.g. MMPREP_PLAN_L_MAX) > --config file >
defaults, and every subcommand echoes its effective configuration to stderr.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 partial annotation
failures. Every rejection of input, in any module, is a jsonl.InputError,
which main catches once: it prints "Error: <message>" to stderr and exits 1.
So the commands hold no error handling of their own. Line-oriented inputs
(manifests, plan files, job files) are read as bytes, from a path or from
stdin alike, through jsonl.lines, so a bad line reads "malformed <kind> record
(<reason>) at line N" and a byte that is not UTF-8 "input <name> is not UTF-8
at line N" in every command. plan, pack and tile hand their per-range work
to jsonl.run_ranges, which splits a long enough --input file over the usable
CPUs and gives what one process gives; stdin is read in one process. pack
runs composer.pack once, over the (id, tokens) pairs of every range.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _json_ascii

# curator (numpy) and the annotator (urllib, http.client) are imported inside
# the functions of `curate` and `annotate`: the other commands never load them.
from . import budget, composer, manifest, tiling
from .jsonl import InputError, lines, run_ranges

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_PARTIAL = 3


def _number(kind: type, low: float, high: float | None = None, low_open: bool = False):
    """An argparse type: text read as kind (int or float), finite, in [low, high], or (low, high] if low_open."""
    bounds = f"x{'>' if low_open else '>='}{low}" if high is None else f"{low}{'<' if low_open else '<='}x<={high}"
    what = "an integer" if kind is int else "a finite number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # fails every comparison below
        if not (value < math.inf and (low < value if low_open else low <= value) and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what} in the range {bounds}")
        return value

    return parse


def _directory(path: str) -> str:
    """An argparse type: a path that is not a regular file (a missing one is the reader's to report)."""
    if os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"directory {path!r} is a file")
    return path


# Distinct image sizes one command remembers grids for; an entry, key included,
# is about 0.4 kB, so a full memo holds about 1.6 MB.
GRID_MEMO_SIZE = 4096


def _grid_memo():
    """tiling.best_grids memoized by image dims, for one command invocation only.

    Image sizes repeat within a manifest, so a run looks each size up once. The
    memo is made per command, never at module level: a cache that outlived one
    command would carry grids into the next command in the same process.
    """
    return functools.lru_cache(maxsize=GRID_MEMO_SIZE)(tiling.best_grids)


@contextmanager
def _open_in(path: str):
    """The input's bytes, for jsonl.lines to split and decode, with the name its errors give it."""
    if path == "-":
        yield sys.stdin.buffer, "stdin"
    else:
        with open(path, "rb") as fh:
            yield fh, path


@contextmanager
def _open_out(path: str, mode: str = "w"):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh


def plan_cmd(input_path, output_path, l_max, min_frames, fps_target, jobs):
    """Allocate token budgets for each manifest sample (one JSON plan per line)."""
    cfg = budget.BudgetConfig(l_max=l_max, min_frames=min_frames, fps_target=fps_target)
    grids_of = _grid_memo()

    def plan_range(numbered, seen, fout):
        planned = discarded = 0
        for line_no, text in numbered:
            p = budget.plan(manifest.parse_record(text, line_no, seen), cfg, grids_of, line_no)
            fout.write(budget.dumps_plan(p) + "\n")
            planned, discarded = planned + p.planned, discarded + (not p.planned)
        return planned, discarded

    with _open_in(input_path) as (fin, name), _open_out(output_path) as fout:
        planned, discarded = map(sum, zip(*run_ranges(fin, name, plan_range, fout, split=input_path != "-")))
    print(f"planned {planned}, discarded {discarded}", file=sys.stderr)


def pack_cmd(input_path, output_path, l_max):
    """Pack planned samples into fixed-capacity training sequences."""

    def pack_range(numbered, seen, _):
        sizes, skipped = [], 0
        for line_no, text in numbered:
            p = budget.read_plan(text, line_no, seen)
            if not p.planned:
                skipped += 1
            elif p.total_tokens > l_max:
                raise InputError(f"plan {p.sample_id!r} has {p.total_tokens} tokens, exceeding pack capacity {l_max}",
                                 line_no, "total_tokens")
            else:  # packing reads only the id and token count, so the timestamps and grids go with the line
                sizes.append((p.sample_id, p.total_tokens))
        return sizes, skipped

    with _open_in(input_path) as (fin, name):
        ranges = run_ranges(fin, name, pack_range, None, split=input_path != "-")
    sizes = [pair for range_sizes, _ in ranges for pair in range_sizes]
    skipped = sum(n for _, n in ranges)
    packs = composer.pack(sizes, l_max)
    with _open_out(output_path) as fout:  # each line byte for byte json.dumps(pack dict) + "\n", ensure_ascii
        for pack_id, (member_ids, total) in enumerate(packs):
            fout.write(f'{{"pack_id": {pack_id}, "member_ids": [{", ".join(map(_json_ascii, member_ids))}], '
                       f'"total_tokens": {total}}}\n')
    if packs:
        utils = [total / l_max for _, total in packs]
        print(f"{len(packs)} packs from {len(sizes)} plans ({skipped} discarded skipped), utilization "
              f"mean={sum(utils) / len(utils):.4f} min={min(utils):.4f} max={max(utils):.4f}", file=sys.stderr)
    else:
        print("no packs produced", file=sys.stderr)


def stages_cmd(output_path):
    """Emit the progressive training stage table as one JSON document."""
    doc = [s._asdict() for s in composer.progressive_stages()]
    with _open_out(output_path) as fout:
        fout.write(json.dumps(doc, indent=2) + "\n")


# What follows the id on a tile line, for each grid, read from tiling's per-grid
# tables: a line is byte for byte json.dumps({"id", "grid", "tokens", "canvas"})
# + "\n" with json.dumps's default ensure_ascii.
_TILE_TAILS = {
    g: f', "grid": {text}, "tokens": {tiling.GRID_TOKENS[g]}, '
       f'"canvas": [{g.cols * tiling.TILE_SIZE_PX}, {g.rows * tiling.TILE_SIZE_PX}]}}\n'
    for g, text in tiling.GRID_TEXT.items()
}


def tile_cmd(input_path, output_path, tile_cap):
    """Emit tiling geometry for every image in a manifest (one JSON object per image)."""
    grids_of = _grid_memo()

    def tile_range(numbered, seen, fout):
        for line_no, text in numbered:
            sample = manifest.parse_record(text, line_no, seen)
            head = '{"id": ' + _json_ascii(sample.id)
            for item in sample.items:
                if item.kind == "image":
                    fout.write(head + _TILE_TAILS[grids_of(item.dims)[tile_cap - 1]])

    with _open_in(input_path) as (fin, name), _open_out(output_path) as fout:
        run_ranges(fin, name, tile_range, fout, split=input_path != "-")


def curate_cmd(output_path, reference_dir, candidates_dir, tau, pool, jobs):
    """Select novel candidate videos by max clip similarity against a reference set."""
    from . import curator

    records = curator.curate(reference_dir, candidates_dir, tau, pool)
    selected = total = 0
    with _open_out(output_path) as fout:
        for rec in records:
            fout.write(json.dumps(rec) + "\n")
            selected, total = selected + rec["selected"], total + 1
    print(f"{selected}/{total} candidate videos selected at tau={tau}", file=sys.stderr)


def _make_client(endpoint: str, model: str, temperature: float, rpm: float | None):
    """The annotator's HttpClient for the endpoint, rate-limited when rpm is set."""
    from .annotator import pipeline as annot

    limiter = annot.RateLimiter(rpm) if rpm else None
    return annot.HttpClient(endpoint, model, temperature, limiter)


def annotate_cmd(input_path, output_path, endpoint, model, temperature, max_in_flight, retry_budget, rpm, seed):
    """Run the caption/QA/anchor pipeline over a job file."""
    from .annotator import pipeline as annot

    with _open_in(input_path) as (fin, name):
        jobs = annot.parse_jobs(fin, name)
    client = _make_client(endpoint, model, temperature, rpm)
    policy = annot.RetryPolicy(max_retries=retry_budget, max_in_flight=max_in_flight, seed=seed)
    # Append, so an earlier run's records are kept. A rerun repeats every job:
    # nothing is skipped on resume yet.
    with _open_out(output_path, mode="a") as fout:
        records = annot.run_pipeline(
            jobs, client, policy,
            on_record=lambda rec: (fout.write(json.dumps(rec, ensure_ascii=False) + "\n"), fout.flush()),
        )
    failed = sum(r["status"] != "ok" for r in records)
    print(f"{len(records) - failed}/{len(records)} jobs annotated, {failed} failed", file=sys.stderr)
    return EXIT_PARTIAL if failed else EXIT_OK


def validate_cmd(input_path, output_path, kind, l_max):
    """Lint a manifest or plan file; emits one JSON error record per defect."""
    errors: list[dict] = []
    count = 0
    seen: set[str] = set()
    with _open_in(input_path) as (fin, name):
        for line_no, text in lines(fin, name):
            count += 1
            try:
                if kind == "manifest":
                    manifest.parse_record(text, line_no, seen)
                else:
                    budget.check_plan(budget.read_plan(text, line_no, seen), line_no, l_max)
            except InputError as exc:
                errors.append({"line": exc.line, "field": exc.field, "error": str(exc)})
    if kind == "manifest":
        print(f"{count - len(errors)} valid samples, {len(errors)} errors", file=sys.stderr)
    else:
        print(f"{count} plans checked, {len(errors)} errors", file=sys.stderr)
    with _open_out(output_path) as fout:
        for e in errors:
            fout.write(json.dumps(e) + "\n")
    return EXIT_VALIDATION if errors else EXIT_OK


# Each command's function and its options, {dest: (option strings, add_argument keywords)}. The dest
# names the function's parameter, the config key and the environment variable; layered values use
# the first option string.
_INPUT = {"input_path": (("--input", "-i"), dict(metavar="FILE", default="-", help="Input file ('-' for stdin)."))}
_OUTPUT = {"output_path": (("--output", "-o"), dict(metavar="FILE", default="-", help="Output file ('-' for stdout)."))}
_L_MAX = {"l_max": (("--l-max",), dict(type=_number(int, 1), default=32768, help="Token budget of one sequence."))}
_JOBS = {"jobs": (("--jobs",), dict(type=int, default=1, help="Accepted for compatibility and ignored."))}
COMMANDS = {
    "plan": (plan_cmd, {
        **_INPUT, **_OUTPUT, **_L_MAX,
        "min_frames": (("--min-frames",), dict(type=_number(int, 1), default=8)),
        "fps_target": (("--fps-target",), dict(type=_number(float, 0, low_open=True), default=2.0)),
        **_JOBS,
    }),
    "pack": (pack_cmd, {**_INPUT, **_OUTPUT, **_L_MAX}),
    "stages": (stages_cmd, _OUTPUT),
    "tile": (tile_cmd, {
        **_INPUT, **_OUTPUT,
        "tile_cap": (("--tile-cap",), dict(type=_number(int, 1, tiling.MAX_TILES), default=tiling.MAX_TILES,
                                           help="Per-image tile cap.")),
    }),
    "curate": (curate_cmd, {
        **_OUTPUT,
        "reference_dir": (("--reference",), dict(type=_directory, metavar="DIR", required=True)),
        "candidates_dir": (("--candidates",), dict(type=_directory, metavar="DIR", required=True)),
        "tau": (("--tau",), dict(type=_number(float, -1, 1, low_open=True), default=0.5,
                                 help="Novelty similarity threshold.")),
        "pool": (("--pool",), dict(choices=["mean", "max"], default="mean")),
        **_JOBS,
    }),
    "annotate": (annotate_cmd, {
        **_INPUT, **_OUTPUT,
        "endpoint": (("--endpoint",), dict(metavar="URL", required=True)),
        "model": (("--model",), dict(default="gpt-4o")),
        "temperature": (("--temperature",), dict(type=_number(float, 0), default=0.2)),
        "max_in_flight": (("--max-in-flight",), dict(type=_number(int, 1), default=4)),
        "retry_budget": (("--retry-budget",), dict(type=_number(int, 0), default=3)),
        "rpm": (("--rpm",), dict(type=_number(float, 0, low_open=True), help="Request rate limit per minute.")),
        "seed": (("--seed",), dict(type=int, default=0)),
    }),
    "validate": (validate_cmd, {
        **_INPUT, **_OUTPUT, "kind": (("--kind",), dict(choices=["manifest", "plans"], default="manifest")), **_L_MAX,
    }),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser with --help alone, no abbreviations, and usage errors raised as InputError."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise InputError(f"{message}\n{self.format_usage().rstrip()}")


# No path or option value can hold either; json.load joins every escaped surrogate pair, so a surrogate left
# in a decoded string is unpaired.
_NUL_OR_SURROGATE = re.compile("[\0\ud800-\udfff]")


def _config_values(path: str | None, command: str) -> list[tuple[str, str | int | float]]:
    """The config file's (dest, value) pairs for command, once every key and value of the file is checked."""
    if not path:
        return []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
            raise InputError(f"config file {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    pairs = []
    for name, values in raw.items():
        if name not in COMMANDS:
            raise InputError(f"config file {path}: {name!r} names no subcommand")
        if not isinstance(values, dict):
            raise InputError(f"config file {path}: {name!r} must hold a JSON object of option defaults")
        for key, value in values.items():
            dest = key.replace("-", "_")
            if dest not in COMMANDS[name][1]:
                raise InputError(f"config file {path}: {name!r} has no option {key!r}")
            if type(value) not in (str, int, float):
                raise InputError(f"config file {path}: {name!r} option {key!r} must be a JSON string or number")
            if type(value) is str and _NUL_OR_SURROGATE.search(value):
                raise InputError(f"config file {path}: {name!r} option {key!r} holds a NUL or an unpaired surrogate")
            if name == command:
                pairs.append((dest, value))
    return pairs


def _parse(argv: list[str]):
    """(command name, its function, its option values) from the config file, the environment and argv."""
    top = _Parser(prog="mmprep", formatter_class=argparse.RawDescriptionHelpFormatter,
                  description="Planning and curation toolkit for long-context multimodal training data.",
                  epilog="commands:\n" + "\n".join(f"  {name:<9} {f.__doc__}" for name, (f, _) in COMMANDS.items()))
    top.add_argument("--config", dest="config_path", metavar="FILE", default=os.environ.get("MMPREP_CONFIG_PATH"),
                     help="JSON file with per-subcommand option defaults.")
    top.add_argument("command", choices=COMMANDS, metavar="command")
    top.add_argument("args", nargs=argparse.REMAINDER, help="the command's options (see mmprep <command> --help)")
    ns = top.parse_args(argv)
    func, options = COMMANDS[ns.command]
    parser = _Parser(prog=f"mmprep {ns.command}", description=func.__doc__,
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    for dest, (flags, kwargs) in options.items():
        parser.add_argument(*flags, dest=dest, **kwargs)
    # Config, then environment values go in front of the user's flags as --flag=value; argparse
    # keeps the last value it sees, and every source passes the same checks before input is read.
    env = f"MMPREP_{ns.command.upper()}_"
    layered = [*_config_values(ns.config_path, ns.command),
               *((dest, os.environ[env + dest.upper()]) for dest in options if env + dest.upper() in os.environ)]
    return ns.command, func, parser.parse_args([*(f"{options[d][0][0]}={v}" for d, v in layered), *ns.args])


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        name, func, options = _parse(sys.argv[1:] if argv is None else argv)
        print(f"mmprep {name} config: {json.dumps(vars(options))}", file=sys.stderr)
        return func(**vars(options)) or EXIT_OK
    except SystemExit as exc:  # --help, after printing the help
        return exc.code
    except InputError as exc:  # bad input from any command, or a usage error
        print(f"Error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
