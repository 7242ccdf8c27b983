"""Command-line surface: plan, pack, stages, curate, annotate, validate, tile.

All data flows as newline-delimited UTF-8 JSON on stdin/stdout (or --input/
--output paths); diagnostics go to stderr. Option values layer as
flags > environment (MMPREP_* prefix) > --config file > defaults, and every
subcommand echoes its effective configuration to stderr at startup.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 partial annotation
failures. Every rejection of input, in any module, is a jsonl.InputError,
which main catches once: it prints "Error: <message>" to stderr and exits 1.
So the commands hold no error handling of their own; only curate turns the
curator's ValueError about a feature file into an InputError. Line-oriented
inputs (manifests, plan files, job files) are read through jsonl.lines, so a
bad line reads "malformed <kind> record (<reason>) at line N" in every command.
"""

from __future__ import annotations

import functools
import io
import json
import logging
import math
import sys
from contextlib import contextmanager

import click

# curator (numpy) and the annotator (urllib, http.client) are imported inside
# the functions of `curate` and `annotate`: the other commands never load them.
from . import budget, composer, manifest, tiling
from .jsonl import InputError, lines

logger = logging.getLogger("mmprep")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_PARTIAL = 3


class FiniteFloatRange(click.FloatRange):
    """A FloatRange that also rejects nan and +-inf (NaN passes every range comparison)."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


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


def _echo_config(ctx: click.Context) -> None:
    params = {k: v for k, v in ctx.params.items() if not k.startswith("_")}
    click.echo(f"mmprep {ctx.info_name} config: {json.dumps(params, default=str)}", err=True)


@contextmanager
def _open_in(path: str):
    """The input as UTF-8 text; a byte sequence that is not UTF-8 is a validation error."""
    try:
        if path == "-":
            # sys.stdin decodes with the locale's error handler, which under the C
            # and UTF-8 locales passes undecodable bytes through as surrogates.
            fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="\n")
            try:
                yield fh
            finally:
                fh.detach()  # leaves sys.stdin's buffer open
        else:
            with open(path, "r", encoding="utf-8") as fh:
                yield fh
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise InputError(f"input {name} is not UTF-8: {exc}") from exc


@contextmanager
def _open_out(path: str, mode: str = "w"):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh


def _load_config_map(path: str | None, commands) -> dict:
    """The config file's option defaults, keyed by subcommand name and then option name.

    A key that names no subcommand, or no parameter of its subcommand, is a
    validation error: click would ignore it without a word.
    """
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
            raise InputError(f"config file {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    config = {}
    for name, options in raw.items():
        if name not in commands:
            raise InputError(f"config file {path}: {name!r} names no subcommand")
        if not isinstance(options, dict):
            raise InputError(f"config file {path}: {name!r} must hold a JSON object of option defaults")
        params = {p.name for p in commands[name].params}
        config[name] = {}
        for key, value in options.items():
            option = key.replace("-", "_")
            if option not in params:
                raise InputError(f"config file {path}: {name!r} has no option {key!r}")
            config[name][option] = value
    return config


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON file with per-subcommand option defaults.")
@click.option("--log-level", default="warning", show_default=True,
              type=click.Choice(["debug", "info", "warning", "error"], case_sensitive=False))
@click.pass_context
def cli(ctx: click.Context, config_path: str | None, log_level: str):
    """Planning and curation toolkit for long-context multimodal training data."""
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, log_level.upper()))
    ctx.default_map = _load_config_map(config_path, ctx.command.commands)


in_opt = click.option("--input", "-i", "input_path", default="-", show_default=True,
                      help="Input file ('-' for stdin).")
out_opt = click.option("--output", "-o", "output_path", default="-", show_default=True,
                       help="Output file ('-' for stdout).")


@cli.command("plan")
@in_opt
@out_opt
@click.option("--l-max", type=click.IntRange(min=1), default=32768, show_default=True,
              help="Sequence token budget.")
@click.option("--min-frames", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--fps-target", type=FiniteFloatRange(min=0, min_open=True), default=2.0, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Accepted for compatibility and ignored: plan runs as one streaming pass.")
@click.pass_context
def plan_cmd(ctx, input_path, output_path, l_max, min_frames, fps_target, jobs):
    """Allocate token budgets for each manifest sample (one JSON plan per line)."""
    _echo_config(ctx)
    cfg = budget.BudgetConfig(l_max=l_max, min_frames=min_frames, fps_target=fps_target)
    grids_of = _grid_memo()
    discarded = planned = 0
    with _open_in(input_path) as fin, _open_out(output_path) as fout:
        for sample in manifest.iter_manifest(fin):
            p = budget.plan(sample, cfg, grids_of)
            fout.write(budget.dumps_plan(p) + "\n")
            planned, discarded = planned + p.planned, discarded + (not p.planned)
    click.echo(f"planned {planned}, discarded {discarded}", err=True)


@cli.command("pack")
@in_opt
@out_opt
@click.option("--l-max", type=click.IntRange(min=1), default=32768, show_default=True,
              help="Pack token capacity.")
@click.pass_context
def pack_cmd(ctx, input_path, output_path, l_max):
    """Pack planned samples into fixed-capacity training sequences."""
    _echo_config(ctx)
    plans = []
    skipped = 0
    seen: set[str] = set()
    with _open_in(input_path) as fin:
        for line_no, text in lines(fin):
            p = budget.read_plan(text, line_no, seen)
            if p.planned:
                plans.append(p)
            else:
                skipped += 1
    packs = composer.pack(plans, l_max)
    with _open_out(output_path) as fout:
        for pk in packs:
            fout.write(json.dumps(
                {"pack_id": pk.pack_id, "member_ids": list(pk.member_ids), "total_tokens": pk.total_tokens}
            ) + "\n")
    report = composer.balance_report(packs, l_max)
    if report.defined:
        click.echo(
            f"{report.pack_count} packs from {len(plans)} plans ({skipped} discarded skipped), "
            f"utilization mean={report.mean_utilization:.4f} "
            f"min={report.min_utilization:.4f} max={report.max_utilization:.4f}",
            err=True,
        )
    else:
        click.echo("no packs produced", err=True)


@cli.command("stages")
@out_opt
@click.pass_context
def stages_cmd(ctx, output_path):
    """Emit the progressive training stage table as one JSON document."""
    _echo_config(ctx)
    doc = [composer.stage_to_obj(s) for s in composer.progressive_stages()]
    with _open_out(output_path) as fout:
        fout.write(json.dumps(doc, indent=2) + "\n")


@cli.command("tile")
@in_opt
@out_opt
@click.option("--tile-cap", type=click.IntRange(1, tiling.MAX_TILES), default=tiling.MAX_TILES,
              show_default=True, help="Per-image tile cap.")
@click.pass_context
def tile_cmd(ctx, input_path, output_path, tile_cap):
    """Emit tiling geometry for every image in a manifest (one JSON object per image)."""
    _echo_config(ctx)
    grids_of = _grid_memo()
    with _open_in(input_path) as fin, _open_out(output_path) as fout:
        for sample in manifest.iter_manifest(fin):
            for item in sample.items:
                if item.kind != "image":
                    continue
                grid = grids_of(item.dims)[tile_cap - 1]
                fout.write(json.dumps({
                    "id": sample.id,
                    "grid": [grid.cols, grid.rows],
                    "tokens": tiling.grid_tokens(grid),
                    "canvas": [grid.cols * tiling.TILE_SIZE_PX, grid.rows * tiling.TILE_SIZE_PX],
                }) + "\n")


def _curate_reports(candidates_dir, reference_dir, tau, pool):
    from . import curator

    ref_matrix, ref_videos = curator.read_clip_matrix(reference_dir, pool)
    reference = curator.ReferenceIndex.from_clips(ref_matrix)  # normalizes ref_matrix in place, no copy
    cand_matrix, cand_videos = curator.read_clip_matrix(
        candidates_dir, pool, dim_of=(ref_videos[0].path, reference.dim)
    )
    first_path = {}
    for v in cand_videos:
        if v.video_id in first_path:
            raise ValueError(f"duplicate candidate video_id {v.video_id!r} in {first_path[v.video_id]} and {v.path}")
        first_path[v.video_id] = v.path
    return curator.select_novel(cand_matrix, cand_videos, reference, tau)


@cli.command("curate")
@out_opt
@click.option("--reference", "reference_dir", type=click.Path(file_okay=False), required=True)
@click.option("--candidates", "candidates_dir", type=click.Path(file_okay=False), required=True)
@click.option("--tau", type=FiniteFloatRange(-1, 1, min_open=True), default=0.5, show_default=True,
              help="Novelty similarity threshold.")
@click.option("--pool", type=click.Choice(["mean", "max"]), default="mean", show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Accepted for compatibility and ignored: curate runs as one sequential pass.")
@click.pass_context
def curate_cmd(ctx, output_path, reference_dir, candidates_dir, tau, pool, jobs):
    """Select novel candidate videos by max clip similarity against a reference set."""
    _echo_config(ctx)
    try:
        reports = _curate_reports(candidates_dir, reference_dir, tau, pool)
    except ValueError as exc:  # curator rejects a bad feature file with a ValueError naming it
        raise InputError(str(exc)) from exc
    with _open_out(output_path) as fout:
        for r in reports:
            fout.write(json.dumps(r.to_obj()) + "\n")
    selected = sum(r.selected for r in reports)
    click.echo(f"{selected}/{len(reports)} candidate videos selected at tau={tau}", err=True)


def _make_client(endpoint: str, model: str, rpm: float | None):
    """The annotator's HttpClient for the endpoint, rate-limited when rpm is set."""
    from .annotator import pipeline as annot

    limiter = annot.RateLimiter(rpm) if rpm else None
    return annot.HttpClient(endpoint, model, rate_limiter=limiter)


@cli.command("annotate")
@in_opt
@out_opt
@click.option("--endpoint", required=True, help="Generation endpoint URL.")
@click.option("--model", default="gpt-4o", show_default=True)
@click.option("--temperature", type=FiniteFloatRange(min=0), default=0.2, show_default=True)
@click.option("--max-in-flight", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--retry-budget", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--rpm", type=FiniteFloatRange(min=0, min_open=True), default=None,
              help="Request rate limit per minute.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.pass_context
def annotate_cmd(ctx, input_path, output_path, endpoint, model, temperature,
                 max_in_flight, retry_budget, rpm, seed):
    """Run the caption/QA/anchor pipeline over a job file."""
    from .annotator import pipeline as annot

    _echo_config(ctx)
    with _open_in(input_path) as fin:
        jobs = annot.parse_jobs(fin)
    client = _make_client(endpoint, model, rpm)
    policy = annot.RetryPolicy(
        max_retries=retry_budget,
        max_in_flight=max_in_flight,
        temperature=temperature,
        seed=seed,
    )
    # Append, so an earlier run's records are kept. A rerun repeats every job:
    # nothing is skipped on resume yet.
    with _open_out(output_path, mode="a") as fout:
        records = annot.run_pipeline(
            jobs, client, policy,
            on_record=lambda rec: (fout.write(json.dumps(rec, ensure_ascii=False) + "\n"), fout.flush()),
        )
    failed = sum(r["status"] != "ok" for r in records)
    click.echo(f"{len(records) - failed}/{len(records)} jobs annotated, {failed} failed", err=True)
    if failed:
        ctx.exit(EXIT_PARTIAL)


@cli.command("validate")
@in_opt
@out_opt
@click.option("--kind", type=click.Choice(["manifest", "plans"]), default="manifest", show_default=True)
@click.option("--l-max", type=click.IntRange(min=1), default=32768, show_default=True,
              help="Budget bound checked for plan records.")
@click.pass_context
def validate_cmd(ctx, input_path, output_path, kind, l_max):
    """Lint a manifest or plan file; emits one JSON error record per defect."""
    _echo_config(ctx)
    errors: list[dict] = []
    count = 0
    seen: set[str] = set()
    with _open_in(input_path) as fin:
        for line_no, text in lines(fin):
            count += 1
            try:
                if kind == "manifest":
                    manifest.parse_record(text, line_no, seen)
                else:
                    budget.check_plan(budget.read_plan(text, line_no, seen), line_no, l_max)
            except InputError as exc:
                errors.append({"line": exc.line, "field": exc.field, "error": str(exc)})
    if kind == "manifest":
        click.echo(f"{count - len(errors)} valid samples, {len(errors)} errors", err=True)
    else:
        click.echo(f"{count} plans checked, {len(errors)} errors", err=True)
    with _open_out(output_path) as fout:
        for e in errors:
            fout.write(json.dumps(e) + "\n")
    if errors:
        ctx.exit(EXIT_VALIDATION)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        rv = cli.main(args=argv, standalone_mode=False, auto_envvar_prefix="MMPREP")
        return rv if isinstance(rv, int) else EXIT_OK
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        return EXIT_VALIDATION
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except InputError as exc:  # bad input from any command, shown as ClickException.show would
        click.echo(f"Error: {exc}", err=True)
        return EXIT_VALIDATION
    except BrokenPipeError:
        return EXIT_IO
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
