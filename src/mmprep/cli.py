"""Command-line surface: plan, pack, stages, curate, annotate, validate, tile.

All data flows as newline-delimited UTF-8 JSON on stdin/stdout (or --input/
--output paths); diagnostics go to stderr. Option values layer as
flags > environment (MMPREP_* prefix) > --config file > defaults, and every
subcommand echoes its effective configuration to stderr at startup.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 partial annotation
failures.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import sys
from contextlib import contextmanager

import click

from . import budget, composer, curator, manifest, tiling
from .annotator import pipeline as annot

logger = logging.getLogger("mmprep")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_PARTIAL = 3


class ValidationFailure(click.ClickException):
    exit_code = EXIT_VALIDATION


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
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh


@contextmanager
def _open_out(path: str, mode: str = "w"):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh


def _load_config_map(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValidationFailure(f"config file {path} must hold a JSON object")

    def norm(obj):
        if isinstance(obj, dict):
            return {str(k).replace("-", "_"): norm(v) for k, v in obj.items()}
        return obj

    return norm(raw)


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON file with per-subcommand option defaults.")
@click.option("--log-level", default="warning", show_default=True,
              type=click.Choice(["debug", "info", "warning", "error"], case_sensitive=False))
@click.pass_context
def cli(ctx: click.Context, config_path: str | None, log_level: str):
    """Planning and curation toolkit for long-context multimodal training data."""
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, log_level.upper()))
    ctx.default_map = _load_config_map(config_path)


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
        try:
            for sample in manifest.iter_manifest(fin):
                try:
                    p = budget.plan(sample, cfg, grids_of)
                except budget.TextOverflowError:
                    p = budget.SamplingPlan(sample_id=sample.id, verdict=budget.DISCARDED,
                                            reason="text_overflow", l_text=sample.text_tokens)
                fout.write(budget.dumps_plan(p) + "\n")
                planned, discarded = planned + p.planned, discarded + (not p.planned)
        except (manifest.ManifestError, budget.PlanError) as exc:
            raise ValidationFailure(str(exc)) from exc
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
    with _open_in(input_path) as fin:
        for line_no, raw in enumerate(fin, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                p = budget.plan_from_obj(json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValidationFailure(f"malformed plan at line {line_no}: {exc}") from exc
            if p.planned:
                defect = _count_defect(p)
                if defect:
                    raise ValidationFailure(f"malformed plan at line {line_no}: {defect[1]}")
                plans.append(p)
            else:
                skipped += 1
    try:
        packs = composer.pack(plans, l_max)
    except composer.PackOverflowError as exc:
        raise ValidationFailure(str(exc)) from exc
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
        try:
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
        except manifest.ManifestError as exc:
            raise ValidationFailure(str(exc)) from exc


def _pooled_files(directory, pool):
    """(path, video_id, clips) for every feature file, in filename order.

    Each track is pooled as soon as it is read and then dropped.
    """
    return [
        (path, vid, curator.clips_from_seconds(vid, track, pool=pool))
        for path, vid, track in curator.iter_feature_dir(directory)
    ]


def _curate_reports(candidates_dir, reference_dir, tau, pool):
    reference = curator.ReferenceIndex.from_clips(
        c for _, _, clips in _pooled_files(reference_dir, pool) for c in clips
    )
    first_path = {}
    cand_clips = []
    for path, vid, clips in _pooled_files(candidates_dir, pool):
        if vid in first_path:
            raise ValueError(f"duplicate candidate video_id {vid!r} in {first_path[vid]} and {path}")
        first_path[vid] = path
        cand_clips.extend(clips)
    return curator.select_novel(cand_clips, reference, tau)


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
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    with _open_out(output_path) as fout:
        for r in reports:
            fout.write(json.dumps(r.to_obj()) + "\n")
    selected = sum(r.selected for r in reports)
    click.echo(f"{selected}/{len(reports)} candidate videos selected at tau={tau}", err=True)


def _make_client(endpoint: str, model: str, rpm: float | None) -> annot.LlmClient:
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
    _echo_config(ctx)
    with _open_in(input_path) as fin:
        try:
            jobs = annot.parse_jobs(fin)
        except annot.JobFileError as exc:
            raise ValidationFailure(str(exc)) from exc
    client = _make_client(endpoint, model, rpm)
    policy = annot.RetryPolicy(
        max_retries=retry_budget,
        max_in_flight=max_in_flight,
        temperature=temperature,
        seed=seed,
    )
    # Append so an interrupted run can be resumed without clobbering records.
    with _open_out(output_path, mode="a") as fout:
        result = annot.run_pipeline(
            jobs, client, policy,
            on_record=lambda rec: (fout.write(json.dumps(rec, ensure_ascii=False) + "\n"), fout.flush()),
        )
    ok = len(result.records) - len(result.failures)
    click.echo(f"{ok}/{len(result.records)} jobs annotated, {len(result.failures)} failed", err=True)
    if result.failures:
        ctx.exit(EXIT_PARTIAL)


def _count_defect(p: budget.SamplingPlan) -> tuple[str, str] | None:
    """(field, message) when a planned record's l_text, n_per_item or total_tokens is not a count."""
    for field, values in (("l_text", (p.l_text,)), ("n_per_item", p.temporal_counts),
                          ("total_tokens", (p.total_tokens,))):
        for v in values:
            if type(v) is not int or v < 0:  # bools are not counts
                return field, f"plan {p.sample_id!r}: {field} holds {v!r}, not a non-negative integer"
    return None


def _plan_defect(p: budget.SamplingPlan, l_max: int) -> tuple[str, str] | None:
    """(field, message) for the first defect of a plan record; its cost is recomputed from its fields."""
    if p.verdict not in (budget.PLANNED, budget.DISCARDED):
        return "verdict", f"unknown verdict {p.verdict!r}"
    if not p.planned:
        return None
    defect = _count_defect(p)
    if defect:
        return defect
    if len(p.image_grids) != len(p.temporal_counts):
        return "grids", f"plan {p.sample_id!r}: grids do not align with n_per_item"
    cost = (p.l_text + tiling.TILE_TOKENS * sum(p.temporal_counts)
            + sum(tiling.grid_tokens(g) for g in p.image_grids if g is not None))
    if p.total_tokens != cost:
        return "total_tokens", f"plan {p.sample_id!r}: total_tokens={p.total_tokens} but its fields cost {cost}"
    if cost > l_max:
        return "total_tokens", f"plan {p.sample_id!r} exceeds l_max={l_max}"
    return None


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
    with _open_in(input_path) as fin:
        if kind == "manifest":
            samples, manifest_errors = manifest.scan_manifest(fin)
            errors = [{"line": e.line, "field": e.field, "error": str(e)} for e in manifest_errors]
            click.echo(f"{len(samples)} valid samples, {len(errors)} errors", err=True)
        else:
            count = 0
            for line_no, raw in enumerate(fin, start=1):
                text = raw.strip()
                if not text:
                    continue
                count += 1
                try:
                    defect = _plan_defect(budget.plan_from_obj(json.loads(text)), l_max)
                except (ValueError, KeyError, TypeError) as exc:
                    defect = "record", f"malformed plan: {exc}"
                if defect:
                    errors.append({"line": line_no, "field": defect[0], "error": defect[1]})
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
    except BrokenPipeError:
        return EXIT_IO
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
