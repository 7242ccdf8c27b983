"""The measured process: runs one workload's rounds through mmprep.

run.py starts it with the generated inputs in --dir. Round 0 warms caches and
its outputs are kept for checking; every later round is timed per command and
its outputs are compared by digest with round 0's. With --trace 1 the rounds
alternate between untraced and traced, so the tracing overhead is measured in
one process; after the timed rounds, a traced run also runs the extra commands
(stages, validate, --jobs 2) that only per-layer metrics use. Writes
result.json into --dir.

    python3 bench/worker.py --workload images --dir WORKDIR --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from mmprep import budget, cli, composer, curator, kernels, manifest, tiling  # noqa: E402
from mmprep import annotator  # noqa: E402
from mmprep.annotator import pipeline  # noqa: E402

from calib import calibrate  # noqa: E402
from fake_llm import FakeEndpoint  # noqa: E402
from spans import Tracer, union_length  # noqa: E402

MIN_TIMED_ROUNDS = 3
EXTRA_RUNS = 2
# Calibration tasks that resemble each workload's work (see calib.py). Annotate
# rounds are mostly endpoint service time, which does not slow with the host,
# so they are not scaled.
CALIBRATION = {"images": ("python",), "temporal": ("json",), "curate": ("json", "blas"), "annotate": ()}
# Set-up runs the same kind of code as the workload, except on annotate, whose
# set-up is Python start-up and imports rather than waiting on an endpoint.
SETUP_CALIBRATION = {"annotate": ("python",)}
MAX_IN_FLIGHT = 2

# set-up cost: a fresh interpreter imports the CLI and runs `mmprep stages`; on
# curate it also builds the reference index, so work moved into set-up shows.
SETUP_CODE = """
import os, sys
sys.path.insert(0, sys.argv[1])
from mmprep.cli import main
if main(["stages", "-o", os.devnull]) != 0:
    sys.exit(1)
if len(sys.argv) > 2:
    from mmprep import curator
    tracks = curator.load_feature_dir(sys.argv[2])
    clips = [c for vid, track in tracks for c in curator.clips_from_seconds(vid, track)]
    curator.ReferenceIndex.from_clips(clips)
"""


PROBE_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


class Op(NamedTuple):
    name: str
    run: Callable[[Tracer | None], tuple[int, float]]  # -> (exit code, timed seconds)
    output: Path


def cli_op(name: str, argv: list, output: Path) -> Op:
    argv = [str(a) for a in argv]

    def run(tracer):
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span(f"cli.{name}"):
                rc = cli.main(argv)
        return rc, time.perf_counter() - t0

    return Op(name, run, output)


def annotate_op(d: Path, seed: int, endpoints: list) -> Op:
    settings = json.loads((d / "endpoint.json").read_text(encoding="utf-8"))
    output = d / "annotations.jsonl"

    def run(tracer):
        fake = FakeEndpoint(settings, annotator)
        endpoints.append(fake)
        records: list[dict] = []
        sleep = time.sleep if tracer is None else tracer.traced(time.sleep, "annotator.backoff")
        policy = annotator.RetryPolicy(
            max_retries=3, backoff_base_s=0.001, backoff_cap_s=0.004,
            max_in_flight=MAX_IN_FLIGHT, seed=seed, sleep=sleep,
        )
        with open(d / "jobs.jsonl", encoding="utf-8") as fh:
            if tracer is None:
                jobs = annotator.parse_jobs(fh)
            else:
                with tracer.span("annotator.parse_jobs"):
                    jobs = annotator.parse_jobs(fh)
        t0 = time.perf_counter()
        if tracer is None:
            annotator.run_pipeline(jobs, fake, policy, on_record=records.append)
        else:
            with tracer.span("annotator.run_pipeline"):
                annotator.run_pipeline(jobs, fake, policy, on_record=records.append)
        seconds = time.perf_counter() - t0
        with open(output, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")
        return 0, seconds

    return Op("annotate", run, output)


def workload_ops(workload: str, d: Path, facts: dict, seed: int, endpoints: list) -> tuple[list[Op], list[Op]]:
    """(commands timed every round, extra commands a traced run adds after the timed rounds)."""
    stages = cli_op("stages", ["stages", "-o", d / "stages.json"], d / "stages.json")
    if workload in ("images", "temporal"):
        m, plans, l_max = d / "manifest.jsonl", d / "plans.jsonl", facts["l_max"]
        main = [
            cli_op("plan", ["plan", "--l-max", l_max, "-i", m, "-o", plans], plans),
            cli_op("pack", ["pack", "--l-max", facts["pack_capacity"], "-i", plans, "-o", d / "packs.jsonl"],
                   d / "packs.jsonl"),
        ]
        if workload == "images":
            main.append(cli_op("tile", ["tile", "-i", m, "-o", d / "tiles.jsonl"], d / "tiles.jsonl"))
        extra = [
            stages,
            cli_op("validate_manifest", ["validate", "--kind", "manifest", "-i", m, "-o", d / "vm.jsonl"],
                   d / "vm.jsonl"),
            cli_op("validate_plans", ["validate", "--kind", "plans", "--l-max", l_max, "-i", plans,
                                      "-o", d / "vp.jsonl"], d / "vp.jsonl"),
            cli_op("plan_jobs2", ["plan", "--l-max", l_max, "--jobs", 2, "-i", m, "-o", d / "plans2.jsonl"],
                   d / "plans2.jsonl"),
        ]
        return main, extra
    if workload == "curate":
        def curate(name, out, jobs):
            return cli_op(name, ["curate", "--reference", d / "ref", "--candidates", d / "cand",
                                 "--jobs", jobs, "-o", out], out)
        return [curate("curate", d / "curate.jsonl", 1)], [stages, curate("curate_jobs2", d / "curate2.jsonl", 2)]
    return [annotate_op(d, seed, endpoints)], [stages]


def install(tracer: Tracer) -> None:
    def feature_bytes(t, path, *_):
        t.count("curator.read_bytes", os.path.getsize(path))

    def kernel_work(t, cand, ref, *_):
        t.count("kernels.rows", cand.shape[0])
        t.count("kernels.gflop", 2 * cand.shape[0] * ref.shape[0] * cand.shape[1] / 1e9)
        t.count("kernels.ref_bytes_computed", ref.nbytes)

    tracer.wrap(manifest, "parse_record", "manifest.parse_record")
    tracer.wrap(budget, "plan", "budget.plan")
    tracer.wrap(budget, "select_grid", "tiling.select_grid")
    tracer.wrap(tiling, "select_grid", "tiling.select_grid")
    tracer.wrap(composer, "pack", "composer.pack")
    tracer.wrap(curator, "read_feature_file", "curator.read_feature_file", feature_bytes)
    tracer.wrap(curator, "clips_from_seconds", "curator.clips_from_seconds")
    tracer.wrap(curator.ReferenceIndex, "from_clips", "curator.index_build")
    tracer.wrap(curator, "select_novel", "curator.select_novel")
    tracer.wrap(kernels, "smax", "kernels.smax", kernel_work)
    tracer.wrap(pipeline, "run_job", "annotator.run_job")
    tracer.wrap(FakeEndpoint, "submit", "annotator.endpoint")


def _percentile_us(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def span_metrics(spans: list, counts: dict, images: int) -> dict:
    """Per-layer metrics of one traced round, from its spans and counts."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(ss):
        return sum(s.end - s.start for s in ss)

    def under(parents, name):
        ids = {p.id for p in parents}
        return [s for s in by[name] if s.parent in ids]

    m: dict[str, float] = {}
    parse, plans, grids = by["manifest.parse_record"], by["budget.plan"], by["tiling.select_grid"]
    m["manifest.parse_s"] = total(parse)
    m["manifest.samples"] = len(parse)
    m["manifest.us_per_sample"] = 1e6 * total(parse) / len(parse) if parse else 0.0

    plan_grids = under(plans, "tiling.select_grid")
    m["tiling.select_grid_calls"] = len(grids)
    m["tiling.calls_per_image"] = len(plan_grids) / images if images else 0.0
    m["tiling.select_grid_s"] = total(grids)
    m["tiling.select_grid_us_p50"] = _percentile_us([s.end - s.start for s in grids], 0.5)
    m["tiling.select_grid_us_p99"] = _percentile_us([s.end - s.start for s in grids], 0.99)

    m["budget.plan_calls"] = len(plans)
    m["budget.plan_s"] = total(plans)
    m["budget.self_s"] = total(plans) - total(plan_grids)
    m["budget.plan_us_p50"] = _percentile_us([s.end - s.start for s in plans], 0.5)
    m["budget.plan_us_p99"] = _percentile_us([s.end - s.start for s in plans], 0.99)

    m["composer.pack_s"] = total(by["composer.pack"])

    for name in ("plan", "pack", "tile", "curate"):
        m[f"cli.{name}_s"] = total(by[f"cli.{name}"])
    cli_plan = by["cli.plan"]
    m["cli.plan_io_s"] = m["cli.plan_s"] - total(under(cli_plan, "manifest.parse_record")) - total(under(cli_plan, "budget.plan"))
    m["cli.pack_io_s"] = m["cli.pack_s"] - m["composer.pack_s"]

    reads, selects, smax = by["curator.read_feature_file"], by["curator.select_novel"], by["kernels.smax"]
    m["curator.read_s"] = total(reads)
    m["curator.read_bytes"] = counts.get("curator.read_bytes", 0)
    m["curator.read_mb_per_s"] = m["curator.read_bytes"] / 1e6 / m["curator.read_s"] if reads else 0.0
    m["curator.pool_s"] = total(by["curator.clips_from_seconds"])
    m["curator.index_build_s"] = total(by["curator.index_build"])
    m["curator.select_s"] = total(selects)
    m["curator.self_s"] = total(selects) - total(under(selects, "kernels.smax"))

    m["kernels.smax_calls"] = len(smax)
    m["kernels.rows_per_call_mean"] = counts.get("kernels.rows", 0) / len(smax) if smax else 0.0
    m["kernels.smax_s"] = total(smax)
    m["kernels.gflop"] = counts.get("kernels.gflop", 0.0)
    m["kernels.gflops_per_s"] = m["kernels.gflop"] / m["kernels.smax_s"] if smax else 0.0
    m["kernels.ref_bytes_computed"] = counts.get("kernels.ref_bytes_computed", 0)

    waits = by["annotator.endpoint"] + by["annotator.backoff"]
    m["annotator.parse_jobs_s"] = total(by["annotator.parse_jobs"])
    m["annotator.endpoint_busy_s"] = total(by["annotator.endpoint"])
    m["annotator.backoff_wait_s"] = total(by["annotator.backoff"])
    m["annotator.self_s"] = sum(
        (p.end - p.start) - union_length([(s.start, s.end) for s in waits], p.start, p.end)
        for p in by["annotator.run_pipeline"]
    )
    return m


def _blas_threads() -> int | None:
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": vendor,
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "numba_imports": numba_version is not None,
        "numba": numba_version,
        "annotate_max_in_flight": MAX_IN_FLIGHT,
    }


def measure_setup(workload: str, d: Path) -> float:
    """Seconds from starting a fresh interpreter until its set-up work exits."""
    argv = [sys.executable, "-c", SETUP_CODE, str(HERE.parent / "src")]
    if workload == "curate":
        argv.append(str(d / "ref"))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


class Runner:
    """Runs commands, records exit codes and output digests, keeps distinct outputs."""

    def __init__(self, d: Path, tracer: Tracer):
        self.d = d
        self.tracer = tracer
        self.kept: dict[str, dict[str, str]] = defaultdict(dict)

    def run(self, op: Op, record: dict, traced: bool) -> float:
        try:
            rc, seconds = op.run(self.tracer if traced else None)
        except Exception as exc:  # an unexpected crash is a failed operation, not a crashed benchmark
            rc, seconds = f"{type(exc).__name__}: {exc}", 0.0
        record["rc"][op.name] = rc
        digest = _digest(op.output)
        record["digest"][op.name] = digest
        kept = self.kept[op.name]
        if digest not in kept and len(kept) < 3 and op.output.exists():
            kept[digest] = f"kept-{op.name}-{digest[:12]}.out"
            shutil.copyfile(op.output, self.d / kept[digest])
        return seconds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None, help="Where a traced run writes its spans (.jsonl.gz).")
    ap.add_argument("--rss-probe", action="store_true",
                    help="Run the timed commands once and write this process's peak RSS to rss.json.")
    args = ap.parse_args(argv)

    d = args.dir
    facts = json.loads((d / "facts.json").read_text(encoding="utf-8"))
    endpoints: list[FakeEndpoint] = []
    main_ops, extra_ops = workload_ops(args.workload, d, facts, args.seed, endpoints)
    if args.rss_probe:
        for op in main_ops:
            op.run(None)
        (d / "rss.json").write_text(json.dumps(_peak_rss_mb()), encoding="utf-8")
        return 0

    tracer = Tracer()
    runner = Runner(d, tracer)
    cal_kinds = CALIBRATION[args.workload]
    setup_kinds = SETUP_CALIBRATION.get(args.workload, cal_kinds)
    rounds, layers, setup = [], [], []
    speed_before = calibrate(cal_kinds)
    t_start = None
    index = 0
    while True:
        traced = bool(args.trace) and index > 0 and index % 2 == 0
        run_id = f"{args.workload}-{args.seed}-r{index}"
        record = {"index": index, "traced": traced, "seconds": {}, "speed": {}, "rc": {}, "digest": {}}
        if traced:
            install(tracer)
        try:
            for op in main_ops:
                tracer.run_id = run_id
                record["seconds"][op.name] = runner.run(op, record, traced)
                # Host speed around this command: the mean of the calibrations just before and after it.
                speed_after = calibrate(cal_kinds)
                record["speed"][op.name] = (speed_before + speed_after) / 2
                speed_before = speed_after
        finally:
            tracer.restore()
        if endpoints:
            record["endpoint"] = dict(endpoints[-1].counts)
        if traced:
            counts = {name: n for (rid, name), n in tracer.counts.items() if rid == run_id}
            layers.append(span_metrics([s for s in tracer.spans if s.run_id == run_id], counts,
                                       facts.get("images", 0)))
        rounds.append(record)
        # One set-up sample per round spreads the samples over the whole run.
        # The first start fills the page cache and is not kept; users pay the warm cost.
        setup_before = speed_before if setup_kinds == cal_kinds else calibrate(setup_kinds)
        seconds = measure_setup(args.workload, d)
        setup_after = calibrate(setup_kinds)
        if index > 0:
            setup.append((seconds, (setup_before + setup_after) / 2))
        speed_before = setup_after if setup_kinds == cal_kinds else calibrate(cal_kinds)
        if index == 0:
            t_start = time.perf_counter()
        elif time.perf_counter() - t_start >= args.seconds and index >= MIN_TIMED_ROUNDS + args.trace:
            break
        index += 1

    # Commands only per-layer metrics use run after the timed rounds, so they
    # do not disturb the rounds the tracing overhead is measured on.
    extras = []
    for k in range(EXTRA_RUNS if args.trace else 0):
        record = {"index": f"x{k}", "seconds": {}, "rc": {}, "digest": {}}
        install(tracer)
        try:
            for op in extra_ops:
                tracer.run_id = f"{args.workload}-{args.seed}-x{k}"
                record["seconds"][op.name] = runner.run(op, record, True)
        finally:
            tracer.restore()
        extras.append(record)

    # Peak memory of a user's run: a fresh process that runs the commands once.
    # The looping process here would also count allocator history across rounds.
    # Linux carries a process's peak RSS across exec, so a child started from
    # here would report this process's peak; a small launcher in between keeps
    # it out.
    probe = [sys.executable, __file__, "--workload", args.workload, "--dir", str(d), "--seed", str(args.seed),
             "--seconds", "0", "--rss-probe"]
    subprocess.run([sys.executable, "-c", PROBE_LAUNCHER, *probe], check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if args.spans is not None and tracer.spans:
        tracer.dump(args.spans)
    result = {
        "rounds": rounds,
        "extras": extras,
        "kept": runner.kept,
        "layers": layers,
        "setup": setup,
        "peak_rss_mb": json.loads((d / "rss.json").read_text(encoding="utf-8")),
        "host": host_info(),
    }
    (d / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
