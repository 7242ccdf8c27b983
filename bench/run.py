"""mmprep benchmark: seeded workloads, end-to-end metrics, and a traced per-layer run.

    python3 bench/run.py --workload images --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (bench/README.md says why each exists):
  images    image-heavy manifest through plan, pack (--l-max 32768) and tile
  temporal  videos and documents only, plan at --l-max 8192, pack at 131072
  curate    reference and candidate feature dirs (dim 512) through curate
  annotate  story and clip jobs through annotator.run_pipeline, fake endpoint

Each run generates its inputs from the seed under .bench_work/, runs the
workload in a separate measured process (bench/worker.py) for --seconds,
which also times the set-up cost in fresh interpreters between rounds, checks every distinct output against
the oracles in bench/gen.py, prints a report, writes the full result under
.bench_out/, and ends with one JSON line: correct, attempted, failed, and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). It exits
1 when a check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("images", "temporal", "curate", "annotate")
# Two cores on the reference box: BLAS gets both, nothing else runs beside it.
BLAS_THREADS = "2"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MMPREP_")}
    env.update({k: BLAS_THREADS for k in THREAD_ENV})
    return env


def check_outputs(workdir: Path, facts: dict, result: dict, oracle) -> dict:
    """Check each distinct output once; return {op: {digest: check result}}.

    Packs are checked against round 0's plans: a round whose plans differ
    fails the plan check already.
    """
    import check

    first = result["rounds"][0]["digest"]
    checked: dict[str, dict[str, dict]] = {}
    for op, files in result["kept"].items():
        checked[op] = {}
        for digest, name in files.items():
            path = workdir / name
            if op == "plan":
                res = check.check_plans(workdir / "manifest.jsonl", path, facts["l_max"], oracle)
            elif op == "pack":
                res = check.check_packs(workdir / result["kept"]["plan"][first["plan"]], path,
                                        facts["pack_capacity"])
            elif op == "tile":
                res = check.check_tiles(workdir / "manifest.jsonl", path, oracle)
            elif op == "curate":
                res = check.check_curate(facts["expected_smax"], path, facts["tau"])
            elif op == "annotate":
                res = check.check_annotations(workdir / "jobs.jsonl", facts["planted"], path)
            elif op in ("plan_jobs2", "curate_jobs2"):
                same = digest == first[op.replace("_jobs2", "")]
                res = {"records": 1, "bad": 0 if same else 1,
                       "errors": [] if same else [f"{op} output differs from the --jobs 1 output"]}
            elif op == "stages":
                n = len(json.loads(path.read_text(encoding="utf-8")))
                res = {"records": 1, "bad": int(n != 5), "errors": [] if n == 5 else [f"{n} stages"]}
            else:  # validate: a correct input yields no error records
                empty = path.stat().st_size == 0
                res = {"records": 1, "bad": int(not empty), "errors": [] if empty else [f"{op} reported errors"]}
            checked[op][digest] = res
    return checked


def tally(result: dict, checked: dict) -> tuple[int, int, list[str]]:
    """(records attempted, records failed, messages) over every round, warm-up included."""
    attempted = failed = 0
    messages = []
    for rnd in result["rounds"] + result["extras"]:
        for op, rc in rnd["rc"].items():
            digest = rnd["digest"][op]
            res = checked.get(op, {}).get(digest)
            if res is None:  # output not kept: only possible after three distinct outputs
                res = {"records": 1, "bad": 1, "errors": [f"{op}: output {digest[:12]} was not kept"]}
            attempted += res["records"]
            if rc != 0:
                failed += res["records"]
                messages.append(f"round {rnd['index']} {op}: exit {rc}")
            else:
                failed += res["bad"]
                messages.extend(f"round {rnd['index']} {op}: {e}" for e in res["errors"][:2])
    return attempted, failed, messages


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def scaled_round_s(rounds: list[dict]) -> list[float]:
    """Each round's timed seconds, every command divided by the host speed measured around it."""
    return [sum(s / r["speed"][op] for op, s in r["seconds"].items()) for r in rounds]


def e2e_metrics(workload: str, facts: dict, result: dict, checked: dict) -> tuple[dict, dict]:
    """(contract metrics, named end-to-end metrics) from the untraced timed rounds, speed-scaled."""
    timed = [r for r in result["rounds"][1:] if not r["traced"]]
    per_op = {op: [r["seconds"][op] / r["speed"][op] for r in timed] for op in timed[0]["seconds"]}
    round_s = scaled_round_s(timed)
    first = result["rounds"][0]["digest"]
    named = {}
    if workload in ("images", "temporal"):
        planned = checked["plan"][first["plan"]]["planned"]
        items = facts["samples"]
        named["plan_samples_per_s"] = (facts["samples"] / median(per_op["plan"]), "1/s")
        named["pack_plans_per_s"] = (planned / median(per_op["pack"]), "1/s")
        if workload == "images":
            named["tile_images_per_s"] = (facts["images"] / median(per_op["tile"]), "1/s")
    elif workload == "curate":
        items = facts["cand_clips"]
        named["curate_clips_per_s"] = (items / median(per_op["curate"]), "1/s")
    else:
        items = facts["jobs"]
        named["annotate_jobs_per_s"] = (items / median(per_op["annotate"]), "1/s")
    named["items_per_s_unscaled"] = (items / median([sum(r["seconds"].values()) for r in timed]), "1/s")
    named["host_speed"] = (median([v for r in timed for v in r["speed"].values()]), "ratio")
    contract = {
        "items_per_s": (items / median(round_s), "1/s"),
        "setup_s": (median([raw / speed for raw, speed in result["setup"]]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return contract, named


def layer_metrics(workload: str, facts: dict, result: dict, checked: dict) -> dict:
    """Per-layer metrics: medians over traced rounds, plus counts from the checked outputs."""
    layers = result["layers"]
    # Counts repeat exactly from round to round; times are medians.
    m = {k: v if isinstance(v, int) else median([x[k] for x in layers]) for k, v in layers[0].items()}
    for name in ("stages", "validate_manifest", "validate_plans", "plan_jobs2", "curate_jobs2"):
        m[f"cli.{name}_s"] = median([x["seconds"][name] for x in result["extras"] if name in x["seconds"]])
    first = result["rounds"][0]["digest"]

    def out(op):
        return checked.get(op, {}).get(first.get(op), {})

    plans, packs, cur = out("plan"), out("pack"), out("curate")
    m["budget.planned"] = plans.get("planned", 0)
    discarded = plans.get("discarded", {})
    m["budget.discarded.insufficient_budget"] = discarded.get("insufficient_budget", 0)
    m["budget.discarded.text_overflow"] = discarded.get("text_overflow", 0)
    for cap in ("12", "8", "6", "4", "2", "1"):
        m[f"budget.tile_cap.{cap}"] = plans.get("tile_cap", {}).get(cap, 0)
    m["budget.zero_unit_items"] = plans.get("zero_unit_items", 0)
    m["composer.plans"] = plans.get("planned", 0)
    m["composer.packs"] = packs.get("packs", 0)
    m["composer.plans_per_pack"] = packs.get("plans_per_pack", 0.0)
    m["composer.utilization_mean"] = packs.get("utilization_mean", 0.0)
    m["composer.utilization_min"] = packs.get("utilization_min", 0.0)
    m["curator.clips_ref"] = facts.get("ref_clips", 0)
    m["curator.clips_cand"] = facts.get("cand_clips", 0)
    m["curator.selected_videos"] = cur.get("selected_videos", 0)
    m["curator.smax_near_tau"] = cur.get("smax_near_tau", 0)
    m["curator.verdict_mismatches"] = cur.get("verdict_mismatches", 0)

    ann = out("annotate")
    traced = [r for r in result["rounds"] if r["traced"]]
    ep = traced[0].get("endpoint", {}) if traced else {}
    requests = ep.get("requests", 0)
    jobs = facts.get("jobs", 0)
    m["annotator.jobs"] = jobs
    m["annotator.requests"] = requests
    m["annotator.requests_per_job"] = requests / jobs if jobs else 0.0
    m["annotator.requests_ok_share"] = ep.get("ok_replies", 0) / requests if requests else 0.0
    m["annotator.retries"] = ann.get("retries", 0)
    m["annotator.transient_errors"] = ep.get("transient_errors", 0)
    m["annotator.parse_retries"] = ep.get("malformed", 0)
    m["annotator.caption_regenerations"] = ep.get("regenerations", 0)
    for stage in ("validate", "caption", "qa", "internal"):
        m[f"annotator.failed_jobs.{stage}"] = ann.get("failed_jobs", {}).get(stage, 0)

    untraced = scaled_round_s([r for r in result["rounds"][1:] if not r["traced"]])
    m["trace.overhead_share"] = median(scaled_round_s(traced)) / median(untraced) - 1.0
    return m


def traffic(workload: str, facts: dict, result: dict, checked: dict) -> dict:
    """Input and output properties later claims can quote as shares."""
    props = dict(facts.get("traffic", {}))
    first = result["rounds"][0]
    if workload in ("images", "temporal"):
        plans = checked["plan"][first["digest"]["plan"]]
        packs = checked["pack"][first["digest"]["pack"]]
        props["tile_cap_hist"] = plans["tile_cap"]
        props["discard_share"] = sum(plans["discarded"].values()) / facts["samples"]
        props["zero_unit_items"] = plans["zero_unit_items"]
        props["plans_per_pack"] = packs["plans_per_pack"]
    if result["layers"] and workload == "images":
        props["select_grid_calls_per_image"] = result["layers"][0]["tiling.calls_per_image"]
    if workload == "annotate":
        ep = first.get("endpoint", {})
        props["requests_per_job"] = ep.get("requests", 0) / facts["jobs"]
        props["injections"] = {k: ep.get(k, 0) for k in
                               ("transient_errors", "malformed", "leaks", "permanent_errors", "internal_errors")}
    return props


def run_one(workload: str, seed: int, seconds: int, trace: int, bench: dict) -> tuple[dict, int]:
    import gen

    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    env = child_env()
    try:
        oracle = gen.GridOracle()
        t0 = time.perf_counter()
        facts = gen.generate(workload, workdir, seed, oracle)
        gen_s = time.perf_counter() - t0
        (workdir / "facts.json").write_text(json.dumps(facts), encoding="utf-8")
        spans_path = outdir / f"{workload}-seed{seed}.spans.jsonl.gz"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--dir", str(workdir),
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            argv += ["--spans", str(spans_path)]
        with open(workdir / "worker.log", "w", encoding="utf-8") as log:
            proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            tail = (workdir / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"measured process exited {proc.returncode}:\n{tail}")
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        checked = check_outputs(workdir, facts, result, oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, messages = tally(result, checked)
    contract, named = e2e_metrics(workload, facts, result, checked)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load_model": "closed loop, one caller, one process; annotate keeps 2 requests in flight",
        "host": result["host"],
        "generate_s": gen_s,
        "setup_s_raw_and_speed": result["setup"],
        "rounds": len(result["rounds"]) - 1,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": messages[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**contract, **named}.items()},
        "traffic": traffic(workload, facts, result, checked),
        "round_seconds": [r["seconds"] for r in result["rounds"]],
        "host_speed": [r["speed"] for r in result["rounds"]],
    }
    if trace:
        layers = layer_metrics(workload, facts, result, checked)
        report["per_layer"] = layers
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = {name: {"value": contract[name][0], "unit": unit} for name, unit in units.items()}
    (outdir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"== {workload} seed={seed} trace={trace}: {report['rounds']} timed rounds, "
          f"{attempted} records checked, {failed} failed")
    for name, (value, unit) in {**contract, **named}.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print(f"  {'failed_share':<24} {failed / attempted:>14.6g} ratio")
    if trace:
        for name in sorted(report["per_layer"]):
            print(f"  {name:<40} {report['per_layer'][name]:>14.6g}")
    for msg in messages[:10]:
        print(f"  FAIL {msg}")
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return final, 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mmprep" / "cli.py").is_file():
        print(f"error: mmprep sources not found under {SRC}", file=sys.stderr)
        return 2
    for k in THREAD_ENV:  # before gen imports numpy
        os.environ[k] = BLAS_THREADS
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    finals, code = {}, 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            finals[workload], rc = run_one(workload, args.seed, args.seconds, args.trace, bench)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        code = max(code, rc)
    if len(finals) == 1:
        final = next(iter(finals.values()))
    else:
        final = {
            "correct": all(f["correct"] for f in finals.values()),
            "attempted": sum(f["attempted"] for f in finals.values()),
            "failed": sum(f["failed"] for f in finals.values()),
            "metrics": {f"{w}.{k}": v for w, f in finals.items() for k, v in f["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
