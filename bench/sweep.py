"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/sweep.py --seeds 1-10 --out sweep.json
    python3 bench/sweep.py --seeds 11-15 --workloads images,curate

For every workload and metric it reports the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (Q3 - Q1) /
median, next to the metric's bound in BENCHMARK.json. Seeds run in the outer
loop, so host drift during the sweep spreads over all workloads alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="Comma-separated seeds or ranges, e.g. 1-10.")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in bounds} for w in workloads}
    failures = 0
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            final = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if final is None or not final["correct"]:
                failures += 1
                print(f"{w} seed {seed}: exit {proc.returncode} {proc.stderr.strip()[-300:]}", file=sys.stderr)
                continue
            for m in bounds:
                values[w][m].append(final["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{m}={v[-1]:.6g}" for m, v in values[w].items()), flush=True)

    summary = {w: {m: summarise(v, bounds[m]) for m, v in ms.items() if len(v) >= 2} for w, ms in values.items()}
    report = ROOT / ".bench_out" / f"{workloads[0]}-seed{parse_seeds(args.seeds)[-1]}-trace0.json"
    host = json.loads(report.read_text(encoding="utf-8"))["host"] if report.exists() else None
    for w, ms in summary.items():
        for m, s in ms.items():
            print(f"{w:<9} {m:<12} median {s['median']:>12.6g}  spread {s['spread']:.4f}  bound {s['bound']}")
    if args.out is not None:
        args.out.write_text(json.dumps({"seconds": args.seconds, "seeds": args.seeds, "failures": failures,
                                        "host": host, "summary": summary}, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
