"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workload W ...] [--trace 0|1] [--out FILE]

For every workload and metric it reports the median of the runs, their
quartiles and the spread (third minus first quartile, over the median),
the figure the bounds in BENCHMARK.json are checked against.  ``--out``
merges the summary into a JSON results file; ``bench/results/`` holds
the recorded baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError("run.py exited %d: %s" % (proc.returncode, proc.stderr[-500:]))
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return json.loads(lines[-1]), info


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="JSON results file to merge the summary into")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in names:
        per_metric = {}
        failed = attempted = 0
        infos = []
        for seed in parse_seeds(args.seeds):
            result, info = run_once(workload, seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            infos.append({k: info.get(k) for k in ("seed", "instances", "blocks", "failures")})
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
            print("%s seed %d: correct=%s %s" % (workload, seed, result["correct"], " ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items()
                if n in bounds)), file=sys.stderr, flush=True)
        metrics = {}
        for name, (unit, values) in per_metric.items():
            metrics[name] = dict(summarise(values), unit=unit)
            if name in bounds:
                metrics[name]["bound"] = bounds[name]
        summary[workload] = {"attempted": attempted, "failed": failed,
                             "failed_ratio": failed / attempted if attempted else 0.0,
                             "metrics": metrics, "runs": infos}
        for name, m in metrics.items():
            flag = ""
            if name in bounds and name != "setup_s" and m["spread"] > bounds[name] / 3:
                flag = "  <-- spread above a third of the bound"
            print("%-20s %-36s median %-12.6g spread %.3f%s" % (
                workload, name, m["median"], m["spread"], flag), file=sys.stderr)
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        doc.setdefault("environment", {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        })
        key = "traced" if args.trace else "end_to_end"
        doc.setdefault(key, {}).update({
            w: dict(s, seeds=args.seeds, seconds=args.seconds) for w, s in summary.items()})
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
