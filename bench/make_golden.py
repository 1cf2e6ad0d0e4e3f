"""Record golden digests of ``betti --all-folds --json`` for the benchmark suites.

    python3 bench/make_golden.py [--workload betti_sweep]

Runs the CLI of this checkout on every suite instance of the betti_*
workloads, as generated, and admits the sha256 of its report without the
instance echo (``run.split_report``) only after checking the tables it
prints:

- the Herzog-Kuhl equations hold at the fold's height;
- the projective dimension is min(k, n - a + 1);
- ``tutte_hk`` gives the same table wherever its height window applies;
- the paper's examples match their published tables.

Any failed check aborts without writing.  Meant to be run once, at the
commit whose output the benchmark holds later commits to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from math import prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from foldbetti import cli  # noqa: E402
from foldbetti.betti import compute_betti  # noqa: E402
from foldbetti.matroid import height_of_fold_ideal  # noqa: E402
from run import Harness, split_report  # noqa: E402

# Published values: b_1 of Example 2.5 at a = 1..7, its full tables at
# a = 4, 5, 6, b_1 of Example 3.6 at a = 5, and Example 4.3 at a = 3.
PUBLISHED_B1 = {"ex2_5": {a: b for a, b in enumerate((3, 6, 10, 14, 14, 6, 1), start=1)},
                "ex3_6": {5: 19}}
PUBLISHED_TABLES = {"ex2_5": {4: [14, 22, 9], 5: [14, 21, 8], 6: [6, 5, 0]},
                    "ex4_3": {3: [3, 2]}}


def herzog_kuhl_residuals(b, a, height):
    """sum_i (-1)^i b_i (a+i-1)...(a+i-j) for j < height, with b_0 = 1."""
    out = []
    for j in range(height):
        total = 1 if j == 0 else 0
        for i, bi in enumerate(b, start=1):
            total += (-1) ** i * prod(a + i - u for u in range(1, j + 1)) * bi
        out.append(total)
    return out


def check_tables(tier, text, report, stats):
    """Problems with the tables of one ``betti --all-folds --json`` report."""
    sigma = cli.to_collection(cli.parse_instance(text))
    n, k = report["n"], report["k_effective"]
    problems = []
    folds = []
    for entry in report["results"]:
        a = entry["a"]
        b = entry["methods"]["auto"]["b"]
        folds.append(a)
        pdim = max((i for i, v in enumerate(b, start=1) if v), default=0)
        if pdim != min(k, n - a + 1):
            problems.append("a=%d: pdim %d, law says %d" % (a, pdim, min(k, n - a + 1)))
        if any(herzog_kuhl_residuals(b, a, height_of_fold_ideal(sigma, a))):
            problems.append("a=%d: Herzog-Kuhl residuals nonzero for %s" % (a, b))
        try:
            other = list(compute_betti(sigma, a, "tutte_hk").b)
        except ValueError as exc:
            if "height window" not in str(exc):
                raise
            stats["tutte_hk_outside_window"] += 1
        else:
            stats["tutte_hk_compared"] += 1
            if other != b:
                problems.append("a=%d: tutte_hk gives %s, recursion %s" % (a, other, b))
        published = PUBLISHED_TABLES.get(tier, {}).get(a)
        if published is not None and published != b:
            problems.append("a=%d: published table %s, got %s" % (a, published, b))
        published_b1 = PUBLISHED_B1.get(tier, {}).get(a)
        if published_b1 is not None and published_b1 != b[0]:
            problems.append("a=%d: published b_1 %d, got %d" % (a, published_b1, b[0]))
    if folds != list(range(1, n + 1)):
        problems.append("folds %s are not 1..%d" % (folds, n))
    stats["folds"] += len(folds)
    return problems


def build(workload, workdir):
    harness = Harness(HERE.parent, workload, workdir, hard_limit_s=float("inf"))
    digests = {}
    stats = {"instances": 0, "folds": 0, "tutte_hk_compared": 0, "tutte_hk_outside_window": 0}
    problems = []
    for tier, index, body in workloads.suite(workload):
        key = "%s/%d" % (tier.name, index)
        text = workloads.instance_text(body)
        _, _, _, code, out, err, _ = harness.spawn(harness.cli_argv(harness.instance_path(text)))
        if code != 0:
            problems.append("%s: exit %d: %s" % (key, code, err.decode()[-200:]))
            continue
        found = check_tables(tier.name, text, json.loads(out), stats)
        problems.extend("%s: %s" % (key, p) for p in found)
        echo, digest = split_report(out)
        if echo != body:
            problems.append("%s: the echoed instance differs from the input" % key)
        digests[hashlib.sha256(text).hexdigest()] = digest
        stats["instances"] += 1
        print("%s %s ok" % (workload, key), file=sys.stderr, flush=True)
    return digests, stats, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    betti_workloads = [w for w, spec in workloads.WORKLOADS.items() if spec["command"] == "betti"]
    parser.add_argument("--workload", choices=betti_workloads, action="append")
    args = parser.parse_args(argv)
    workdir = HERE.parent / ".bench_build" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or betti_workloads:
        digests, stats, problems = build(workload, workdir)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        out = HERE / "golden" / ("%s.json" % workload)
        out.parent.mkdir(exist_ok=True)
        doc = {"workload": workload, "suite_per_tier": workloads.SUITE_PER_TIER, "checks": stats,
               "digests": dict(sorted(digests.items()))}
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print("%s: %s" % (out.name, json.dumps(stats)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
