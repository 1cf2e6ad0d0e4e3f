"""Closed-loop benchmark of the foldbetti CLI.

    python3 bench/run.py --workload betti_sweep --seed 1 --seconds 40 --trace 0

One client, one child process at a time: each instance is a fresh
``python -m foldbetti.cli <command> --input FILE --all-folds --json``, so
every call pays the interpreter start and the empty memo tables a user
pays.  The program is taken from ``src/`` of the checkout the benchmark
sits in.

With ``--trace 0`` the run times a cold start (``setup_s``) before each
of the seed's blocks (see ``workloads.py``: every block is the whole
suite, in a presentation and order drawn from the seed) while another
block fits in ``--seconds``.  Each instance counts with the mean of its
runs: on a shared machine other tenants slow single runs by tens of
percent.  With ``--trace 1`` every instance of the first block runs
twice, once plainly and once under ``tracer.py``; the per-layer figures
come from the traced children and the tracing overhead from the pairs.

Every child's output is checked: a nonzero exit, a traceback on stderr,
a ``verify`` verdict other than ``agree``, or ``betti --json`` bytes that
differ from the golden digest in ``golden/`` (with the instance echo
compared to the input) each count as a failure.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
CHILD_TIMEOUT_S = 90.0
# A run stops starting children once this much time has gone, whatever
# --seconds asks for, so that it always exits well inside three minutes.
HARD_LIMIT_S = 150.0
SETUP_INSTANCE = {"field": "rational", "k": 1, "forms": [{"coeffs": ["1"], "mult": 1}]}
DISPATCH = {
    "betti.rank2": "rank2",
    "betti.maximal_power": "maximal_power",
    "betti.height1": "height1",
    "betti.a_eq_nminus1": "a_eq_nminus1",
    "betti.cm_generic": "cm_generic",
    "betti.hk_window": "hk_window",
    "forms.delete": "deletion_contraction",
}
DISPATCH_KINDS = ("rank2", "maximal_power", "height1", "a_eq_n", "a_eq_nminus1",
                  "cm_generic", "hk_window", "deletion_contraction")
MODULES = ("cli", "forms", "matroid", "betti", "oracle", "exactlin")


@dataclass
class Sample:
    """One finished child: its timings and the verdict of the output check."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: str | None


class Harness:
    """Spawns children of one checkout and checks what they print."""

    def __init__(self, root, workload, workdir, hard_limit_s=HARD_LIMIT_S):
        self.root = Path(root)
        self.workload = workload
        self.command = workloads.WORKLOADS[workload]["command"]
        self.workdir = Path(workdir)
        self.hard_limit_s = hard_limit_s
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        golden_path = HERE / "golden" / ("%s.json" % workload)
        self.golden = {}
        if self.command == "betti" and golden_path.is_file():
            with open(golden_path, encoding="utf-8") as handle:
                self.golden = json.load(handle)["digests"]
        self.failures = []

    def instance_path(self, text):
        """Write ``text`` to the instance file; children run one at a time."""
        path = self.workdir / "instance.json"
        path.write_bytes(text)
        return path

    def cli_argv(self, path, traced_spans=None):
        head = [sys.executable]
        if traced_spans is None:
            head += ["-m", "foldbetti.cli"]
        else:
            head += [str(HERE / "tracer.py"), str(traced_spans)]
        return head + [self.command, "--input", str(path), "--all-folds", "--json"]

    def spawn(self, argv):
        """Run one child; return (wall, cpu, rss_mb, code, stdout, stderr, killed)."""
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600),
        ]
        budget = min(CHILD_TIMEOUT_S, max(1.0, self.hard_limit_s + 20 - self.elapsed()))
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], budget)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, code, out_path.read_bytes(), err_path.read_bytes(), not ready

    def elapsed(self):
        return time.perf_counter() - self.started

    def check(self, inst, code, out, err, timed_out):
        """Reason the output is wrong, or None."""
        if timed_out:
            return "killed after the child time limit"
        if b"Traceback (most recent call last)" in err:
            return "traceback on stderr"
        if code != 0:
            return "exit code %d" % code
        if self.command == "verify":
            try:
                verdicts = [r.get("verdict") for r in json.loads(out)["results"]]
            except (ValueError, KeyError, TypeError):
                return "verify output is not the expected JSON"
            bad = [v for v in verdicts if v != "agree"]
            if bad or not verdicts:
                return "verdict %r" % (bad[:1] or "none")
            return None
        expected = self.golden.get(hashlib.sha256(inst.base).hexdigest())
        if expected is None:
            return "no golden digest for this instance"
        try:
            echo, digest = split_report(out)
        except ValueError as exc:
            return str(exc)
        if echo != json.loads(inst.text):
            return "the instance echoed in --json differs from the input"
        if digest != expected:
            return "--json output differs from the golden digest"
        return None

    def run_instance(self, inst, traced_spans=None):
        path = self.instance_path(inst.text)
        wall, cpu, rss, code, out, err, timed_out = self.spawn(self.cli_argv(path, traced_spans))
        failure = self.check(inst, code, out, err, timed_out)
        if failure:
            self.failures.append("%s: %s" % (inst.key, failure))
        return Sample(wall, cpu, rss, failure)

    def setup_probe(self):
        """Cold start of ``betti --fold 1`` on a one-form instance."""
        path = self.instance_path(workloads.instance_text(SETUP_INSTANCE))
        argv = [sys.executable, "-m", "foldbetti.cli", "betti", "--input", str(path),
                "--fold", "1", "--json"]
        wall, _, _, code, out, err, timed_out = self.spawn(argv)
        ok = code == 0 and not timed_out and b"Traceback" not in err
        if ok:
            try:
                ok = json.loads(out)["results"][0]["methods"]["auto"]["b"] == [1]
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False
        if not ok:
            self.failures.append("setup: cold-start probe failed (exit %d)" % code)
        return wall, ok


def split_report(out):
    """(echoed instance, sha256 of the rest) of ``betti --json`` bytes.

    The golden digests cover the report without its ``instance`` echo,
    which differs between presentations of one instance.  Raises
    ValueError unless ``out`` is exactly the CLI's JSON layout, so with the
    echo compared to the input this checks every byte of the output.
    """
    try:
        doc = json.loads(out)
        echo = doc.pop("instance")
    except (ValueError, KeyError, AttributeError, TypeError):
        raise ValueError("--json output is not a betti report") from None
    doc["instance"] = echo
    if dump_report(doc) != out:
        raise ValueError("--json output is not laid out as sorted, indented JSON")
    del doc["instance"]
    return echo, hashlib.sha256(dump_report(doc)).hexdigest()


def dump_report(doc):
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def quantile(values, q):
    """The q-th decile (q=5 median, q=9 p90), by the inclusive method.

    With the 7 to 9 instances of a suite the exclusive method would put p90
    above the slowest instance; the inclusive one keeps it between the two
    slowest.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def run_plain(harness, seed, seconds, only):
    harness.setup_probe()  # compiles the bytecode cache; not timed
    setup = []
    failed = 0
    stream = workloads.block_stream(harness.workload, seed, only)
    runs = {}  # instance key -> [(wall, cpu)], one per complete block
    rss = 0.0
    attempted = 0
    loop_start = time.perf_counter()
    block_s = 0.0
    blocks = 0
    while not blocks or time.perf_counter() - loop_start + block_s <= seconds:
        block_start = time.perf_counter()
        # One cold start per block, so that setup_s spans the run as the
        # instance timings do.
        wall, ok = harness.setup_probe()
        setup.append(wall)
        attempted += 1
        failed += not ok
        block = next(stream)
        samples = []
        for inst in block:
            if harness.elapsed() >= harness.hard_limit_s:
                break
            sample = harness.run_instance(inst)
            samples.append((inst.key, sample))
            attempted += 1
            failed += sample.failure is not None
            rss = max(rss, sample.rss_mb)
        if len(samples) < len(block):
            break
        for key, sample in samples:
            runs.setdefault(key, []).append((sample.wall_s, sample.cpu_s))
        block_s = time.perf_counter() - block_start
        blocks += 1
    info = {"instances": len(runs), "blocks": blocks, "setup_samples": len(setup),
            "failed_ratio": failed / attempted}
    if not runs:
        return attempted, max(failed, 1), {}, info
    # Each instance counts with the mean of its runs.  The shared machine
    # the baseline was taken on switches between a fast and a slow state,
    # up to 50% apart, every few seconds; a median of runs that fall in both
    # jumps between the states, a mean moves with the share of each.
    walls = [statistics.fmean(w for w, _ in r) for r in runs.values()]
    cpus = [statistics.fmean(c for _, c in r) for r in runs.values()]
    metrics = {
        "instances_per_s": (len(walls) / sum(walls), "1/s"),
        "latency_p50_s": (quantile(walls, 5), "s"),
        "latency_p90_s": (quantile(walls, 9), "s"),
        "cpu_p50_s": (quantile(cpus, 5), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return attempted, failed, metrics, info


class LayerTotals:
    """Per-layer sums over the spans files of a traced run."""

    def __init__(self):
        self.calls = {}
        self.hits = {}
        self.self_ns = {}
        self.raised = {}
        self.tag_sums = {}
        self.dispatch = dict.fromkeys(DISPATCH_KINDS, 0)
        self.outside_ns = 0
        self.missing = set()

    def add(self, doc, wall_s):
        names = doc["names"]
        spans = doc["spans"]
        children = [0] * len(spans)
        first_kind = [None] * len(spans)
        dispatched = [False] * len(spans)
        root_ns = 0
        for nid, start, end, parent, tag in spans:
            dur = end - start
            if parent < 0:
                root_ns += dur
                continue
            children[parent] += dur
            if names[spans[parent][0]] == "betti.recursion":
                name = names[nid]
                if name != "forms.essentialize":
                    dispatched[parent] = True
                if first_kind[parent] is None and name in DISPATCH:
                    first_kind[parent] = DISPATCH[name]
        for i, (nid, start, end, parent, tag) in enumerate(spans):
            name = names[nid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start - children[i])
            if tag == "hit":
                self.hits[name] = self.hits.get(name, 0) + 1
            elif isinstance(tag, str) and tag.startswith("raised:"):
                key = (name, tag[7:])
                self.raised[key] = self.raised.get(key, 0) + 1
            elif isinstance(tag, dict):
                for field, value in tag.items():
                    key = "%s.%s" % (name, field)
                    self.tag_sums[key] = self.tag_sums.get(key, 0) + value
            if name == "betti.recursion" and dispatched[i]:
                kind = first_kind[i] or ("a_eq_n" if tag == "a_eq_n" else None)
                if kind:
                    self.dispatch[kind] += 1
        self.outside_ns += max(0, int(wall_s * 1e9) - root_ns)
        self.missing.update(doc.get("missing", []))

    def metrics(self):
        def calls(name):
            return (self.calls.get(name, 0), "count")

        def self_s(name):
            return (self.self_ns.get(name, 0) / 1e9, "s")

        def hit_ratio(name):
            n = self.calls.get(name, 0)
            return (self.hits.get(name, 0) / n if n else 0.0, "ratio")

        def raised(names, exc):
            return (sum(self.raised.get((n, exc), 0) for n in names), "count")

        m = {
            "cli.parse_instance.s": self_s("cli.parse_instance"),
            "cli.run.s": self_s("cli.run"),
            "cli.to_json.s": self_s("cli.to_json"),
            "forms.normalize.calls": calls("forms.normalize"),
            "forms.normalize.s": self_s("forms.normalize"),
            "forms.essentialize.calls": calls("forms.essentialize"),
            "forms.essentialize.s": self_s("forms.essentialize"),
            "forms.contract.calls": calls("forms.contract"),
            "forms.delete.calls": calls("forms.delete"),
            "matroid.hamming_weights.calls": calls("matroid.hamming_weights"),
            "matroid.hamming_weights.s": self_s("matroid.hamming_weights"),
            "matroid.hamming_weights.hit_ratio": hit_ratio("matroid.hamming_weights"),
            "matroid.tutte_polynomial.nodes": calls("matroid.tutte_polynomial"),
            "matroid.tutte_polynomial.s": self_s("matroid.tutte_polynomial"),
            "matroid.tutte_polynomial.hit_ratio": hit_ratio("matroid.tutte_polynomial"),
            "matroid.subset_rank.calls": calls("matroid.subset_rank"),
            "matroid.height_of_fold_ideal.s": self_s("matroid.height_of_fold_ideal"),
            "betti.recursion.nodes": calls("betti.recursion"),
            "betti.recursion.s": self_s("betti.recursion"),
            "betti.recursion.hit_ratio": hit_ratio("betti.recursion"),
        }
        for kind in DISPATCH_KINDS:
            m["betti.dispatch." + kind] = (self.dispatch[kind], "count")
        m.update({
            "betti.is_generic.calls": calls("betti.is_generic"),
            "betti.tutte_hk.s": self_s("betti.tutte_hk"),
            "betti.tutte_hk.skipped": raised(["betti.tutte_hk"], "ValueError"),
            "oracle.hilbert_function.calls": calls("oracle.hilbert_function"),
            "oracle.hilbert_function.s": self_s("oracle.hilbert_function"),
            "oracle.hilbert.cells": (self.tag_sums.get("oracle.hilbert_function.cells", 0), "cells"),
            "oracle.betti_from_hilbert.s": self_s("oracle.betti_from_hilbert"),
            "oracle.relation_space.s": self_s("oracle.relation_space"),
            "oracle.relation_space.generators":
                (self.tag_sums.get("oracle.relation_space.generators", 0), "count"),
            "oracle.relation_space.ambient":
                (self.tag_sums.get("oracle.relation_space.ambient", 0), "count"),
            "oracle.skipped": raised(["oracle.betti_from_hilbert", "oracle.relation_space"],
                                     "OracleLimitError"),
            "exactlin.bareiss_rank.calls": calls("exactlin.bareiss_rank"),
            "exactlin.bareiss_rank.s": self_s("exactlin.bareiss_rank"),
            "exactlin.echelon.rows": calls("exactlin.echelon"),
            "exactlin.echelon.s": self_s("exactlin.echelon"),
        })
        for module in MODULES:
            total = sum(ns for name, ns in self.self_ns.items() if name.startswith(module + "."))
            m["self.%s.s" % module] = (total / 1e9, "s")
        m["self.outside.s"] = (self.outside_ns / 1e9, "s")
        return m


def run_traced(harness, seed, only):
    harness.setup_probe()  # compiles the bytecode cache; not timed
    block = next(workloads.block_stream(harness.workload, seed, only))
    totals = LayerTotals()
    plain_s = traced_s = 0.0
    samples = []
    for i, inst in enumerate(block):
        spans_path = harness.workdir / "spans.json"
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if harness.elapsed() >= harness.hard_limit_s:
                break
            sample = harness.run_instance(inst, spans_path if traced else None)
            samples.append(sample)
            if traced:
                traced_s += sample.wall_s
                if spans_path.exists():
                    with open(spans_path, encoding="utf-8") as handle:
                        totals.add(json.load(handle), sample.wall_s)
                    spans_path.unlink()
            else:
                plain_s += sample.wall_s
    attempted = len(samples)
    failed = sum(1 for s in samples if s.failure)
    metrics = totals.metrics()
    pairs = attempted // 2
    plain_ips = pairs / plain_s if plain_s else 0.0
    traced_ips = pairs / traced_s if traced_s else 0.0
    metrics["trace.instances_per_s.untraced"] = (plain_ips, "1/s")
    metrics["trace.instances_per_s.traced"] = (traced_ips, "1/s")
    metrics["trace.overhead.instances_per_s"] = (plain_ips - traced_ips, "1/s")
    oracle_self = metrics["self.oracle.s"][0]
    metrics["self.oracle.share"] = (oracle_self / traced_s if traced_s else 0.0, "ratio")
    info = {"instances": len(block), "pairs": pairs, "untraced_s": plain_s, "traced_s": traced_s,
            "missing_wrappers": sorted(totals.missing)}
    return attempted, failed, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run_workload(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 2
    print_result(*result)
    return 0


def run_workload(root, workload, seed, seconds, trace, only=None):
    """Run one workload; None when ``root`` holds no foldbetti sources."""
    root = Path(root)
    if not (root / "src" / "foldbetti" / "cli.py").is_file():
        print("bench: no foldbetti sources under %s/src" % root, file=sys.stderr)
        return None
    workdir = root / ".bench_build" / ("foldbetti-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        harness = Harness(root, workload, workdir)
        if trace:
            attempted, failed, metrics, info = run_traced(harness, seed, only)
        else:
            attempted, failed, metrics, info = run_plain(harness, seed, seconds, only)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(workload=workload, seed=seed, failures=harness.failures[:20],
                elapsed_s=harness.elapsed())
    return attempted, failed, metrics, info


def print_result(attempted, failed, metrics, info):
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    print("failed_ratio %d/%d = %g" % (failed, attempted, failed / attempted))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
