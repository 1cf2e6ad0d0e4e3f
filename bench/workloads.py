"""Seeded instance generator for the foldbetti benchmark.

Every workload is a list of tiers.  A tier is either one of the paper's
worked examples or a recipe for random collections (rank k, size n and a
multiplicity shape).  Random instances are numbered per tier: instance i
of a tier is a pure function of (workload, tier, i).  A workload's suite
is the examples plus the first SUITE_PER_TIER instances of every random
tier, and a golden digest is recorded once for each of them.

A run with seed s walks the suite in blocks.  Every block holds the whole
suite in an order drawn from s, and every instance of it is written in a
presentation drawn from s: its forms in another order, each scaled by a
nonzero rational.  The CLI normalizes forms (proportional forms merge,
the first nonzero coefficient becomes 1, groups are sorted), so a
presentation changes the bytes the CLI parses and echoes but not the
collection it computes on.  The work of a block is therefore the same
for every seed and every block: instances drawn afresh per seed made the
median latency of a run land on a different instance from seed to seed,
and move by 15-35% with no change in the program.

Run as a script to write the instance files of one seed:

    python3 bench/workloads.py --workload betti_sweep --seed 3 --blocks 2 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

# Random instances per tier in the suite.  A block of one per tier takes
# 4-8 s, so a run of 40 s measures every instance four to seven times, at
# times spread over the run: the speed of the shared machine the baseline
# was taken on changes by up to 50% from one stretch of seconds to the next.
SUITE_PER_TIER = 1
# The scales a presentation multiplies a form by.
SCALES = tuple(Fraction(s) for s in ("1", "-1", "2", "-3", "1/2", "-2/3", "3/4", "-5"))

# The worked examples of the paper, as instance JSON bodies.
PAPER_EXAMPLES = {
    # Example 2.5: (x1, x1, x2, x3, x1-x3, x2+x3, x1+2x2+5x3)
    "ex2_5": (3, [((1, 0, 0), 2), ((0, 1, 0), 1), ((0, 0, 1), 1),
                  ((1, 0, -1), 1), ((0, 1, 1), 1), ((1, 2, 5), 1)]),
    # Example 3.6: eight lines with two 4-fold points on the line x1 = 0
    "ex3_6": (3, [((1, 0, 0), 1), ((1, 0, -1), 1), ((1, 0, -2), 1),
                  ((1, 0, -3), 1), ((0, 1, 0), 1), ((1, -1, 0), 1),
                  ((1, -2, 0), 1), ((1, 1, -2), 1)]),
    # Example 4.3: (x1, x1, x1, x2, x2)
    "ex4_3": (2, [((1, 0), 3), ((0, 1), 2)]),
}


@dataclass(frozen=True)
class Tier:
    """One stratum of a workload.

    ``example`` names a paper example; otherwise the tier draws random
    collections of rank ``k`` and size ``n``.  With ``groups`` set, n is
    spread over that many distinct forms with multiplicity at most
    ``max_mult``; otherwise ``doubles`` forms appear twice and the rest
    once.
    """

    name: str
    k: int = 0
    n: int = 0
    doubles: int = 0
    groups: int = 0
    max_mult: int = 2
    coeff_bound: int = 3
    example: str = ""


def _examples():
    return [Tier(name, example=name) for name in PAPER_EXAMPLES]


WORKLOADS = {
    # betti --all-folds; matroid and forms work dominates, no oracle.
    "betti_sweep": {
        "command": "betti",
        "tiers": _examples() + [
            Tier("k%d_n%d" % (k, n), k=k, n=n, doubles=n // 3)
            for k, n in ((4, 12), (4, 14), (5, 14), (5, 16), (6, 12), (6, 14))
        ],
    },
    # betti --all-folds on few groups with high multiplicity.
    "betti_multiplicity": {
        "command": "betti",
        "tiers": [
            Tier("k%d_n%d_g%d" % (k, n, g), k=k, n=n, groups=g, max_mult=8, coeff_bound=9)
            for k, n, g in (
                (3, 24, 5), (3, 30, 9),
                (4, 24, 5), (4, 27, 7), (4, 30, 9),
                (5, 24, 5), (5, 27, 7), (5, 30, 7),
            )
        ],
    },
    # verify --all-folds; the Hilbert and circuit oracles dominate.
    "verify_oracle": {
        "command": "verify",
        "tiers": _examples() + [
            Tier("k%d_n%d" % (k, n), k=k, n=n, doubles=1, coeff_bound=9)
            for k, n in ((3, 7), (3, 8), (3, 9), (4, 6))
        ],
    },
}

def _canonical(vec):
    """Primitive integer vector with positive leading entry."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    vec = tuple(x // g for x in vec)
    lead = next(x for x in vec if x)
    return vec if lead > 0 else tuple(-x for x in vec)


def _distinct_forms(rng, k, count, bound):
    """``count`` pairwise non-proportional nonzero vectors in [-bound, bound]^k."""
    seen = set()
    out = []
    while len(out) < count:
        vec = tuple(rng.randint(-bound, bound) for _ in range(k))
        if not any(vec):
            continue
        key = _canonical(vec)
        if key in seen:
            continue
        seen.add(key)
        out.append(vec)
    return out


def _multiplicities(rng, tier):
    if not tier.groups:
        return [2] * tier.doubles + [1] * (tier.n - 2 * tier.doubles)
    mults = [1] * tier.groups
    for _ in range(tier.n - tier.groups):
        open_groups = [g for g, m in enumerate(mults) if m < tier.max_mult]
        mults[rng.choice(open_groups)] += 1
    return mults


def _body(k, forms):
    return {
        "field": "rational",
        "k": k,
        "forms": [{"coeffs": [str(c) for c in coeffs], "mult": m} for coeffs, m in forms],
    }


def present(body, rng):
    """``body`` with its forms reordered and each scaled by one of SCALES.

    Rationals are written reduced, as the CLI echoes them.
    """
    forms = [(tuple(Fraction(c) * scale for c in f["coeffs"]), f["mult"])
             for f, scale in ((f, rng.choice(SCALES)) for f in body["forms"])]
    rng.shuffle(forms)
    return _body(body["k"], forms)


def make_instance(workload, tier, index):
    """Instance JSON body for instance ``index`` of ``tier``."""
    if tier.example:
        k, forms = PAPER_EXAMPLES[tier.example]
        return _body(k, forms)
    rng = random.Random("%s/%s/%d" % (workload, tier.name, index))
    mults = _multiplicities(rng, tier)
    vecs = _distinct_forms(rng, tier.k, len(mults), tier.coeff_bound)
    return _body(tier.k, list(zip(vecs, mults)))


def instance_text(body):
    """The exact bytes written to an instance file."""
    return (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")


@dataclass(frozen=True)
class Instance:
    """One suite instance in one presentation.

    ``base`` is the instance as generated, ``text`` the bytes the CLI gets.
    """

    tier: str
    index: int
    base: bytes
    text: bytes

    @property
    def key(self):
        return "%s/%d" % (self.tier, self.index)


def tiers_of(workload, only=None):
    tiers = WORKLOADS[workload]["tiers"]
    if only is not None:
        tiers = [t for t in tiers if t.name in only]
    return tiers


def suite(workload, only=None):
    """(tier, index, body) of every suite instance, in tier order."""
    return [(t, i, make_instance(workload, t, i)) for t in tiers_of(workload, only)
            for i in range(1 if t.example else SUITE_PER_TIER)]


def block_stream(workload, seed, only=None):
    """Yield the blocks (lists of Instance) of ``seed``, without end."""
    rng = random.Random("%s#%d" % (workload, seed))
    members = suite(workload, only)
    while True:
        block = [Instance(t.name, i, instance_text(body), instance_text(present(body, rng)))
                 for t, i, body in members]
        rng.shuffle(block)
        yield block


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--out", required=True, help="directory for the instance files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    stream = block_stream(args.workload, args.seed)
    for b in range(args.blocks):
        for pos, inst in enumerate(next(stream)):
            name = "%03d_%02d_%s_%d.json" % (b, pos, inst.tier, inst.index)
            with open(os.path.join(args.out, name), "wb") as handle:
                handle.write(inst.text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
