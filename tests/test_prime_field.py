"""GF(p) against Q: equal reports wherever reduction mod p keeps the matroid.

Integer instances are run once as rational and once as GF(p) instances.
When every subset of their columns has the same rank over both fields, the
two matroids are equal, so every report built from the matroid must be
too.  A small prime that merges forms is the fenced-off case: there the
GF(p) tables are those of the merged collection, not of the rational one.
"""

import json
import random
from itertools import combinations

import pytest

from foldbetti.cli import parse_instance, run

from conftest import gauss_rank

SEED = 20251018
CASES = 60


def instance(cols, field):
    forms = [{"coeffs": [str(c) for c in col], "mult": 1} for col in cols]
    return parse_instance(json.dumps({"field": field, "k": len(cols[0]), "forms": forms}))


def report(command, inst):
    data = dict(run(command, inst).data)
    data.pop("instance")
    data.pop("warnings", None)
    return data


def ranks_agree(cols, p):
    return all(
        gauss_rank([cols[i] for i in subset]) == gauss_rank([cols[i] for i in subset], p)
        for size in range(1, len(cols) + 1)
        for subset in combinations(range(len(cols)), size)
    )


@pytest.mark.parametrize("p", [101, 10007])
def test_gf_p_reports_equal_rational_when_ranks_agree(p):
    rng = random.Random(SEED + p)
    compared = 0
    for _ in range(CASES):
        k = rng.randint(1, 4)
        cols = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(1, 8))]
        if not any(any(col) for col in cols) or not ranks_agree(cols, p):
            continue
        rational, modular = instance(cols, "rational"), instance(cols, "gf(%d)" % p)
        for command in ("betti", "tutte", "hamming"):
            assert report(command, modular) == report(command, rational), (cols, command)
        compared += 1
    assert compared >= CASES // 2


def test_small_prime_merges_forms_and_changes_tables():
    # x2 + 4x1 and x2 + x1 are one form mod 3
    cols = [(1, 0), (0, 1), (1, 1), (1, 4)]
    assert not ranks_agree(cols, 3)
    rational, modular = instance(cols, "rational"), instance(cols, "gf(3)")
    tables = [report("betti", inst)["results"] for inst in (rational, modular)]
    assert tables[0] != tables[1]
    assert tables[0][2]["methods"]["auto"]["b"] == [4, 3]
    assert tables[1][2]["methods"]["auto"]["b"] == [3, 2]
    merged = instance([(1, 0), (0, 1), (1, 1), (1, 1)], "rational")
    assert report("betti", merged)["results"] == tables[1]
