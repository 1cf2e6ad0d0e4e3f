"""Run the foldbetti CLI with spans around calls into its modules.

    python3 bench/tracer.py SPANS_FILE betti --input X --all-folds --json

The package is imported unchanged; this file then replaces the public
functions listed in SPECS with timing wrappers, in every foldbetti module
that holds a reference to them, so calls made through module-global names
(the recursions in ``betti`` and ``matroid``) are seen too.  Spans stay in
memory as [name, start_ns, end_ns, parent, tag] and are written to
SPANS_FILE as JSON when the CLI returns.

A tag carries what a span needs beyond its times: ``"hit"`` when a
memoized function is called again with arguments already seen in this
process, ``"raised:<Exception>"`` when the call raised, the fold relation
(a = n) for ``betti_recursion`` and the computed matrix sizes for the oracles.
A name missing from the package is skipped and listed in the output.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from math import comb

_clock = time.perf_counter_ns


def _tag_recursion(args, kwargs, result):
    return "a_eq_n" if args[1] == args[0].n else None


def _tag_hilbert(args, kwargs, result):
    sigma, a, d = args[0], args[1], args[2]
    k = sigma.k
    rows = comb(sigma.n, a) * comb(k - 1 + d - a, k - 1)
    return {"cells": rows * comb(k - 1 + d, k - 1)}


def _tag_relations(args, kwargs, result):
    return {"generators": len(result.generators), "ambient": result.ambient_dim}


def _name_compute_betti(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    return "betti.tutte_hk" if method == "tutte_hk" else "betti.compute_betti"


# (module, attribute path, span name, memoized, tag function)
SPECS = [
    ("cli", "parse_instance", "cli.parse_instance", False, None),
    ("cli", "run", "cli.run", False, None),
    ("cli", "RunReport.to_json", "cli.to_json", False, None),
    ("forms", "normalize", "forms.normalize", False, None),
    ("forms", "essentialize", "forms.essentialize", False, None),
    ("forms", "contract", "forms.contract", False, None),
    ("forms", "delete", "forms.delete", False, None),
    ("matroid", "hamming_weights", "matroid.hamming_weights", True, None),
    ("matroid", "tutte_polynomial", "matroid.tutte_polynomial", True, None),
    ("matroid", "subset_rank", "matroid.subset_rank", False, None),
    ("matroid", "height_of_fold_ideal", "matroid.height_of_fold_ideal", False, None),
    ("betti", "betti_recursion", "betti.recursion", True, _tag_recursion),
    ("betti", "is_generic", "betti.is_generic", False, None),
    ("betti", "compute_betti", _name_compute_betti, False, None),
    # the closed forms the recursion dispatches to
    ("betti", "betti_rank2", "betti.rank2", False, None),
    ("betti", "betti_maximal_power", "betti.maximal_power", False, None),
    ("betti", "betti_height1_reduce", "betti.height1", False, None),
    ("betti", "betti_nminus1", "betti.a_eq_nminus1", False, None),
    ("betti", "betti_cm_generic", "betti.cm_generic", False, None),
    ("betti", "betti_from_b1_height_km1", "betti.hk_window", False, None),
    ("oracle", "hilbert_function", "oracle.hilbert_function", False, _tag_hilbert),
    ("oracle", "betti_from_hilbert", "oracle.betti_from_hilbert", False, None),
    ("oracle", "relation_space", "oracle.relation_space", False, _tag_relations),
    ("exactlin", "bareiss_rank", "exactlin.bareiss_rank", False, None),
    ("exactlin", "IntEchelon.add", "exactlin.echelon", False, None),
    ("exactlin", "SparseIntEchelon.add", "exactlin.echelon", False, None),
]


class Recorder:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = [-1]

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, func, name, memoized, tag_fn):
        fixed_id = None if callable(name) else self.name_id(name)
        seen = set() if memoized else None
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else self.name_id(name(args, kwargs))
            tag = None
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    tag = "hit"
                else:
                    seen.add(key)
            span = [nid, _clock(), 0, stack[-1], tag]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[4] = "raised:" + type(exc).__name__
                raise
            else:
                if tag_fn is not None and tag is None:
                    span[4] = tag_fn(args, kwargs, result)
                return result
            finally:
                span[2] = _clock()
                stack.pop()

        return traced

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(extra, names=self.names, spans=self.spans), handle,
                      separators=(",", ":"))


def install(recorder, package="foldbetti"):
    """Wrap every SPECS entry; return the attribute paths that were missing."""
    modules = {}
    for short in ("exactlin", "forms", "matroid", "betti", "oracle", "cli"):
        try:
            modules[short] = importlib.import_module("%s.%s" % (package, short))
        except ImportError:
            modules[short] = None
    holders = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    missing = []
    for short, path, name, memoized, tag_fn in SPECS:
        owner = modules[short]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None) if owner is not None else None
        original = getattr(owner, parts[-1], None) if owner is not None else None
        if original is None:
            missing.append("%s.%s" % (short, path))
            continue
        wrapped = recorder.wrap(original, name, memoized, tag_fn)
        if len(parts) > 1:
            setattr(owner, parts[-1], wrapped)
            continue
        for module in holders:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    return missing


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    started = _clock()
    recorder = Recorder()
    missing = install(recorder)
    from foldbetti.cli import main as cli_main

    code = 1
    try:
        code = cli_main(cli_args)
    finally:
        recorder.dump(spans_path, {"started_ns": started, "ended_ns": _clock(),
                                   "missing": missing})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
