"""Command-line front end: parse instances, compute, cross-verify, report.

Instances are JSON files ({"field": "rational", "k": 3, "forms": [{"coeffs":
["1","0","-1/2"], "mult": 2}, ...]}); rationals travel as strings so no
float ever touches a coefficient.  Reports come out as aligned text or as
key-sorted JSON that is byte-identical across runs.

Exit codes: 0 when everything ran (and agreed, for ``verify``); 1 for bad
input, a refused computation or a disagreement; 2 for a bad command line;
3 when the computation nests deeper than the interpreter's recursion limit
or runs out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .betti import (
    METHODS,
    compute_betti,
    herzog_kuhl_residuals,
)
from .forms import Record, essentialize, normalize
from .matroid import (
    TuttePoly,
    hamming_weights,
    height_of_fold_ideal,
    tutte_polynomial,
    tutte_shifted_coeffs,
)
from .oracle import OracleLimitError, b1_via_circuits, betti_from_hilbert, hf_report


class InstanceError(Exception):
    """The instance file is malformed; the message names the bad field."""


class CommandError(Exception):
    """The requested computation cannot run with the given options."""


# Miller-Rabin with the first 13 primes as bases is exact below PRIME_LIMIT,
# the least strong pseudoprime to all of them (OEIS A014233).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2 or any(p % b == 0 for b in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    # p passes base b when b^d, b^2d, ..., b^(2^(s-1) d) starts at 1 or meets -1
    chains = ([pow(b, d << i, p) for i in range(s)] for b in _BASES)
    return all(chain[0] == 1 or p - 1 in chain for chain in chains)


def _too_long(text):
    """Whether ``Fraction(text)`` may build an int of more than 4300 digits, CPython's
    default int-string limit: each side of a ``p/q`` alone, else the mantissa's
    digits plus the exponent's size."""
    if "/" in text:
        return any(sum(ch.isdigit() for ch in side) > 4300 for side in text.split("/"))
    mantissa, _, exponent = text.lower().partition("e")
    try:
        shift = abs(int(exponent or 0))
    except ValueError:  # Fraction names the malformed string
        shift = 0
    return sum(ch.isdigit() for ch in mantissa) + shift > 4300


class InstanceFile(Record):
    """Validated instance: scalar field, ambient count, forms with multiplicity."""

    __slots__ = ("field", "p", "k", "forms")

    def to_json_dict(self):
        return {
            "field": self.field,
            "k": self.k,
            "forms": [
                {"coeffs": [str(c) for c in coeffs], "mult": m}
                for coeffs, m in self.forms
            ],
        }


def parse_instance(text) -> InstanceFile:
    """Parse and validate instance JSON; errors carry the offending path."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
        # past the int-string limit; the decoder recurses once per nested
        # array or object
        raise InstanceError("malformed JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise InstanceError("instance: expected a JSON object")
    field = data.get("field", "rational")
    p = None
    if field != "rational":
        if not (isinstance(field, str) and field.startswith("gf(") and field.endswith(")")):
            raise InstanceError('field: expected "rational" or "gf(p)", got %r' % (field,))
        try:
            p = int(field[3:-1])
        except ValueError:
            raise InstanceError("field: cannot read a prime out of %r" % (field,)) from None
        if p >= PRIME_LIMIT:
            raise InstanceError("field: gf(p) needs p < %d, got %d" % (PRIME_LIMIT, p))
        if not _is_prime(p):
            raise InstanceError("field: %d is not prime" % p)
    k = data.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InstanceError("k: expected a positive integer, got %r" % (k,))
    raw_forms = data.get("forms")
    if not isinstance(raw_forms, list) or not raw_forms:
        raise InstanceError("forms: expected a nonempty list")
    parsed = []
    any_nonzero = False
    for i, item in enumerate(raw_forms):
        path = "forms[%d]" % i
        if not isinstance(item, dict):
            raise InstanceError("%s: expected an object" % path)
        coeffs = item.get("coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != k:
            got = len(coeffs) if isinstance(coeffs, list) else type(coeffs).__name__
            raise InstanceError("%s.coeffs: expected %d entries, got %s" % (path, k, got))
        mult = item.get("mult", 1)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise InstanceError("%s.mult: expected a positive integer, got %r" % (path, mult))
        vals = []
        for j, c in enumerate(coeffs):
            if isinstance(c, bool) or not isinstance(c, (str, int)):
                raise InstanceError("%s.coeffs[%d]: expected a rational string, got %r" % (path, j, c))
            if isinstance(c, str) and _too_long(c):
                raise InstanceError("%s.coeffs[%d]: %r would need more than 4300 digits" % (path, j, c))
            try:
                q = Fraction(c)
            except (ValueError, ZeroDivisionError) as exc:
                raise InstanceError("%s.coeffs[%d]: cannot parse %r as a rational: %s" % (path, j, c, exc)) from None
            if p is not None:
                if q.denominator % p == 0:
                    raise InstanceError("%s.coeffs[%d]: denominator of %s vanishes in GF(%d)" % (path, j, q, p))
                vals.append(q.numerator * pow(q.denominator, -1, p) % p)
            else:
                vals.append(q)
        if any(v != 0 for v in vals):
            any_nonzero = True
        parsed.append((tuple(vals), mult))
    if not any_nonzero:
        raise InstanceError("forms: every form is zero")
    return InstanceFile(field if p is None else "gf(%d)" % p, p, k, parsed)


def to_collection(instance: InstanceFile):
    return normalize(instance.forms, instance.k, instance.p)


class RunReport(Record):
    """Per-run results plus an overall success flag (drives the exit code)."""

    __slots__ = ("data", "ok")

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        return render_text(self.data)


def _resolve_folds(command, folds, n, allow_trivial):
    """The requested folds, all of 1..n by default.

    Only ``betti`` and ``verify`` take a fold a > n (the zero ideal), and
    only with ``allow_trivial``.
    """
    if folds is None:
        return list(range(1, n + 1))
    takes_trivial = command in ("betti", "verify")
    for a in folds:
        if a < 1:
            raise CommandError("fold %d must be at least 1" % a)
        if a > n and not (takes_trivial and allow_trivial):
            hint = "; pass --allow-trivial for the zero ideal" if takes_trivial else ""
            raise CommandError("fold %d exceeds n = %d%s" % (a, n, hint))
    return list(folds)


def run(
    command: str,
    instance: InstanceFile,
    folds=None,
    method: str = "auto",
    degrees=None,
    allow_trivial: bool = False,
) -> RunReport:
    """Execute one CLI command against a parsed instance."""
    sigma = to_collection(instance)
    ess = essentialize(sigma)
    n = sigma.n
    data = {
        "command": command,
        "instance": instance.to_json_dict(),
        "n": n,
        "k_original": instance.k,
        "k_effective": ess.k,
    }
    if instance.p is not None:
        data["warnings"] = [
            "prime-field run: results are those of the matroid mod p, which"
            " differs from the rational one where reduction merges forms or drops a rank"
        ]
    ok = True

    if command == "betti":
        folds = _resolve_folds(command, folds, n, allow_trivial)
        results = []
        for a in folds:
            use = "auto" if a > n else method
            table = compute_betti(sigma, a, use)
            results.append({"a": a, "methods": {method: table.to_json_dict()}})
        data["results"] = results
    elif command == "tutte":
        poly = tutte_polynomial(ess)
        data["tutte"] = poly.to_json_dict()
        data["tutte_shifted"] = TuttePoly(tutte_shifted_coeffs(poly)).to_json_dict()
    elif command == "hamming":
        data["hamming"] = list(hamming_weights(ess).d)
    elif command == "height":
        folds = _resolve_folds(command, folds, n, allow_trivial)
        data["heights"] = {str(a): height_of_fold_ideal(sigma, a) for a in folds}
    elif command == "hilbert":
        if not folds or len(folds) != 1:
            raise CommandError("hilbert needs exactly one fold (--fold A)")
        a = _resolve_folds(command, folds, n, allow_trivial)[0]
        if degrees is None:
            degrees = range(a, a + sigma.k)
        if not degrees:
            raise CommandError("the degree range is empty")
        if degrees[0] < a:  # the range ascends: one look, however long it is
            raise CommandError("degree %d is below the fold %d" % (degrees[0], a))
        data["hilbert"] = hf_report(sigma, a, degrees).to_json_dict()
    elif command == "verify":
        folds = _resolve_folds(command, folds, n, allow_trivial)
        data["hamming"] = list(hamming_weights(ess).d)
        results = []
        for a in folds:
            entry, agree = _verify_fold(sigma, ess, a, n)
            results.append(entry)
            ok = ok and agree
        data["results"] = results
    else:
        raise CommandError("unknown command %r" % (command,))
    return RunReport(data, ok)


def _verify_fold(sigma, ess, a, n):
    methods = {}
    if a > n:
        table = compute_betti(sigma, a, "auto")
        methods["recursion"] = table.to_json_dict()
        entry = {"a": a, "methods": methods, "verdict": "agree"}
        return entry, True
    reference = compute_betti(sigma, a, "recursion")
    methods["recursion"] = reference.to_json_dict()
    disagreements = []
    t = compute_betti(sigma, a, "tutte_hk")
    methods["tutte_hk"] = t.to_json_dict()
    if t != reference:
        disagreements.append("tutte_hk")
    try:
        o = betti_from_hilbert(sigma, a)
        methods["oracle"] = o.to_json_dict()
        if o != reference:
            disagreements.append("oracle")
    except OracleLimitError as exc:
        methods["oracle"] = {"skipped": str(exc)}
    if a <= n - 1:
        try:
            c = b1_via_circuits(sigma, a)
            methods["circuit_b1"] = c
            if c != reference.b[0]:
                disagreements.append("circuit_b1")
        except OracleLimitError as exc:
            methods["circuit_b1"] = {"skipped": str(exc)}
    else:
        methods["circuit_b1"] = {"skipped": "fold a = n has no relation space"}
    height = height_of_fold_ideal(sigma, a)
    residuals = herzog_kuhl_residuals(reference, a, height)
    if any(r != 0 for r in residuals):
        disagreements.append("herzog_kuhl")
    expected_pdim = min(ess.k, n - a + 1)
    if reference.pdim != expected_pdim:
        disagreements.append("pdim")
    entry = {
        "a": a,
        "methods": methods,
        "herzog_kuhl": list(residuals),
        "pdim": {"expected": expected_pdim, "actual": reference.pdim},
        "verdict": "agree" if not disagreements else "disagree: " + ", ".join(disagreements),
    }
    return entry, not disagreements


def _render_terms(terms):
    parts = []
    for term in terms:
        c, i, j = term["c"], term["x"], term["y"]
        piece = []
        if c != "1" or (i == 0 and j == 0):
            piece.append(c)
        if i:
            piece.append("x" if i == 1 else "x^%d" % i)
        if j:
            piece.append("y" if j == 1 else "y^%d" % j)
        parts.append("*".join(piece))
    return " + ".join(parts) if parts else "0"


def render_text(data) -> str:
    lines = [
        "instance: field=%s k=%d (effective %d) n=%d"
        % (data["instance"]["field"], data["k_original"], data["k_effective"], data["n"])
    ]
    for w in data.get("warnings", []):
        lines.append("warning: %s" % w)
    if "hamming" in data:
        lines.append("hamming weights: %s" % (data["hamming"],))
    if "heights" in data:
        for a, h in sorted(data["heights"].items(), key=lambda kv: int(kv[0])):
            lines.append("a=%s: height %d" % (a, h))
    if "tutte" in data:
        lines.append("T(x, y)      = %s" % _render_terms(data["tutte"]["terms"]))
        lines.append("T(x+1, y)    = %s" % _render_terms(data["tutte_shifted"]["terms"]))
    if "hilbert" in data:
        hf = data["hilbert"]
        for d, v in sorted(hf["hf"].items(), key=lambda kv: int(kv[0])):
            lines.append("HF(I_%d, %s) = %d" % (hf["a"], d, v))
    for entry in data.get("results", []):
        bits = ["a=%d:" % entry["a"]]
        for name, value in entry["methods"].items():
            if isinstance(value, dict) and "b" in value:
                bits.append("%s=%s" % (name, value["b"]))
            elif isinstance(value, dict):
                bits.append("%s=(skipped: %s)" % (name, value["skipped"]))
            else:
                bits.append("%s=%s" % (name, value))
        if "herzog_kuhl" in entry:
            bits.append("HK=%s" % (entry["herzog_kuhl"],))
        if "pdim" in entry:
            bits.append("pdim=%d/%d" % (entry["pdim"]["actual"], entry["pdim"]["expected"]))
        if "verdict" in entry:
            bits.append(entry["verdict"])
        lines.append("  ".join(bits))
    return "\n".join(lines) + "\n"


def _parse_degrees(text):
    parts = text.split("..")
    try:
        if len(parts) <= 2:
            return range(int(parts[0]), int(parts[-1]) + 1)
    except ValueError:
        pass
    raise CommandError("--degrees must be D or D1..D2 with integer D, got %r" % text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldbetti",
        description="Exact Betti numbers of ideals generated by fold products of linear forms.",
    )
    parser.add_argument(
        "command",
        choices=["betti", "tutte", "hamming", "height", "hilbert", "verify"],
    )
    parser.add_argument("--input", required=True, help="instance JSON file")
    folds = parser.add_mutually_exclusive_group()
    folds.add_argument("--fold", type=int, help="single fold a")
    folds.add_argument("--all-folds", action="store_true", help="run every a = 1..n")
    parser.add_argument("--method", choices=list(METHODS), help="betti only (default auto)")
    parser.add_argument("--degrees", help="degree range D1..D2 (hilbert only)")
    parser.add_argument("--json", dest="as_json", action="store_true", help="machine output")
    parser.add_argument(
        "--allow-trivial", action="store_true", help="accept folds a > n (zero ideal)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        print("foldbetti: cannot read %s: %s" % (args.input, exc), file=sys.stderr)
        return 1
    try:
        instance = parse_instance(text)
        # an option the command would silently ignore is an error
        given = {"--fold": args.fold is not None, "--all-folds": args.all_folds,
                 "--method": args.method is not None, "--degrees": args.degrees is not None,
                 "--allow-trivial": args.allow_trivial}
        # only betti and verify have a zero ideal to report for a fold a > n
        on_folds = ("--fold", "--all-folds")
        trivial = on_folds + ("--allow-trivial",)
        takes = {"betti": trivial + ("--method",), "verify": trivial, "height": on_folds,
                 "hilbert": on_folds + ("--degrees",), "tutte": (), "hamming": ()}
        for option in (o for o, on in given.items() if on):
            if option not in takes[args.command]:
                raise CommandError("%s does not take %s" % (args.command, option))
        folds = [args.fold] if args.fold is not None else None
        degrees = _parse_degrees(args.degrees) if args.degrees is not None else None
        report = run(
            args.command,
            instance,
            folds=folds,
            method=args.method or "auto",
            degrees=degrees,
            allow_trivial=args.allow_trivial,
        )
    except (InstanceError, CommandError, ValueError, OracleLimitError) as exc:
        print("foldbetti: %s" % exc, file=sys.stderr)
        return 1
    except RecursionError:
        print(
            "foldbetti: the computation nests deeper than the interpreter's"
            " recursion limit (%d frames)" % sys.getrecursionlimit(),
            file=sys.stderr,
        )
        return 3
    except MemoryError:
        print("foldbetti: the computation ran out of memory", file=sys.stderr)
        return 3
    sys.stdout.write(report.to_json() if args.as_json else report.to_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
