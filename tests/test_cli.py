"""Instance parsing, report schemas, exit codes, and output stability."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import foldbetti
from foldbetti import cli, oracle
from foldbetti.cli import (
    CommandError,
    InstanceError,
    build_parser,
    main,
    parse_instance,
    run,
    to_collection,
)

from conftest import clear_memos

EXAMPLE_2_5 = {
    "field": "rational",
    "k": 3,
    "forms": [
        {"coeffs": ["1", "0", "0"], "mult": 1},
        {"coeffs": ["1", "0", "0"], "mult": 1},
        {"coeffs": ["0", "1", "0"], "mult": 1},
        {"coeffs": ["0", "0", "1"], "mult": 1},
        {"coeffs": ["1", "0", "-1"], "mult": 1},
        {"coeffs": ["0", "1", "1"], "mult": 1},
        {"coeffs": ["1", "2", "5"], "mult": 1},
    ],
}


# k = 4, n = 27 in seven groups: the multiplicity-heavy shape where the
# recursion meets the same collections at many nodes and folds
MULTIPLICITY_HEAVY = {
    "field": "rational",
    "k": 4,
    "forms": [
        {"coeffs": ["1", "0", "0", "0"], "mult": 6},
        {"coeffs": ["0", "1", "0", "0"], "mult": 5},
        {"coeffs": ["0", "0", "1", "0"], "mult": 4},
        {"coeffs": ["0", "0", "0", "1"], "mult": 4},
        {"coeffs": ["1", "1", "1", "1"], "mult": 3},
        {"coeffs": ["1", "2", "-3", "5"], "mult": 3},
        {"coeffs": ["2", "-1", "4", "-7"], "mult": 2},
    ],
}


def parse_example():
    return parse_instance(json.dumps(EXAMPLE_2_5))


def test_parse_example_instance():
    inst = parse_example()
    assert to_collection(inst).n == 7
    assert inst.k == 3
    assert to_collection(inst).t == 6


def test_parse_minimal_instance():
    inst = parse_instance('{"field":"rational","k":1,"forms":[{"coeffs":["1"],"mult":1}]}')
    assert to_collection(inst).n == 1


def test_parse_round_trip():
    inst = parse_example()
    again = parse_instance(json.dumps(inst.to_json_dict()))
    assert again == inst
    assert again.to_json_dict() == inst.to_json_dict()


def test_parse_errors_name_the_field():
    with pytest.raises(InstanceError, match="malformed JSON"):
        parse_instance(b"{nope")
    # json detects the encoding of bytes: a UTF-8 BOM and UTF-16 read as the
    # plain text, and an undecodable byte is malformed JSON like any other
    plain = '{"k":2,"forms":[{"coeffs":["1","-1/2"],"mult":2}]}'
    for data in (b"\xef\xbb\xbf" + plain.encode(), plain.encode("utf-16")):
        assert parse_instance(data) == parse_instance(plain)
    with pytest.raises(InstanceError, match="malformed JSON"):
        parse_instance(b'{"k": 1, "forms": [{"coeffs": ["\xff"]}]}')
    with pytest.raises(InstanceError, match=r"forms\[1\]\.coeffs"):
        parse_instance(
            '{"k":3,"forms":[{"coeffs":["1","0","0"],"mult":1},{"coeffs":["1","0"],"mult":1}]}'
        )
    with pytest.raises(InstanceError, match="every form is zero"):
        parse_instance('{"k":2,"forms":[{"coeffs":["0","0"],"mult":2}]}')
    with pytest.raises(InstanceError, match="not prime"):
        parse_instance('{"field":"gf(6)","k":1,"forms":[{"coeffs":["1"],"mult":1}]}')
    with pytest.raises(InstanceError, match=r"forms\[0\]\.mult"):
        parse_instance('{"k":1,"forms":[{"coeffs":["1"],"mult":0}]}')
    with pytest.raises(InstanceError, match=r"coeffs\[0\]"):
        parse_instance('{"k":1,"forms":[{"coeffs":["x"],"mult":1}]}')
    # 10^(10^6) parses, but the report's echo of it could not be printed
    with pytest.raises(InstanceError, match=r"forms\[0\]\.coeffs\[0\]: '1e1000000' would need more than 4300"):
        parse_instance('{"k":1,"forms":[{"coeffs":["1e1000000"]}]}')
    # a JSON integer past the 4300-digit limit stops the decoder itself
    huge = "9" * 5001
    for text in ('{"k":1,"forms":[{"coeffs":[%s]}]}' % huge,
                 '{"k":1,"forms":[{"coeffs":["1"],"mult":%s}]}' % huge,
                 '{"k":%s,"forms":[{"coeffs":["1"]}]}' % huge):
        with pytest.raises(InstanceError, match="malformed JSON: Exceeds the limit"):
            parse_instance(text)


def test_each_side_of_a_fraction_is_held_to_the_digit_limit():
    text = "1" * 3000 + "/" + "3" * 3000
    assert parse_instance('{"k":1,"forms":[{"coeffs":["%s"]}]}' % text).forms == [((Fraction(1, 3),), 1)]
    for text in ("1" * 4301 + "/1", "1/" + "1" * 4301):
        with pytest.raises(InstanceError, match="would need more than 4300 digits"):
            parse_instance('{"k":1,"forms":[{"coeffs":["%s"]}]}' % text)


def test_run_betti_single_fold():
    report = run("betti", parse_example(), folds=[6])
    entry = report.data["results"][0]
    assert entry["a"] == 6
    assert entry["methods"]["auto"] == {"a": 6, "k": 3, "b": [6, 5, 0]}
    assert report.ok


def test_run_betti_all_folds_b1_column():
    report = run("betti", parse_example())
    b1s = [entry["methods"]["auto"]["b"][0] for entry in report.data["results"]]
    assert b1s == [3, 6, 10, 14, 14, 6, 1]


def test_run_verify_agrees_everywhere():
    report = run("verify", parse_example())
    assert report.ok
    for entry in report.data["results"]:
        assert entry["verdict"] == "agree"
        assert all(r == 0 for r in entry["herzog_kuhl"])
    assert report.data["hamming"] == [3, 5, 7]
    sixth = report.data["results"][5]
    assert sixth["methods"]["recursion"]["b"] == [6, 5, 0]
    assert sixth["methods"]["oracle"]["b"] == [6, 5, 0]
    assert sixth["methods"]["circuit_b1"] == 6
    last = report.data["results"][6]
    assert "skipped" in last["methods"]["circuit_b1"]


def test_run_tutte_shifted_terms():
    report = run("tutte", parse_example())
    terms = {(t["x"], t["y"]): t["c"] for t in report.data["tutte_shifted"]["terms"]}
    assert terms[(0, 0)] == "8"
    assert terms[(1, 0)] == "13"
    assert terms[(0, 4)] == "1"
    assert len(terms) == 11


def test_run_hamming_and_height():
    assert run("hamming", parse_example()).data["hamming"] == [3, 5, 7]
    heights = run("height", parse_example()).data["heights"]
    assert heights["4"] == 2
    assert heights["6"] == 1


def test_run_hilbert_report():
    report = run("hilbert", parse_example(), folds=[3], degrees=range(3, 5))
    assert report.data["hilbert"]["hf"] == {"3": 10, "4": 15}
    with pytest.raises(CommandError):
        run("hilbert", parse_example())


def test_run_rejects_oversize_fold():
    with pytest.raises(CommandError, match="allow-trivial"):
        run("betti", parse_example(), folds=[9])
    report = run("betti", parse_example(), folds=[9], allow_trivial=True)
    assert report.data["results"][0]["methods"]["auto"]["b"] == [0, 0, 0]


def test_gf_p_instance_runs_with_warning():
    doc = {
        "field": "gf(7)",
        "k": 2,
        "forms": [{"coeffs": ["1", "0"], "mult": 2}, {"coeffs": ["0", "1"], "mult": 1}],
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.p == 7
    report = run("betti", inst, folds=[2])
    assert report.data["warnings"]
    assert report.data["results"][0]["methods"]["auto"]["b"] == [2, 1]


def test_gf_p_matches_rational_on_generic_instance():
    rational = parse_instance(
        '{"k":2,"forms":[{"coeffs":["1","0"],"mult":2},{"coeffs":["0","1"],"mult":2},{"coeffs":["1","1"],"mult":1}]}'
    )
    modular = parse_instance(
        '{"field":"gf(101)","k":2,"forms":[{"coeffs":["1","0"],"mult":2},{"coeffs":["0","1"],"mult":2},{"coeffs":["1","1"],"mult":1}]}'
    )
    for a in range(1, 6):
        left = run("betti", rational, folds=[a]).data["results"][0]["methods"]["auto"]
        right = run("betti", modular, folds=[a]).data["results"][0]["methods"]["auto"]
        assert left == right


def write_instance(tmp_path, doc=None):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc or EXAMPLE_2_5))
    return str(path)


def test_main_verify_exit_code(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert main(["verify", "--input", path, "--all-folds"]) == 0
    out = capsys.readouterr().out
    assert "agree" in out


def test_main_json_is_byte_stable(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert main(["verify", "--input", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--input", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert [e["a"] for e in doc["results"]] == list(range(1, 8))


def test_main_bad_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["betti", "--input", str(path), "--fold", "1"]) == 1
    assert "malformed" in capsys.readouterr().err


def test_main_deeply_nested_input_is_malformed_not_too_deep(tmp_path, capsys):
    # the JSON decoder recurses per nesting level; that is bad input (exit 1),
    # not a computation past the recursion limit (exit 3)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["betti", "--input", str(path), "--fold", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("foldbetti: malformed JSON")


def test_main_missing_file(capsys):
    assert main(["betti", "--input", "/nonexistent.json", "--fold", "1"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_main_fold_beyond_n(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert main(["betti", "--input", path, "--fold", "9"]) == 1
    capsys.readouterr()
    assert main(["betti", "--input", path, "--fold", "9", "--allow-trivial"]) == 0


def test_fold_and_all_folds_are_exclusive(tmp_path, capsys):
    path = write_instance(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--input", path, "--fold", "3", "--all-folds"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("command", ["height", "hilbert"])
def test_allow_trivial_is_named_only_where_it_applies(tmp_path, capsys, command):
    # height and hilbert never take a fold a > n, so no hint names the flag
    path = write_instance(tmp_path)
    assert main([command, "--input", path, "--fold", "9"]) == 1
    err = capsys.readouterr().err
    assert "fold 9 exceeds n = 7" in err
    assert "--allow-trivial" not in err
    # and the flag itself, which they would ignore, is refused
    assert main([command, "--input", path, "--fold", "9", "--allow-trivial"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "foldbetti: %s does not take --allow-trivial\n" % command


def test_all_folds_weight_each_collection_once(tmp_path, capsys, monkeypatch):
    # the Hamming weights are memoized per collection, multiplicities included,
    # so each essentialized collection the recursion meets is weighted once
    from foldbetti import matroid

    weighted = []
    layers = matroid._multiplicity_layers

    def counted(sigma, forms):
        weighted.append(sigma)
        return layers(sigma, forms)

    clear_memos()
    monkeypatch.setattr(matroid, "_multiplicity_layers", counted)
    path = write_instance(tmp_path, MULTIPLICITY_HEAVY)
    assert main(["betti", "--input", path, "--all-folds", "--method", "recursion", "--json"]) == 0
    capsys.readouterr()
    assert len(weighted) > 27
    assert len(weighted) == len(set(weighted))


def test_main_text_output(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert main(["betti", "--input", path, "--fold", "4", "--method", "oracle"]) == 0
    out = capsys.readouterr().out
    assert "[14, 22, 9]" in out


def test_main_tutte_text(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert main(["tutte", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "T(x+1, y)" in out


def test_main_hilbert_degrees(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert main(["hilbert", "--input", path, "--fold", "3", "--degrees", "3..5"]) == 0
    out = capsys.readouterr().out
    assert "HF(I_3, 5)" in out


def test_main_hilbert_empty_degree_range(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert main(["hilbert", "--input", path, "--fold", "2", "--degrees", "5..3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degree range is empty" in captured.err


@pytest.mark.parametrize("text", ["3..", "3..5..7", "x"])
def test_malformed_degrees_name_the_option(tmp_path, capsys, text):
    path = write_instance(tmp_path)
    assert main(["hilbert", "--input", path, "--fold", "2", "--degrees", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "foldbetti: --degrees must be D or D1..D2 with integer D, got %r\n" % text
    )


@pytest.mark.parametrize(
    "command, option",
    [
        ("tutte", ["--fold", "99"]),
        ("tutte", ["--all-folds"]),
        ("hamming", ["--fold", "2"]),
        ("hamming", ["--all-folds"]),
        ("betti", ["--degrees", "3..4"]),
        ("verify", ["--degrees", "3"]),
        ("height", ["--degrees", "3..4"]),
        ("tutte", ["--degrees", "3"]),
        ("verify", ["--method", "oracle"]),
        ("tutte", ["--method", "recursion"]),
        ("hamming", ["--method", "auto"]),
        ("height", ["--method", "tutte_hk"]),
        ("hilbert", ["--method", "oracle"]),
        ("tutte", ["--allow-trivial"]),
        ("hamming", ["--allow-trivial"]),
    ],
    ids=["tutte-fold", "tutte-all-folds", "hamming-fold", "hamming-all-folds",
         "betti-degrees", "verify-degrees", "height-degrees", "tutte-degrees",
         "verify-method", "tutte-method", "hamming-method", "height-method",
         "hilbert-method", "tutte-allow-trivial", "hamming-allow-trivial"],
)
def test_ignored_options_are_refused(tmp_path, capsys, command, option):
    path = write_instance(tmp_path)
    assert main([command, "--input", path] + option) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "foldbetti: %s does not take %s\n" % (command, option[0])


def test_parser_choices():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["explode", "--input", "x.json"])


def test_rational_wire_format_round_trips():
    doc = {
        "field": "rational",
        "k": 2,
        "forms": [{"coeffs": ["-1/2", "3"], "mult": 1}, {"coeffs": ["2/4", "0"], "mult": 1},
                  {"coeffs": ["0.5", "1e3"], "mult": 1}],
    }
    inst = parse_instance(json.dumps(doc))
    echoed = inst.to_json_dict()
    # sign on the numerator, reduced, bare integer when the denominator is 1
    assert echoed["forms"][0]["coeffs"] == ["-1/2", "3"]
    assert echoed["forms"][1]["coeffs"] == ["1/2", "0"]
    assert echoed["forms"][2]["coeffs"] == ["1/2", "1000"]
    assert parse_instance(json.dumps(echoed)) == inst


def test_verify_with_oracle_guardrail_gives_partial_report(monkeypatch):
    monkeypatch.setattr(oracle, "CELL_LIMIT", 5)
    report = run("verify", parse_example(), folds=[4])
    entry = report.data["results"][0]
    assert "skipped" in entry["methods"]["oracle"]
    assert "cells" in entry["methods"]["oracle"]["skipped"]
    assert entry["methods"]["recursion"]["b"] == [14, 22, 9]
    assert entry["verdict"] == "agree"
    assert report.ok


def test_main_recursion_error_is_one_line(tmp_path, capsys, monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "run", too_deep)
    assert main(["betti", "--input", write_instance(tmp_path), "--fold", "1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("foldbetti: ") and "recursion limit" in err


def test_main_deep_pencil_exits_3_without_traceback(tmp_path, capsys):
    # x_1, ..., x_r and x_1 + ... + x_r in r = 170 variables: each contraction
    # is the same shape in one fewer variable, so the Tutte recursion nests
    # 170 calls deep, past the lowered limit
    r = 170
    forms = [["1" if j == i else "0" for j in range(r)] for i in range(r)] + [["1"] * r]
    doc = {"k": r, "forms": [{"coeffs": coeffs, "mult": 1} for coeffs in forms]}
    path = write_instance(tmp_path, doc)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        code = main(["tutte", "--input", path])
    finally:
        sys.setrecursionlimit(old)
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("foldbetti: ") and captured.err.count("\n") == 1


def test_main_tutte_of_a_1200_line_pencil_exits_0(tmp_path, capsys):
    # the deletions of a pencil are a loop and its contractions are rank 1,
    # so the recursion nests two calls deep under the default limit
    doc = {"k": 2, "forms": [{"coeffs": ["1", str(i)], "mult": 1} for i in range(1200)]}
    assert main(["tutte", "--input", write_instance(tmp_path, doc), "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)["tutte"]["terms"]
    assert len(terms) == 1200
    assert sum(int(term["c"]) for term in terms) == 1200 * 1199 // 2  # T(1, 1): two lines make a basis


def run_child(args, timeout=5, preexec_fn=None):
    """Run the CLI (or Python code, for ``-c``) in a fresh interpreter."""
    src = str(Path(foldbetti.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    head = [sys.executable] if args[0] == "-c" else [sys.executable, "-m", "foldbetti.cli"]
    return subprocess.run(head + args, env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=preexec_fn)


@pytest.mark.parametrize(
    "forms, degrees, message",
    [
        ([["1", "0"], ["0", "1"], ["1", "1"]], "1..100000000000", "degree 1 is below the fold 2"),
        # degree 1291 is the first whose plain matrix, 3 * 1290 rows by 1292
        # columns, passes the default limit of five million cells
        ([["1", "0"], ["0", "1"], ["1", "1"]], "3..100000000000",
         "Hilbert matrix would have 3870 x 1292 cells; limit is 5000000"),
        # x1 doubled: 4 distinct products (x1^2, x1x2, x1(x1+x2), x2(x1+x2)),
        # not C(4, 2) = 6, so degree 1119 is the first over, 4 * 1118 rows by 1120
        ([["1", "0"], ["1", "0"], ["0", "1"], ["1", "1"]], "3..100000000000",
         "Hilbert matrix would have 4472 x 1120 cells; limit is 5000000"),
    ],
    ids=["below-fold", "over-limit", "over-limit-distinct-products"],
)
def test_huge_hilbert_degree_range_is_refused_at_once(tmp_path, forms, degrees, message):
    doc = {"k": 2, "forms": [{"coeffs": c, "mult": 1} for c in forms]}
    child = run_child(["hilbert", "--input", write_instance(tmp_path, doc), "--fold", "2",
                       "--degrees", degrees])
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr == "foldbetti: %s\n" % message


@pytest.mark.parametrize("degrees, top", [("1..100000000", 5000001), ("100000000", 100000000)])
def test_one_variable_degree_range_is_refused_at_once(tmp_path, degrees, top):
    # every degree of k = 1 has one column, so only the count of the climb's
    # values can refuse; reading 10^8 degrees, or filling one value for each,
    # once ran without end
    doc = {"k": 1, "forms": [{"coeffs": ["1"], "mult": 2}]}
    child = run_child(["hilbert", "--input", write_instance(tmp_path, doc), "--fold", "1",
                       "--degrees", degrees])
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr == (
        "foldbetti: Hilbert climb from degree 1 to %d would hold %d values; limit is 5000000\n" % (top, top)
    )


def test_coefficient_exponent_past_the_digit_limit_is_refused_at_once(tmp_path):
    # Fraction("1e100000000") alone would build 10^(10^8) for minutes
    doc = {"k": 2, "forms": [{"coeffs": ["1e100000000", "1"]}, {"coeffs": ["0", "1"]}]}
    child = run_child(["betti", "--input", write_instance(tmp_path, doc), "--fold", "1"], timeout=5)
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr.startswith("foldbetti: forms[0].coeffs[0]: ")
    assert child.stderr.count("\n") == 1


def test_hamming_weights_of_a_huge_multiplicity_are_quick(tmp_path):
    # one layer per distinct multiplicity, not one per unit of the largest
    doc = {"k": 3, "forms": [{"coeffs": ["1", "0", "0"], "mult": 3 * 10**6}]
           + [{"coeffs": c, "mult": 1} for c in (["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"])]}
    child = run_child(["hamming", "--input", write_instance(tmp_path, doc), "--json"])
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["hamming"] == [2, 3, 3000003]


def test_verify_fold_1_of_24_generic_forms_is_quick(tmp_path):
    # fold 1 has one support of 24 columns, echelonized once; a circuit
    # enumeration once put every subset of up to 24 columns through a rank test
    doc = {"k": 3, "forms": [{"coeffs": ["1", str(t), str(t * t)]} for t in range(1, 25)]}
    child = run_child(["verify", "--input", write_instance(tmp_path, doc), "--fold", "1", "--json"],
                      timeout=30)
    assert child.returncode == 0, child.stderr
    (fold,) = json.loads(child.stdout)["results"]
    assert fold["verdict"] == "agree" and fold["methods"]["circuit_b1"] == 3


def test_main_out_of_memory_exits_3_without_traceback(tmp_path):
    resource = pytest.importorskip("resource")
    # listing 10^10 folds needs far more than the 400 MB address space the child gets
    doc = {"k": 2, "forms": [{"coeffs": ["1", "0"], "mult": 10**10},
                             {"coeffs": ["0", "1"], "mult": 1}]}
    limit = 400 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    child = run_child(["betti", "--input", write_instance(tmp_path, doc), "--all-folds"],
                      preexec_fn=cap_address_space)
    assert child.returncode == 3
    assert child.stdout == ""
    assert child.stderr == "foldbetti: the computation ran out of memory\n"


@pytest.mark.parametrize("command", ["betti", "verify", "height"])
def test_all_folds_past_the_list_limit_are_refused_in_one_line(tmp_path, capsys, command):
    # 2^70 folds cannot be listed at all; the refusal names n and the way out
    doc = {"k": 2, "forms": [{"coeffs": ["1", "0"], "mult": 2**70},
                             {"coeffs": ["0", "1"], "mult": 1}]}
    assert main([command, "--input", write_instance(tmp_path, doc), "--all-folds"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "foldbetti: n = %d folds are too many to run them all; pass --fold A\n" % (2**70 + 1)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # both cost start-up time on every call; compare against what was loaded before
    code = (
        "import sys; before = set(sys.modules); import foldbetti.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    child = run_child(["-c", code])
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "p, code, message",
    [
        (2**61 - 1, 0, None),
        # 1000000007 * 1000000009: trial division would run for minutes
        (1000000016000000063, 1, "field: 1000000016000000063 is not prime"),
        # a strong pseudoprime to each of the first 12 prime bases
        (318665857834031151167461, 1, "field: 318665857834031151167461 is not prime"),
        # the least strong pseudoprime to the first 13 prime bases
        (3317044064679887385961981, 1, "field: gf(p) needs p < 3317044064679887385961981"),
    ],
    ids=["mersenne61", "semiprime", "psi12", "limit"],
)
def test_large_prime_fields_answer_at_once(tmp_path, p, code, message):
    doc = {"field": "gf(%d)" % p, "k": 2,
           "forms": [{"coeffs": c, "mult": 1} for c in (["1", "0"], ["0", "1"], ["1", "1"])]}
    child = run_child(["hamming", "--input", write_instance(tmp_path, doc), "--json"])
    assert child.returncode == code, child.stderr
    if message is None:
        assert json.loads(child.stdout)["hamming"] == [2, 3]
    else:
        assert child.stderr.startswith("foldbetti: %s" % message)
        assert child.stderr.count("\n") == 1


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-2, 20000) if cli._is_prime(n)] == [n for n in range(-2, 20000) if trial(n)]
    # Carmichael numbers and strong pseudoprimes to small base sets
    for n in (561, 41041, 2047, 1373653, 25326001, 3215031751, 3825123056546413051):
        assert not cli._is_prime(n)
