import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import excheck
from excheck import MatroidSpec, SetFamily, SetFunction, gen_rank_valuation, gen_weighted_matroid
from excheck.cli import main
from excheck.fileio import save_set_family, save_set_function


@pytest.fixture()
def files(tmp_path, rank2, wmat, comp):
    paths = {}
    for name, f in (("rank2", rank2), ("wmat", wmat), ("comp", comp)):
        p = tmp_path / f"{name}.json"
        save_set_function(f, p)
        paths[name] = str(p)
    fam = tmp_path / "family.json"
    save_set_family(SetFamily(2, frozenset({0, 0b11})), fam)
    paths["family"] = str(fam)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pass(files, capsys):
    code, out, _ = run(capsys, "check", files["rank2"], "--property", "mnat-exc", "--no-timing")
    assert code == 0 and "pass" in out


def test_check_local_failure_witness(files, capsys):
    code, out, _ = run(
        capsys, "check", files["comp"], "--property", "local", "--format", "json", "--no-timing"
    )
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "fail"
    w = report["witness"]
    assert w["condition"] == "local:i" and w["X"] == [] and w["i"] == 1 and w["j"] == 2


def test_check_human_names_family(files, capsys):
    code, out, _ = run(capsys, "check", files["comp"], "--property", "local", "--no-timing")
    assert code == 2 and "family (i)" in out


def test_check_empty_domain_is_input_error(tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"kind": "set_function", "n": 2, "entries": []}))
    code, _, err = run(capsys, "check", str(bad), "--property", "mnat-exc")
    assert code == 1 and "error" in err


def test_check_kind_mismatch(files, capsys):
    code, _, err = run(capsys, "check", files["family"], "--property", "mnat-exc")
    assert code == 1
    code, _, err = run(capsys, "check", files["rank2"], "--property", "bnat-exc")
    assert code == 1


def test_check_family_generalized_matroid_note(files, tmp_path, capsys, k4):
    p = tmp_path / "k4fam.json"
    save_set_family(k4.bases(), p)
    code, out, _ = run(capsys, "check", str(p), "--property", "bnat-exc", "--no-timing")
    assert code == 0 and "generalized matroid" in out

    code, out, _ = run(capsys, "check", files["family"], "--property", "bnat-exc", "--no-timing")
    assert code == 2


def test_exchange_found(files, capsys):
    code, out, _ = run(
        capsys, "exchange", files["rank2"], "--x", "1,2", "--y", "3", "--i", "1,2",
        "--format", "json", "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    assert report["J"] == [3] and report["lhs"] == 3 and report["rhs"] == 3

    code, out, _ = run(
        capsys, "exchange", files["wmat"], "--x", "1,2", "--y", "2,3", "--i", "1",
        "--format", "json", "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    assert report["J"] == [3] and report["size_I"] == report["size_J"] == 1


def test_exchange_not_found(files, capsys):
    code, out, _ = run(
        capsys, "exchange", files["comp"], "--x", "1,2", "--y", "", "--i", "1",
        "--format", "json", "--no-timing",
    )
    assert code == 2
    report = json.loads(out)
    assert report["found"] is False and report["lhs"] == 3 and report["best_rhs"] == 2


def test_exchange_precondition_error(files, capsys):
    code, _, err = run(capsys, "exchange", files["wmat"], "--x", "1", "--y", "2,3")
    assert code == 1 and "effective domain" in err


def test_witness_round_trip(files, capsys):
    # feed the failing check witness back through the exchange command
    code, out, _ = run(
        capsys, "check", files["comp"], "--property", "mnat-exc-m",
        "--format", "json", "--no-timing",
    )
    assert code == 2
    w = json.loads(out)["witness"]
    code, out, _ = run(
        capsys, "exchange", files["comp"],
        "--x", ",".join(map(str, w["X"])),
        "--y", ",".join(map(str, w["Y"])),
        "--i", ",".join(map(str, w["I"])),
        "--format", "json", "--no-timing",
    )
    assert code == 2
    replay = json.loads(out)
    assert replay["lhs"] == w["lhs"] and replay["best_rhs"] == w["rhs"]


def test_duality_report(files, capsys):
    code, out, _ = run(
        capsys, "duality", files["rank2"], "--x", "1,2", "--y", "3", "--i", "1",
        "--format", "json", "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    assert report["primal"] == 3 and report["dual"] == 3 and report["gap"] == 0
    assert report["q_star"] == {"3": 1}


def test_duality_gap_exit_code(tmp_path, capsys):
    f = SetFunction.from_entries(
        4,
        [
            (0b0011, -10), (0b1100, 0), (0, 0), (0b0100, -10), (0b1000, -10),
            (0b0111, 0), (0b1011, 0), (0b1111, -10),
        ],
    )
    p = tmp_path / "gapped.json"
    save_set_function(f, p)
    code, out, _ = run(
        capsys, "duality", str(p), "--x", "1,2", "--y", "3,4", "--i", "1,2",
        "--format", "json", "--no-timing",
    )
    assert code == 2
    report = json.loads(out)
    assert report["gap"] == 10 and report["q_star"] is None
    assert "box_radius" in report


def test_duality_oversized_slab_exits_1(tmp_path, capsys, monkeypatch):
    # |Y\X| = 10 is within the CLI cap and 9^10 points within the box cap,
    # but one slab holds 9^9 entries: refused before any slab buffer exists
    from excheck import duality

    def no_buffers(*args):
        raise AssertionError("a slab buffer was allocated")

    monkeypatch.setattr(duality, "_SlabConjugate", no_buffers)
    p = tmp_path / "rank5.json"
    save_set_function(SetFunction.from_callable(10, lambda m: min(m.bit_count(), 5)), p)
    code, out, err = run(
        capsys, "duality", str(p), "--x", "", "--y", "1,2,3,4,5,6,7,8,9,10",
        "--box-radius", "4", "--no-timing",
    )
    assert code == 1 and out == ""
    assert err == "error: dual box slab has 9^9 entries, more than 200000000; " \
        "shrink box_radius or the instance\n"


def test_duality_long_box_of_one_coordinate_exits_1(files, capsys, monkeypatch):
    # |Y\X| = 1 at radius 10^9 passes the point cap with 2 * 10^9 + 1
    # one-entry slabs; refused before any slab is swept
    from excheck import duality

    def no_sweep(*args):
        raise AssertionError("a slab was swept")

    monkeypatch.setattr(duality._SlabConjugate, "slab", no_sweep)
    start = perf_counter()
    code, out, err = run(
        capsys, "duality", files["rank2"], "--x", "1", "--y", "2",
        "--box-radius", "1000000000", "--no-timing",
    )
    assert perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == "error: dual box has 2000000001 slabs of coordinate 0, about 2002000001001 " \
        "point evaluations at 1000 per slab, more than 10000000000; " \
        "shrink box_radius or the instance\n"


def test_demand_output(files, capsys):
    code, out, _ = run(
        capsys, "demand", files["comp"], "--price", "3/2,3/2", "--format", "json", "--no-timing"
    )
    assert code == 0
    report = json.loads(out)
    assert report["members"] == [[], [1, 2]]
    assert report["price"] == ["3/2", "3/2"]


def test_demand_rejects_decimals(files, capsys):
    code, _, err = run(capsys, "demand", files["comp"], "--price", "1.5,1.5")
    assert code == 1 and "rational" in err


def test_equivalence_pass_and_fail(files, capsys):
    code, out, _ = run(
        capsys, "equivalence", files["rank2"], "--count", "30",
        "--format", "json", "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert set(report["exact"]) == {"mnat-exc", "mnat-exc-m", "local"}
    assert set(report["sampled"]) == {"gs", "si", "nc", "ncsim"}

    code, out, _ = run(
        capsys, "equivalence", files["comp"], "--count", "100",
        "--format", "json", "--no-timing",
    )
    assert code == 2
    report = json.loads(out)
    assert all(v["status"] == "fail" for v in report["exact"].values())


def test_equivalence_refuses_a_negative_seed(files, capsys):
    code, out, err = run(capsys, "equivalence", files["rank2"], "--seed", "-1")
    assert code == 1 and out == "" and err == "error: seed must be nonnegative\n"


@pytest.mark.parametrize("argv", [("--kind", "free", "--n", "21", "--family"),
                                  ("--kind", "uniform", "--k", "1", "--n", "21")])
def test_gen_refuses_n_past_20_before_enumerating(capsys, monkeypatch, argv):
    # bases() would enumerate up to 2^n members before SetFamily refused n
    def enumerate_nothing(self):
        raise AssertionError("bases() ran before n was checked")

    monkeypatch.setattr(MatroidSpec, "bases", enumerate_nothing)
    code, out, err = run(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert err == "error: ground-set size must be in 0..20, got 21\n"


def test_gen_uniform_writes_wmat(files, tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    code, _, _ = run(
        capsys, "gen", "--kind", "uniform", "--k", "2", "--n", "3",
        "--weights", "0,1,2", "-o", str(out_path), "--no-timing",
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(
        (files["dir"] / "wmat.json").read_text()
    )


def test_gen_family_and_rank(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--kind", "uniform", "--k", "2", "--n", "3", "--family")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "set_family" and obj["members"] == [[1, 2], [1, 3], [2, 3]]

    code, out, _ = run(capsys, "gen", "--kind", "graphic", "--edges", "1-2,2-3,1-3", "--rank")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "set_function" and obj["n"] == 3


@pytest.mark.parametrize("flag", ["--weights", "--rank", "--family"])
def test_gen_writes_the_bytes_of_the_library_savers(tmp_path, capsys, flag):
    weights = "0,1/2,-3,7,5/3,2"
    argv = ["gen", "--kind", "uniform", "--k", "3", "--n", "6"]
    argv += ["--weights", weights] if flag == "--weights" else [flag]
    spec = MatroidSpec.uniform(3, 6, [Fraction(w) for w in weights.split(",")])
    if flag == "--family":
        save_set_family(spec.bases(), tmp_path / "lib.json")
    else:
        gen = gen_weighted_matroid if flag == "--weights" else gen_rank_valuation
        save_set_function(gen(spec), tmp_path / "lib.json")
    want = (tmp_path / "lib.json").read_bytes()
    code, _, _ = run(capsys, *argv, "--output", str(tmp_path / "gen.json"), "--no-timing")
    assert code == 0 and (tmp_path / "gen.json").read_bytes() == want
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.encode() == want


def test_gen_modular_concave(capsys):
    code, out, _ = run(
        capsys, "gen", "--kind", "modular-concave", "--w", "0,0,0", "--g", "0,1,2,2"
    )
    assert code == 0
    obj = json.loads(out)
    values = {tuple(e["set"]): e["value"] for e in obj["entries"]}
    assert values[(1, 2, 3)] == 2


def test_gen_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--kind", "uniform", "--n", "3")
    assert code == 1


def test_json_reports_are_byte_identical(files, capsys):
    args = (
        "check", files["comp"], "--property", "local", "--format", "json", "--no-timing"
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_size_cap_and_force(tmp_path, capsys):
    fam = SetFamily(15, frozenset({0b1, 0b10}))
    p = tmp_path / "wide.json"
    save_set_family(fam, p)
    code, _, err = run(capsys, "check", str(p), "--property", "bnat-exc")
    assert code == 1 and "--force" in err
    code, _, _ = run(capsys, "check", str(p), "--property", "bnat-exc", "--no-timing", "--force")
    assert code == 0


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing file and property
    assert exc.value.code == 1


def test_parser_reuse_keeps_output(files, capsys):
    from excheck.cli import build_parser

    calls = [
        ("check", files["comp"], "--property", "local", "--format", "json", "--no-timing"),
        (
            "duality", files["rank2"], "--x", "1,2", "--y", "3", "--i", "1",
            "--box-radius", "2", "--format", "json", "--no-timing",
        ),
        ("demand", files["rank2"], "--price", "1/2,1,0", "--no-timing"),
        (
            "exchange", files["rank2"], "--x", "1,2", "--y", "3", "--i", "1,2",
            "--format", "json", "--no-timing",
        ),
        ("duality", files["rank2"], "--x", "1,2", "--y", "3", "--i", "1", "--no-timing"),
        ("check", files["rank2"], "--property", "mnat-exc", "--no-timing"),
    ]
    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(run(capsys, *argv))
    assert build_parser() is build_parser()
    for argv, expected in zip(calls, first):
        with pytest.raises(SystemExit) as exc:
            main(["duality", files["rank2"], "--x"])  # --x without a value
        assert exc.value.code == 1
        capsys.readouterr()
        assert run(capsys, *argv) == expected


def test_timing_present_by_default(files, capsys):
    code, out, _ = run(capsys, "check", files["rank2"], "--property", "mnat-exc",
                       "--format", "json")
    assert code == 0 and "elapsed_ms" in json.loads(out)


# the exact --no-timing stdout of every verb in both formats, per input file
# named relative to the fixture directory
_PINNED = [
    pytest.param(
        ("check", "rank2.json", "--property", "mnat-exc"), 0,
        (
            '{"command": "check", "input": "rank2.json", "n": 3, "property": '
            '"mnat-exc", "verdict": "pass", "witness": null}\n'
        ),
        'mnat-exc on rank2.json (n=3): pass\n',
        id="check-pass",
    ),
    pytest.param(
        ("check", "comp.json", "--property", "local"), 2,
        (
            '{"command": "check", "input": "comp.json", "n": 2, "property": "local", '
            '"verdict": "fail", "witness": {"X": [], "condition": "local:i", "i": 1, '
            '"j": 2, "lhs": 3, "rhs": 2}}\n'
        ),
        (
            'local on comp.json (n=2): fail\n'
            '  witness: family (i) X={} i=1 j=2 lhs=3 rhs=2\n'
        ),
        id="check-local-witness",
    ),
    pytest.param(
        ("check", "k4fam.json", "--property", "bnat-exc"), 0,
        (
            '{"command": "check", "input": "k4fam.json", "n": 6, "note": "the family '
            'is a generalized matroid", "property": "bnat-exc", "verdict": "pass", '
            '"witness": null}\n'
        ),
        (
            'bnat-exc on k4fam.json (n=6): pass\n'
            '  note: the family is a generalized matroid\n'
        ),
        id="check-generalized-matroid",
    ),
    pytest.param(
        ("exchange", "rank2.json", "--x", "1,2", "--y", "3", "--i", "1,2"), 0,
        (
            '{"J": [3], "command": "exchange", "found": true, "input": "rank2.json", '
            '"lhs": 3, "rhs": 3, "size_I": 2, "size_J": 1}\n'
        ),
        (
            'J={3}  lhs=3 <= rhs=3\n'
            '|I|=2 |J|=1\n'
        ),
        id="exchange-found",
    ),
    pytest.param(
        ("exchange", "comp.json", "--x", "1,2", "--y", "", "--i", "1"), 2,
        (
            '{"best_rhs": 2, "command": "exchange", "found": false, "input": '
            '"comp.json", "lhs": 3}\n'
        ),
        'no exchange set: lhs=3 > best rhs=2\n',
        id="exchange-not-found",
    ),
    pytest.param(
        ("duality", "rank2.json", "--x", "1,2", "--y", "3", "--i", "1"), 0,
        (
            '{"box_radius": 5, "command": "duality", "dual": 3, "gap": 0, "input": '
            '"rank2.json", "primal": 3, "q_star": {"3": 1}, "scale": 1, "y0": [3]}\n'
        ),
        (
            'primal=3 dual=3 gap=0\n'
            'box radius 5 (scale 1) over Y\\X=[3]\n'
            'q*: q3=1\n'
        ),
        id="duality-closed",
    ),
    pytest.param(
        ("duality", "gapped.json", "--x", "1,2", "--y", "3,4", "--i", "1,2"), 2,
        (
            '{"box_radius": 21, "command": "duality", "dual": 0, "gap": 10, "input": '
            '"gapped.json", "note": "no certificate in the box [-21, 21]^2; best q = '
            '(0,0)", "primal": -10, "q_star": null, "scale": 1, "y0": [3, 4]}\n'
        ),
        (
            'primal=-10 dual=0 gap=10\n'
            'box radius 21 (scale 1) over Y\\X=[3, 4]\n'
            'note: no certificate in the box [-21, 21]^2; best q = (0,0)\n'
        ),
        id="duality-gap",
    ),
    pytest.param(
        ("demand", "comp.json", "--price", "3/2,3/2"), 0,
        (
            '{"command": "demand", "input": "comp.json", "members": [[], [1, 2]], '
            '"price": ["3/2", "3/2"], "value": 0}\n'
        ),
        (
            'demand at (3/2,3/2): {} {1,2}\n'
            'attained value: 0\n'
        ),
        id="demand",
    ),
    pytest.param(
        ("equivalence", "rank2.json", "--count", "30"), 0,
        (
            '{"command": "equivalence", "exact": {"local": {"status": "pass", '
            '"witness": null}, "mnat-exc": {"status": "pass", "witness": null}, '
            '"mnat-exc-m": {"status": "pass", "witness": null}}, "input": '
            '"rank2.json", "sampled": {"gs": {"samples": 4023, "status": "pass", '
            '"witness": null}, "nc": {"samples": 1361, "status": "pass", "witness": '
            'null}, "ncsim": {"samples": 1361, "status": "pass", "witness": null}, '
            '"si": {"samples": 1361, "status": "pass", "witness": null}}, "verdict": '
            '"pass"}\n'
        ),
        (
            'equivalence on rank2.json: pass\n'
            '  mnat-exc     pass (exact)\n'
            '  mnat-exc-m   pass (exact)\n'
            '  local        pass (exact)\n'
            '  gs           pass (4023 samples)\n'
            '  si           pass (1361 samples)\n'
            '  nc           pass (1361 samples)\n'
            '  ncsim        pass (1361 samples)\n'
        ),
        id="equivalence-pass",
    ),
    pytest.param(
        ("equivalence", "comp.json", "--count", "100"), 2,
        (
            '{"command": "equivalence", "exact": {"local": {"status": "fail", '
            '"witness": {"X": [], "condition": "local:i", "i": 1, "j": 2, "lhs": 3, '
            '"rhs": 2}}, "mnat-exc": {"status": "fail", "witness": {"X": [1, 2], '
            '"Y": [], "condition": "mnat-exc", "i": 1, "lhs": 3, "rhs": 2}}, '
            '"mnat-exc-m": {"status": "fail", "witness": {"I": [1], "X": [1, 2], '
            '"Y": [], "condition": "mnat-exc-m", "lhs": 3, "rhs": 2}}}, "input": '
            '"comp.json", "sampled": {"gs": {"samples": 550, "status": "fail", '
            '"witness": {"X": [1, 2], "condition": "gs", "p": [1, 2], "q": [2, 2], '
            '"sample": 258}}, "nc": {"samples": 325, "status": "fail", "witness": '
            '{"I": [1], "X": [1, 2], "Y": [], "condition": "nc", "p": [1, 2], '
            '"sample": 129}}, "ncsim": {"samples": 325, "status": "fail", "witness": '
            '{"I": [1], "X": [1, 2], "Y": [], "condition": "ncsim", "p": [1, 2], '
            '"sample": 129}}, "si": {"samples": 325, "status": "fail", "witness": '
            '{"X": [], "condition": "si", "lhs": 0, "p": [1, 1], "rhs": 1, "sample": '
            '128}}}, "verdict": "fail"}\n'
        ),
        (
            'equivalence on comp.json: fail\n'
            '  mnat-exc     fail (exact)\n'
            '  mnat-exc-m   fail (exact)\n'
            '  local        fail (exact)\n'
            '  gs           refuted (550 samples)\n'
            '    witness: {"X": [1, 2], "condition": "gs", "p": [1, 2], "q": [2, 2], '
            '"sample": 258}\n'
            '  si           refuted (325 samples)\n'
            '    witness: {"X": [], "condition": "si", "lhs": 0, "p": [1, 1], "rhs": '
            '1, "sample": 128}\n'
            '  nc           refuted (325 samples)\n'
            '    witness: {"I": [1], "X": [1, 2], "Y": [], "condition": "nc", "p": '
            '[1, 2], "sample": 129}\n'
            '  ncsim        refuted (325 samples)\n'
            '    witness: {"I": [1], "X": [1, 2], "Y": [], "condition": "ncsim", '
            '"p": [1, 2], "sample": 129}\n'
        ),
        id="equivalence-fail",
    ),
    pytest.param(
        ("gen", "--kind", "uniform", "--k", "2", "--n", "3", "--weights", "0,1,2",
         "-o", "gen.json"), 0,
        (
            '{"command": "gen", "kind": "set_function", "n": 3, "written": '
            '"gen.json"}\n'
        ),
        'wrote set_function (n=3) to gen.json\n',
        id="gen-output",
    ),
]


@pytest.mark.parametrize("argv, code, json_out, human_out", _PINNED)
def test_report_bytes_are_pinned(files, capsys, monkeypatch, k4, argv, code, json_out, human_out):
    gapped = SetFunction.from_entries(
        4,
        [
            (0b0011, -10), (0b1100, 0), (0, 0), (0b0100, -10), (0b1000, -10),
            (0b0111, 0), (0b1011, 0), (0b1111, -10),
        ],
    )
    save_set_function(gapped, files["dir"] / "gapped.json")
    save_set_family(k4.bases(), files["dir"] / "k4fam.json")
    monkeypatch.chdir(files["dir"])
    for fmt, want in (("json", json_out), ("human", human_out)):
        assert run(capsys, *argv, "--format", fmt, "--no-timing") == (code, want, "")
        # with timing, the same report plus elapsed_ms, or one last elapsed line
        timed_code, out, err = run(capsys, *argv, "--format", fmt)
        assert (timed_code, err) == (code, "")
        if fmt == "json":
            report = json.loads(out)
            assert type(report.pop("elapsed_ms")) is float
            assert json.dumps(report, sort_keys=True) + "\n" == want
        else:
            *body, last = out.splitlines()
            assert re.fullmatch(r"elapsed: [0-9.]+ ms", last)
            assert "\n".join(body) + "\n" == want


_DIGITS = "7" * 5000  # past the interpreter's default limit of 4300 digits per int
_HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")


_CHECK = ("check", "{file}", "--property", "mnat-exc")
_GEN_FREE = ("gen", "--kind", "free", "--n", "2", "--weights", "1,2")
_GEN_PARTITION = ("gen", "--kind", "partition", "--rank")


@pytest.mark.parametrize(
    "content, argv, message",
    [
        pytest.param(b'{"kind": "set_function", "n": 1, "entries": \xff}', _CHECK, "",
                     id="not-utf8"),
        pytest.param(b"[" * 100_000, _CHECK, "", id="deep-nesting"),
        pytest.param(
            ('{"kind": "set_function", "n": 1, "entries": [{"set": [], "value": '
             + _DIGITS + "}]}").encode(), _CHECK, "",
            id="long-int-literal",
            marks=pytest.mark.skipif(not _HAS_DIGIT_LIMIT, reason="no int digit limit"),
        ),
        pytest.param(
            ('{"kind": "set_function", "n": 1, "entries": [{"set": [], "value": "1/'
             + _DIGITS + '"}]}').encode(), _CHECK, "",
            id="long-int-in-rational",
            marks=pytest.mark.skipif(not _HAS_DIGIT_LIMIT, reason="no int digit limit"),
        ),
        pytest.param(None, (*_GEN_FREE, "-o", "{dir}/missing/x.json"),
                     "error: cannot write {dir}/missing/x.json: ", id="gen-output-in-missing-dir"),
        pytest.param(None, (*_GEN_FREE, "-o", "{dir}"), "error: cannot write {dir}: ",
                     id="gen-output-is-a-directory"),
        pytest.param(None, (*_GEN_PARTITION, "--blocks", "1,a", "--caps", "1"),
                     "error: bad element 'a' in block '1,a' of --blocks", id="gen-bad-block"),
        pytest.param(None, (*_GEN_PARTITION, "--blocks", "1,2", "--caps", "x"),
                     "error: bad capacity 'x' in --caps", id="gen-bad-capacity"),
    ],
)
def test_bad_input_exits_1_without_traceback(tmp_path, content, argv, message):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_bytes(content)
    argv = [a.format(file=path, dir=tmp_path) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(excheck.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "excheck.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(message.format(dir=tmp_path))
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("verb", ["exchange", "duality"])
@pytest.mark.parametrize("flag", ["--x", "--y", "--i"])
@pytest.mark.parametrize("label", [4, 300, 2 * 10**9])
def test_set_labels_are_checked_against_the_ground_set(files, capsys, verb, flag, label):
    # a label past n is refused before its bit is shifted, so the error
    # names the label, not a mask (a label near 2e9 would be a 250 MB one)
    sets = {"--x": "1", "--y": "2", "--i": ""}
    sets[flag] = f"1,{label}" if flag == "--x" else str(label)
    argv = [verb, files["rank2"], *(a for kv in sets.items() for a in kv)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: element {label} exceeds ground-set size 3\n"
