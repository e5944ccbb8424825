import argparse
import json

import pytest

from quartic_galois import cli, galois, linalg
from quartic_galois.cli import main
from quartic_galois.errors import ConsistencyError
from quartic_galois.linalg import Matrix
from quartic_galois.poly import parse_poly, substitute_linear

from helpers import calls_of, height1_gaussian

FERMAT = "X^4+Y^4+Z^4+W^4"
FORM1 = "X^4+Y^4+Z^4+W^4+Y^2*Z*W"
FORM2 = "X^4+Y^4+Z^4+Z*W^3+W^4"
SIGMA1 = "i 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1"
SIGMA12 = "i 0 0 0  0 i 0 0  0 0 1 0  0 0 0 1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    payload = json.loads(out) if out.strip() else {}
    return code, payload, err


def test_smooth_exit_codes(capsys):
    code, out, _ = run(capsys, "smooth", FERMAT)
    assert code == 0 and "smooth: yes" in out
    code, out, _ = run(capsys, "smooth", "X^4+Y^4+Z^4")
    assert code == 2 and "smooth: no" in out
    code, _, err = run(capsys, "smooth", "X^4 + garbage")
    assert code == 1 and "error" in err


def test_smooth_rejects_trailing_star(capsys):
    code, out, err = run(capsys, "smooth", FERMAT + "*")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_smooth_inhomogeneous_names_the_offending_term(capsys):
    code, out, err = run(capsys, "smooth", "X^4+Y^4+Z^4+W^4*X")
    assert code == 1 and out == ""
    assert err.strip() == "error: inhomogeneous polynomial (at offset 12)"


def test_galois_test_verdicts(capsys):
    code, payload, _ = run_json(capsys, "galois", "test", FORM2,
                                "--point", "0:1:0:0")
    assert code == 0 and payload["outer_galois_point"] is True
    assert payload["generator"][5] == "i"
    code, payload, _ = run_json(capsys, "galois", "test", FERMAT,
                                "--point", "1:1:0:0")
    assert code == 2 and payload["outer_galois_point"] is False


def test_galois_test_builds_the_homology_once(capsys, monkeypatch):
    calls = []
    generator = galois._generator_or_none

    def spy(f, p):
        calls.append(str(p))
        return generator(f, p)

    monkeypatch.setattr(galois, "_generator_or_none", spy)
    for point, expected in (("0:1:0:0", 0), ("0:0:1:0", 2)):
        code, _, _ = run(capsys, "galois", "test", FORM2, "--point", point)
        assert code == expected
    assert calls == ["0:1:0:0", "0:0:1:0"]


def test_galois_test_inner_point_error(capsys):
    code, _, err = run(capsys, "galois", "test", "X^3*Y+Y^4+Z^4+W^4",
                       "--point", "1:0:0:0")
    assert code == 1 and "inner" in err


def test_galois_find_fermat(capsys):
    code, payload, _ = run_json(capsys, "galois", "find", FERMAT)
    assert code == 0
    assert payload["completeness"] == "proved-complete"
    assert [p["point"] for p in payload["points"]] == [
        "0:0:0:1", "0:0:1:0", "0:1:0:0", "1:0:0:0"]
    assert payload["singular_k3"] == {
        "picard_number": 20,
        "transcendental_gram": [8, 0, 0, 8],
    }


def test_galois_find_conjugated_fermat_is_the_maximal_case(capsys):
    # four verified points mark the maximal case, and its label form-3,
    # in any coordinates
    fermat = parse_poly(FERMAT, 4)
    shear = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    for a in (shear, height1_gaussian(19)):
        code, payload, _ = run_json(capsys, "galois", "find",
                                    str(substitute_linear(fermat, a)))
        assert code == 0 and payload["normal_form"] == "form-3"
        assert len(payload["points"]) == 4
        assert payload["singular_k3"] == {
            "picard_number": 20,
            "transcendental_gram": [8, 0, 0, 8],
        }
    _, payload, _ = run_json(capsys, "galois", "find", FORM2)
    assert len(payload["points"]) == 2 and "singular_k3" not in payload


def test_galois_find_singular_rejected(capsys):
    code, _, err = run(capsys, "galois", "find", "X^4+Y^4+Z^4")
    assert code == 1 and "singular" in err


def test_auto_character(capsys):
    identity = " ".join(["1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1"])
    code, payload, _ = run_json(capsys, "auto", "character", FERMAT,
                                "--matrix", identity)
    assert code == 0 and payload["character_value"] == "1"
    code, payload, _ = run_json(capsys, "auto", "character", FORM1,
                                "--matrix", SIGMA1)
    assert payload["character_value"] == "i"


def test_auto_classify(capsys):
    code, payload, _ = run_json(capsys, "auto", "classify", FORM1,
                                "--matrix", SIGMA1)
    assert code == 0
    assert payload["type_tuple"] == [1, 0, 0, 3]
    assert payload["character"] == "purely-ns-4"
    code, payload, _ = run_json(capsys, "auto", "classify", FORM2,
                                "--matrix", SIGMA12)
    assert payload["type_tuple"] == [10, 4, 8]


@pytest.mark.parametrize("mode", ["character", "classify", "fixed-locus"])
def test_auto_rejects_zero_form(capsys, mode):
    code, out, err = run(capsys, "auto", mode, "0*X^4", "--matrix", SIGMA1)
    assert code == 1 and out == ""
    assert err == "error: zero form does not define a surface\n"


def test_auto_fixed_locus(capsys):
    code, payload, _ = run_json(capsys, "auto", "fixed-locus", FORM2,
                                "--matrix", SIGMA12)
    assert code == 0
    assert payload["n"] == 8 and payload["curves"] == []


def test_auto_unnormalized_matrix(capsys):
    bad = " ".join(["2 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1"])
    code, _, err = run(capsys, "auto", "character", FERMAT, "--matrix", bad)
    assert code == 1 and "rescale" in err


SINGULAR = "X^4+2*X^2*Y^2+Y^4+Z^4+W^4"   # (X^2+Y^2)^2+Z^4+W^4
SWAP_XZ = "0 0 1 0  0 1 0 0  1 0 0 0  0 0 0 1"


def _diag(*values):
    return "  ".join(" ".join(str(v) if r == c else "0" for c in range(4))
                     for r, v in enumerate(values))


@pytest.mark.parametrize("mode, surface, matrix, code, err", [
    (mode, FERMAT, _diag(2, 1, 1, 1), 1,
     "error: matrix does not satisfy M**4 == I; rescale it inside Q(i)\n")
    for mode in ("character", "fixed-locus", "classify")] + [
    (mode, FORM2, SWAP_XZ, 1, "error: matrix does not map the surface to itself\n")
    for mode in ("character", "fixed-locus", "classify")] + [
    ("character", FERMAT, _diag("i", "i", "i", "i"), 0, ""),
    ("fixed-locus", FERMAT, _diag("i", "i", "i", "i"), 1,
     "error: matrix is scalar: the identity on P^3\n"),
    ("classify", FERMAT, _diag(1, 1, 1, 1), 1,
     "error: matrix is scalar: the identity on P^3\n"),
    ("character", SINGULAR, _diag(1, 1, 1, "i"), 0, ""),
    ("fixed-locus", SINGULAR, _diag(1, 1, 1, "i"), 1,
     "error: fixed loci require a smooth quartic\n"),
    ("classify", SINGULAR, _diag(1, 1, 1, "i"), 1,
     "error: fixed loci require a smooth quartic\n"),
    ("classify", FERMAT, _diag(1, 1, 1, -1), 1,
     "error: character -1 but projective order is not 4; the order-4 "
     "tables do not apply\n"),
], ids=["unnormalized-character", "unnormalized-fixed-locus",
        "unnormalized-classify", "not-preserved-character",
        "not-preserved-fixed-locus", "not-preserved-classify",
        "scalar-character", "scalar-fixed-locus", "identity-classify",
        "singular-character", "singular-fixed-locus", "singular-classify",
        "order-2-classify"])
def test_auto_error_paths(capsys, mode, surface, matrix, code, err):
    # the exact message and exit code of each refusal; a scalar matrix and
    # a singular surface still have a character
    got_code, out, got_err = run(capsys, "auto", mode, surface, "--matrix", matrix)
    assert (got_code, got_err) == (code, err)
    assert (out == "") is (code == 1)
    if mode == "character" and code == 0:
        assert out.endswith("character: 1\n" if surface == FERMAT else "character: i\n")


def test_lattice_reduce(capsys):
    code, payload, _ = run_json(capsys, "lattice", "reduce", "8", "0", "8")
    assert code == 0 and payload["reduced"] == [8, 0, 0, 8]
    code, payload, _ = run_json(capsys, "lattice", "reduce", "8", "8", "16")
    assert payload["reduced"] == [8, 0, 0, 8]


def test_lattice_compare(capsys):
    code, payload, _ = run_json(capsys, "lattice", "compare",
                                "8", "0", "8", "2", "0", "32")
    assert code == 2 and payload["isomorphic"] is False
    code, payload, _ = run_json(capsys, "lattice", "compare",
                                "8", "0", "8", "8", "8", "16")
    assert code == 0 and payload["isomorphic"] is True


def test_lattice_rejects_odd(capsys):
    code, _, err = run(capsys, "lattice", "reduce", "7", "0", "8")
    assert code == 1 and "even" in err


def test_lattice_entry_count(capsys):
    for argv, expected in ((["reduce", "8", "0", "8", "2", "0", "32"], 3),
                           (["reduce", "8"], 3),
                           (["compare", "8", "0", "8", "2", "0"], 6),
                           (["compare", "8", "0", "8", "2", "0", "32", "4"], 6)):
        code, out, err = run(capsys, "lattice", *argv)
        assert code == 1 and out == ""
        assert f"exactly {expected} entries" in err


def test_lattice_entry_not_an_integer(capsys):
    for argv, bad in ((["reduce", "2", "x", "2"], "x"),
                      (["compare", "8", "0", "8", "2", "0", "3.5"], "3.5")):
        code, out, err = run(capsys, "lattice", *argv)
        assert code == 1 and out == ""
        assert f"lattice entry '{bad}' is not an integer" in err


def test_moduli_dim(capsys):
    code, payload, _ = run_json(capsys, "moduli", "dim", "--count", "7",
                                "--matrix", SIGMA1,
                                "--matrix", "1 0 0 0  0 i 0 0  0 0 1 0  0 0 0 1")
    assert code == 0
    assert payload["centralizer_dimension"] == 6
    assert payload["dimension"] == 1


def test_moduli_dim_computes_the_centralizer_once(capsys, monkeypatch):
    calls = calls_of(monkeypatch, linalg.centralizer_dimension)
    code, payload, _ = run_json(capsys, "moduli", "dim", "--count", "16",
                                "--matrix", SIGMA1)
    assert code == 0 and payload["centralizer_dimension"] == 10
    assert payload["dimension"] == 6
    assert len(calls) == 1


def test_moduli_dim_reports_the_count_before_the_matrix(capsys):
    # invalid twice over: 40 monomials, and a singular matrix
    code, out, err = run(capsys, "moduli", "dim", "--count", "40", "--matrix",
                         "0 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1")
    assert code == 1 and out == ""
    assert err == ("error: 40 monomials exceed 35, the number of quartic "
                   "monomials in X, Y, Z, W\n")


def test_moduli_dim_rejects_negative_count(capsys):
    code, out, err = run(capsys, "moduli", "dim", "--count", "-5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "-5" in err
    assert "negative dimension" not in err


def test_moduli_dim_rejects_count_above_35(capsys):
    code, out, err = run(capsys, "moduli", "dim", "--count", "100")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "exceed 35" in err
    code, payload, _ = run_json(capsys, "moduli", "dim", "--count", "35")
    assert code == 0 and payload["dimension"] == 19


def test_moduli_monomials(capsys):
    code, payload, _ = run_json(
        capsys, "moduli", "dim",
        "--monomials", "X^4 Y^4 Z^4 ZW^3 Z^2W^2 Z^3W W^4",
        "--matrix", SIGMA1,
        "--matrix", "1 0 0 0  0 i 0 0  0 0 1 0  0 0 0 1")
    assert payload["parameters"] == 7 and payload["dimension"] == 1


def test_moduli_monomials_reads_every_token(tmp_path, capsys):
    family = tmp_path / "family.txt"
    for monomials, named in (
            ("foo bar X^4 X^4 q w e r t y u i o p a s d f",
             "monomial 'foo': unexpected character 'f' (at offset 0)"),
            ("X^4 Y^4 X^4", "monomial 'X^4' repeats an earlier monomial"),
            ("X^4 YX^3 X^3*Y", "monomial 'X^3*Y' repeats an earlier monomial"),
            ("X^4 2*Y^4", "monomial '2*Y^4' is not one monomial"),
            ("X^4 Y^3", "monomial 'Y^3' is not one monomial"),
            ("X^4 Y^4-Z^4", "monomial 'Y^4-Z^4' is not one monomial"),
            ("X^4 Y^4 Z^4*", "monomial 'Z^4*': '*' must stand between")):
        family.write_text(monomials + "\n")
        for source in (["--monomials", monomials],
                       ["--monomials", f"@{family}"]):
            code, out, err = run(capsys, "moduli", "dim", *source)
            assert code == 1 and out == ""
            assert err.startswith(f"error: {named}")
            assert "Traceback" not in err


def test_moduli_dim_refuses_count_with_monomials(capsys):
    # both flags give the family: the call is refused, naming the two
    code, out, err = run(capsys, "moduli", "dim", "--count", "7",
                         "--monomials", "X^4 Y^4")
    assert code == 1 and out == ""
    assert err == "error: moduli dim takes --count or --monomials, not both\n"


@pytest.mark.parametrize("argv, flag", [
    (("galois", "find", FERMAT, "--point", "0:1:0:0"), "--point"),
    (("moduli", "npns", "--l", "4", "--count", "3"), "--count"),
    (("moduli", "npns", "--monomials", "X^4 Y^4"), "--monomials"),
    (("moduli", "npns", "--matrix", SIGMA1), "--matrix"),
    (("moduli", "dim", "--count", "7", "--l", "4"), "--l"),
], ids=["find-point", "npns-count", "npns-monomials", "npns-matrix", "dim-l"])
def test_flag_that_the_mode_does_not_read_is_refused(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {argv[0]} {argv[1]} does not take {flag}\n"


@pytest.mark.parametrize("argv, where", [
    (("smooth", FERMAT), "smooth"),
    (("galois", "find", FERMAT), "galois find"),
    (("galois", "test", FERMAT, "--point", "1:0:0:0"), "galois test"),
    (("auto", "character", FERMAT, "--matrix", SIGMA1), "auto character"),
    (("lattice", "reduce", "8", "8", "16"), "lattice reduce"),
    (("moduli", "npns"), "moduli npns"),
], ids=["smooth", "find", "test", "auto", "lattice", "moduli"])
def test_seed_is_refused_outside_demo(capsys, argv, where):
    # only demo reads --seed; a valid seed anywhere else is refused, not
    # ignored, and so is one that is not an integer
    for seed in ("7", "x"):
        code, out, err = run(capsys, "--seed", seed, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {where} does not take --seed\n"


def test_demo_reads_seed_0_by_default(capsys):
    assert run(capsys, "demo") == run(capsys, "--seed", "0", "demo")


def test_moduli_npns_reads_rank_4_by_default(capsys):
    assert run(capsys, "moduli", "npns") == (0, "l = 4\nmoduli dimension: 2\n", "")


def test_moduli_npns(capsys):
    code, payload, _ = run_json(capsys, "moduli", "npns", "--l", "4")
    assert code == 0 and payload["dimension"] == 2


def test_moduli_npns_rejects_small_rank(capsys):
    code, out, err = run(capsys, "moduli", "npns", "--l", "0")
    assert code == 1 and out == "" and "below 2" in err


def test_moduli_npns_rejects_rank_above_22(capsys):
    code, out, err = run(capsys, "moduli", "npns", "--l", "99")
    assert code == 1 and out == "" and "exceeds 22" in err
    assert "Traceback" not in err


def test_demo_passes(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert "FAIL" not in out
    assert "all checks passed" in out


def test_surface_from_file(tmp_path, capsys):
    path = tmp_path / "surface.txt"
    path.write_text(FERMAT + "\n")
    code, payload, _ = run_json(capsys, "smooth", f"@{path}")
    assert code == 0 and payload["smooth"] is True


def test_json_output_deterministic(capsys):
    _, first, _ = run(capsys, "--format", "json", "galois", "find", FORM2)
    _, second, _ = run(capsys, "--format", "json", "galois", "find", FORM2)
    assert first == second
    parsed = json.loads(first)
    assert parsed["completeness"] == "proved-complete"


def test_usage_error_exit_code(capsys):
    assert main(["galois"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_auto_classify_symplectic(capsys):
    sympl = "i 0 0 0  0 -i 0 0  0 0 1 0  0 0 0 1"
    code, payload, _ = run_json(capsys, "auto", "classify", FERMAT,
                                "--matrix", sympl)
    assert code == 0
    assert payload["character"] == "symplectic"
    assert payload["type_tuple"] is None
    assert payload["n"] == 4


def test_galois_find_with_candidate(capsys):
    # galois find has no --candidate: the pencil's list is complete or
    # says why not, so there is nothing for a candidate to add
    code, out, err = run(capsys, "galois", "find", FERMAT, "--candidate", "1:1:1:1")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --candidate 1:1:1:1" in err


def test_demo_seed_variation(capsys):
    code, out, _ = run(capsys, "--seed", "3", "demo")
    assert code == 0 and "FAIL" not in out


def test_consistency_error_is_reported_without_traceback(capsys, monkeypatch):
    def broken(args):
        raise ConsistencyError("postcondition failed")
    monkeypatch.setattr(cli, "cmd_smooth", broken)
    code, _, err = run(capsys, "smooth", FERMAT)
    assert code == 1
    assert err == "internal error: postcondition failed\n"


REUSE_SEQUENCE = [
    ["galois", "test", FERMAT, "--point", "1:1:1:1"],
    ["galois", "test", FERMAT, "--point", "1:1:1:1"],
    ["--format", "json", "smooth", FERMAT], ["smooth", FERMAT],
    ["--seed", "3", "demo"], ["demo"],
    ["smooth"], ["lattice", "reduce", "8", "8", "16"],
]


def test_reused_parser_changes_no_output(capsys):
    # main builds its parser once per process; each call must print and
    # return what it would as the first call of a fresh process
    first = []
    for argv in REUSE_SEQUENCE:
        cli._parser.cache_clear()
        first.append(run(capsys, *argv))
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in REUSE_SEQUENCE] == first
    assert first[6][0] == 1 and first[6][2]
    argv = ["galois", "test", FERMAT, "--point", "1:1:1:1"]
    assert cli._parser().parse_args(argv).point == "1:1:1:1"


def _fresh_help(capsys, argv):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    return capsys.readouterr()


@pytest.mark.parametrize("command", [None, "smooth", "galois", "auto", "lattice",
                                     "moduli", "demo"])
def test_reused_parser_help(capsys, command):
    argv = ([command] if command else []) + ["--help"]
    run(capsys, "smooth", FERMAT)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert (out, err) == _fresh_help(capsys, argv)


def test_surface_beginning_with_minus(capsys):
    code, out, _ = run(capsys, "smooth", "--", "-X^4+Y^4+Z^4+W^4")
    assert code == 0 and "smooth: yes" in out


@pytest.mark.parametrize("head, surface, tail", [
    (["smooth"], "-X^4+Y^4+Z^4+W^4", []),
    (["smooth"], "-X^4-Y^4-Z^4", []),
    (["--format", "json", "smooth"], "-2*X^4+Y^4+Z^4+W^4", []),
    (["galois", "find"], "-X^4-Y^4+Z^4+W^4", []),
    (["galois", "find"], "-i*X^4+Y^4+Z^4+W^4+Y^2*Z*W", []),
    (["auto", "classify"], "-X^4-Y^4+Z^4+Z*W^3+W^4", ["--matrix", SIGMA12]),
    (["auto", "fixed-locus"], "-(1+i)*X^4+Y^4+Z^4+Z*W^3+W^4", ["--matrix", SIGMA12]),
])
def test_inline_surface_beginning_with_minus(capsys, head, surface, tail):
    # an inline surface that begins with '-' is read as the surface, as
    # it is after '--'
    inline = run(capsys, *head, surface, *tail)
    assert inline == run(capsys, *head, *tail, "--", surface)
    code, out, err = inline
    assert code in (0, 2) and out and err == ""


@pytest.mark.parametrize("command", ["smooth", "galois", "auto"])
def test_surface_help_gives_no_double_dash_advice(capsys, command):
    # an inline surface that begins with '-' needs no '--', and the help
    # of every surface argument no longer asks for one
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and "quartic in X, Y, Z, W, or @file\n" in out
    assert "write --" not in out and "begins with" not in out
    surface = "-X^4+Y^4+Z^4+W^4"
    assert run(capsys, "smooth", surface) == run(capsys, "smooth", "--", surface)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["smooth", "-h"], ["galois", "--help"], ["auto", "-h"],
    ["lattice", "--help"], ["moduli", "-h"], ["demo", "--help"],
    ["--bogus"], ["-q", "smooth", FERMAT], ["smooth", "-q"], ["smooth", "-x"],
    ["smooth", "--bogus", FERMAT], ["galois", "find", "-x", FERMAT],
    ["auto", "classify", FERMAT, "--matrix"], ["smooth"], ["lattice", "reduce", "-8", "8"],
])
def test_minus_values_leave_help_and_option_errors(capsys, monkeypatch, argv):
    # help, usage and option errors are those of a plain ArgumentParser
    cli._parser.cache_clear()
    ours = run(capsys, *argv)
    monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
    cli._parser.cache_clear()
    try:
        assert run(capsys, *argv) == ours
    finally:
        cli._parser.cache_clear()


def test_galois_find_reason_on_candidates_only(capsys):
    # Fermat over Q(i, sqrt 2): two of the four points are irrational
    surface = "2*X^4+24*X^2*Y^2+8*Y^4+Z^4+W^4"
    code, payload, _ = run_json(capsys, "galois", "find", surface)
    assert code == 0
    assert payload["completeness"] == "candidates-only"
    assert payload["reason"] == "points-not-recovered"
    code, out, _ = run(capsys, "galois", "find", surface)
    assert "completeness: candidates-only\nreason: points-not-recovered\n" in out
    _, payload, _ = run_json(capsys, "galois", "find", FERMAT)
    assert "reason" not in payload
    _, out, _ = run(capsys, "galois", "find", FERMAT)
    assert "reason:" not in out
