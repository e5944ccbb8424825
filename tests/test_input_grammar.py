"""One term grammar behind every text reader: surfaces, parenthesised
coefficients, point coordinates and matrix entries follow the same rules,
and a ParseError gives one offset into the argument the user gave."""

import pytest

from quartic_galois.cli import main
from quartic_galois.errors import ParseError
from quartic_galois.gaussian import parse_gaussian
from quartic_galois.linalg import parse_matrix
from quartic_galois.poly import parse_point, parse_poly

FERMAT = "X^4+Y^4+Z^4+W^4"
MATRIX_REST = " 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1"

MALFORMED = ["1 2", "1/2 1/2", "i2", "2*", "2**i", "1//2", "",
             "١",          # ARABIC-INDIC DIGIT ONE
             "(1+i", "X2*Y^3"]

READERS = {
    "parse_gaussian": parse_gaussian,
    "point coordinate": lambda lit: parse_point(f"{lit}:0:0:1"),
    "matrix entry": lambda lit: parse_matrix(lit + MATRIX_REST),
    "parenthesised coefficient":
        lambda lit: parse_poly(f"({lit})*X^4+Y^4+Z^4+W^4", 4),
}

CLI_ARGUMENTS = {
    "surface": lambda lit: ["smooth", f"{lit}*X^4+Y^4+Z^4+W^4"],
    "--point": lambda lit: ["galois", "test", FERMAT, "--point", f"{lit}:0:0:1"],
    "--matrix": lambda lit: ["auto", "character", FERMAT,
                             "--matrix", lit + MATRIX_REST],
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("literal", MALFORMED)
def test_malformed_literal_every_reader(reader, literal):
    with pytest.raises(ParseError):
        READERS[reader](literal)


@pytest.mark.parametrize("argument", CLI_ARGUMENTS)
@pytest.mark.parametrize("literal", MALFORMED)
def test_malformed_literal_every_cli_argument(capsys, argument, literal):
    code = main(CLI_ARGUMENTS[argument](literal))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


READ = {"point": parse_point, "matrix": parse_matrix,
        "surface": lambda text: parse_poly(text, 4)}
ARGV = {"point": lambda text: ["galois", "test", FERMAT, "--point", text],
        "matrix": lambda text: ["auto", "character", FERMAT, "--matrix", text],
        "surface": lambda text: ["smooth", text]}


@pytest.mark.parametrize("kind, text, named, offset", [
    ("point", "1:1 2:0:0", "point coordinate 2: ", 4),
    ("point", "0:0:i2:1", "point coordinate 3: ", 5),
    ("point", " [1:0:1x:0]", "point coordinate 3: ", 7),
    ("point", "[1:0:0:0", "unmatched or nested '['", 0),
    ("point", "1:0:0:0]]", "unmatched or nested ']'", 7),
    ("point", "[[1:0:0:0]]", "unmatched or nested '['", 1),
    ("point", "[1:0:0:0] [0:1:0:0]", "unmatched or nested ']'", 8),
    ("point", "1:0:0", "expected 4 coordinates, got 3", 5),
    ("point", " [1:0:0] ", "expected 4 coordinates, got 3", 9),
    ("point", "1:0:0:0:1:1", "expected 4 coordinates, got 6", 8),
    ("matrix", "1 0 0", "expected 16 matrix entries, got 3", 5),
    ("matrix", "1" + MATRIX_REST + "  7 8", "expected 16 matrix entries, got 18", 36),
    ("matrix", "1 0 0 0  0 1* 0 0  0 0 1 0  0 0 0 1", "matrix entry 6: ", 12),
    ("matrix", "1 0 0 0  0 1x 0 0  0 0 1 0  0 0 0 1", "matrix entry 6: ", 12),
    ("surface", "(1 2)*X^4+Y^4+Z^4+W^4", "", 3),
    ("surface", "2 3X^4+Y^4+Z^4+W^4", "", 2),
    ("surface", "X2*Y^3+Y^4+Z^4+W^4", "", 1),
    ("surface", "X^4+(1+x)*Y^4+Z^4+W^4", "", 7),
])
def test_rejected_with_one_offset_into_the_argument(capsys, kind, text, named,
                                                     offset):
    with pytest.raises(ParseError) as err:
        READ[kind](text)
    message = str(err.value)
    assert err.value.position == offset
    assert message.startswith(named)
    assert message.count("offset") == 1
    assert message.endswith(f"(at offset {offset})")
    code = main(ARGV[kind](text))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["[1:0:0:i]", " [ 1:0:0:i ] ", "1:0:0:i"])
def test_point_takes_one_pair_of_brackets_at_most(text):
    assert parse_point(text) == parse_point("1:0:0:i")


def test_nested_parenthesis_is_named_at_its_offset(capsys):
    text = "X^4+((1))*Y^4+Z^4+W^4"
    with pytest.raises(ParseError) as err:
        parse_poly(text, 4)
    assert err.value.position == 5
    assert err.value.reason == "nested parenthesis"
    assert main(["smooth", text]) == 1
    assert capsys.readouterr().err == "error: nested parenthesis (at offset 5)\n"


@pytest.mark.parametrize("text, offset", [
    ("X^" + "1" * 5000 + "+Y^4", 2),
    ("1" * 5000 + "*X^4+Y^4+Z^4+W^4", 0),
    ("X^4+1/" + "7" * 5000 + "*Y^4", 6),
])
def test_overlong_digits_are_a_parse_error(text, offset):
    # past Python's limit on the digits of an int: an offset, and only a
    # short prefix of the digits in the message
    with pytest.raises(ParseError) as err:
        parse_poly(text, 4)
    assert err.value.position == offset
    assert "too many digits" in err.value.reason
    assert len(str(err.value)) < 80


@pytest.mark.parametrize("argv", [
    ["lattice", "reduce", "٨", "0_0", " 8 "],
    ["lattice", "reduce", "٨", "0", "8"],       # ARABIC-INDIC DIGIT EIGHT
    ["lattice", "reduce", "8", "0_0", "8"],
    ["lattice", "reduce", "8", "0", " 8 "],
    ["moduli", "dim", "--count", "1_0"],
    ["moduli", "dim", "--count", "٣"],
    ["moduli", "npns", "--l", " 4"],
    ["--seed", "١", "demo"],
    ["--seed", "1" * 5000, "demo"],
])
def test_integers_are_ascii_only(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "not an integer" in captured.err or "too many digits" in captured.err
