"""The benchmark's tracer names functions of the package; a rename must
fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import shlex
from pathlib import Path

import pytest

from quartic_galois.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACE = ROOT / "perfbench" / "trace.py"


@pytest.mark.skipif(not TRACE.exists(), reason="perfbench/ is absent")
def test_trace_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    for layer, names in trace.LAYERS.items():
        module = importlib.import_module(f"quartic_galois.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    from quartic_galois.linalg import Matrix
    for meth in trace.MATRIX_METHODS:
        assert meth in Matrix.__dict__, f"Matrix.{meth}"


def _count_gaussian_ops(monkeypatch):
    """Count Q(i) arithmetic and GaussianRational constructions."""
    from quartic_galois.gaussian import GaussianRational
    counts = {"arith": 0, "init": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for meth in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__", "__pow__"):
        monkeypatch.setattr(GaussianRational, meth,
                            counting("arith", GaussianRational.__dict__[meth]))
    monkeypatch.setattr(GaussianRational, "__init__",
                        counting("init", GaussianRational.__init__))
    return counts


def test_substitution_and_eval_run_over_gaussian_integers(monkeypatch):
    """substitute_linear and partials do no Q(i) arithmetic and build no
    GaussianRational; eval builds only its value."""
    import random
    from fractions import Fraction
    from quartic_galois.gaussian import GaussianRational as GR
    from quartic_galois.linalg import Matrix
    from quartic_galois.poly import parse_poly, partials, substitute_linear

    rng = random.Random(1)

    def height1():
        while True:
            a = Matrix(4, 4, [GR(rng.randint(-1, 1), rng.randint(-1, 1))
                              for _ in range(16)])
            if not a.det().is_zero():
                return a

    f = substitute_linear(parse_poly("X^4+Y^4+Z^4+W^4", 4), height1())
    assert len(f.terms) >= 30
    m = height1().scale(GR(Fraction(1, 3), Fraction(1, 7)))
    point = [GR(Fraction(1, 2), 3), GR(-1, Fraction(2, 5)), GR(0, 1), GR(4)]

    counts = _count_gaussian_ops(monkeypatch)
    g = substitute_linear(f, m)
    partials(g)
    assert counts == {"arith": 0, "init": 0}

    counts.update(arith=0, init=0)
    f.eval(point)
    assert counts == {"arith": 0, "init": 1}


def test_matrix_product_runs_over_gaussian_integers(monkeypatch):
    """A product does no Q(i) arithmetic and builds at most one
    GaussianRational per output entry."""
    import random
    from quartic_galois.linalg import Matrix
    from helpers import rand_gr

    rng = random.Random(3)
    a = Matrix(4, 3, [rand_gr(rng, denominators=(1, 2, 3, 5)) for _ in range(12)])
    b = Matrix(3, 4, [rand_gr(rng, denominators=(1, 4, 7)) for _ in range(12)])

    counts = _count_gaussian_ops(monkeypatch)
    a * b
    assert counts["arith"] == 0
    assert 0 < counts["init"] <= 16


def test_gaussian_arithmetic_builds_no_fraction(monkeypatch):
    """Q(i) arithmetic, Matrix products and kernels, and HomPoly
    coefficients and values run on the stored ints: no Fraction is
    constructed."""
    import random
    from fractions import Fraction
    from quartic_galois.gaussian import GaussianRational as GR
    from quartic_galois.linalg import Matrix
    from quartic_galois.poly import parse_poly
    from helpers import rand_gr

    rng = random.Random(4)
    a = Matrix(3, 4, [rand_gr(rng, denominators=(1, 2, 3, 5)) for _ in range(12)])
    b = Matrix(4, 2, [rand_gr(rng, denominators=(1, 4, 7)) for _ in range(8)])
    x, y = GR(Fraction(1, 3), Fraction(-2, 7)), GR(Fraction(5, 2), 3)
    half = Fraction(1, 2)
    f = parse_poly("1/2*X^4 + (1/3-i)*X*Y^2*Z - 2/5*W^4", 4)
    point = [GR(half, 3), GR(-1, Fraction(2, 5)), GR(0, 1), GR(4)]

    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert Fraction(1, 2) == half and len(built) == 1
    built.clear()
    for u, v in ((x, y), (x, 3), (y, half)):
        u + v, v + u, u - v, v - u, u * v, v * u, u / v, v / u
    a * b
    assert len(a.kernel_basis()) == 1
    f.coeff((4, 0, 0, 0)), f.coeff((1, 2, 1, 0)), f.coeff((0, 4, 0, 0))
    f.eval(point)
    assert built == []


def test_private_helpers_have_a_caller():
    """Every _name function, class or method of the package is named
    somewhere in src/ besides its own definition."""
    import ast
    import re
    from collections import Counter
    package = Path(importlib.import_module("quartic_galois").__file__).parent
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    defined = Counter()
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and re.fullmatch(r"_[^_]\w*", node.name)):
                defined[node.name] += 1
    assert defined
    unused = [name for name, count in sorted(defined.items())
              if sum(len(re.findall(rf"\b{name}\b", text))
                     for text in sources.values()) <= count]
    assert unused == []


def test_only_the_solver_walks_the_certificate_primes():
    """One module owns the modular search: no other module of the package
    names the certificate primes or a step of the search."""
    import ast
    owned = {"_CERT_PRIMES", "_CERT_ROOTS", "_CERT_PIS", "_generator_rows",
             "_macaulay_echelon", "_zeros_mod_p", "_lift"}
    package = Path(importlib.import_module("quartic_galois").__file__).parent
    named = []
    for path in sorted(package.glob("*.py")):
        if path.name == "solver.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", getattr(node, "attr", None))])
            named += [f"{path.name}: {name}" for name in names if name in owned]
    assert named == []


def _readme_commands():
    """The commands of the sh block under the README's "## Command line"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines
            if line.strip() and not line.lstrip().startswith("#")]


def _readme_transcript(argv, out, code):
    """One command of the README transcript: the command, its stdout and
    its exit code."""
    return f"$ {shlex.join(argv)}\n{out}[exit {code}]\n"


def test_readme_command_line_examples_run(capsys):
    # stdout is pinned byte for byte by tests/golden/readme.txt
    commands = _readme_commands()
    assert commands
    transcript = []
    for argv in commands:
        assert argv[0] == "quartic-galois", argv
        code = main(argv[1:])
        out, err = capsys.readouterr()
        assert code in (0, 2), argv
        assert err == "", argv
        transcript.append(_readme_transcript(argv, out, code))
    golden = ROOT / "tests" / "golden" / "readme.txt"
    assert "".join(transcript) == golden.read_text(encoding="utf-8")


# the order-4 automorphisms diag(...) of the normal forms that the benchmark
# corpus runs through `auto`, and matrices that each entry point must refuse
AUTO_SURFACES = {
    "fermat": "X^4+Y^4+Z^4+W^4",
    "form-1": "X^4+Y^4+Z^4+W^4+Y^2*Z*W",
    "form-2": "X^4+Y^4+Z^4+Z*W^3+W^4",
    "x3y": "X^3*Y+Y^4+Z^4+W^4",
    "xyzw": "X^4+Y^4+Z^4+W^4+X*Y*Z*W",
    # singular at (1 : i : 0 : 0)
    "singular": "X^4+2*X^2*Y^2+Y^4+Z^4+W^4",
}
AUTO_DIAGONALS = [
    ("fermat", "i 1 1 1"), ("fermat", "i i 1 1"), ("fermat", "i -i 1 1"),
    ("form-1", "i 1 1 1"), ("form-1", "1 1 i -i"),
    ("form-2", "i i 1 1"), ("form-2", "i 1 1 1"),
    ("x3y", "1 1 i 1"), ("xyzw", "i -i 1 1"),
    # errors: scalar, scalar and unnormalized, unnormalized, singular,
    # not preserved
    ("fermat", "i i i i"), ("fermat", "2 2 2 2"), ("fermat", "2 1 1 1"),
    ("singular", "2 2 2 2"), ("singular", "2 1 1 1"), ("singular", "1 1 1 i"),
    ("form-1", "1 i 1 1"),
]


def _diagonal_text(values):
    d = values.split()
    return "  ".join(" ".join(d[r] if c == r else "0" for c in range(4))
                     for r in range(4))


def _auto_commands():
    for fmt in ([], ["--format", "json"]):
        for mode in ("character", "fixed-locus", "classify"):
            for family, values in AUTO_DIAGONALS:
                yield ["quartic-galois", *fmt, "auto", mode, AUTO_SURFACES[family],
                       "--matrix", _diagonal_text(values)]


def test_auto_transcript(capsys):
    # stdout or stderr (never both) and the exit code of every command,
    # pinned byte for byte by tests/golden/auto.txt
    transcript = []
    for argv in _auto_commands():
        code = main(argv[1:])
        out, err = capsys.readouterr()
        assert out == "" or err == "", argv
        transcript.append(_readme_transcript(argv, out + err, code))
    golden = ROOT / "tests" / "golden" / "auto.txt"
    assert "".join(transcript) == golden.read_text(encoding="utf-8")
