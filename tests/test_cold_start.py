"""numpy loads at the modular engine's first use, not at package import.

Each check runs in a fresh interpreter, since this process has loaded
numpy already.  Every module of the package is still imported by
`import quartic_galois.cli`: a module first imported later would keep
its caches out of reach of code that collects them from sys.modules at
start-up."""

import os
import subprocess
import sys
from pathlib import Path

from quartic_galois.poly import parse_poly, substitute_linear

from helpers import height1_gaussian

SRC = Path(__file__).resolve().parent.parent / "src"
FERMAT = "X^4+Y^4+Z^4+W^4"


def fresh(script: str, *argv: str) -> str:
    """The stdout of `script` in a fresh interpreter with src/ on its path."""
    out = subprocess.run([sys.executable, "-c", script, *argv], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    return out.stdout


def test_import_and_parsing_load_no_numpy():
    modules = sorted(p.stem for p in (SRC / "quartic_galois").glob("*.py")
                     if p.stem != "__init__")
    out = fresh(
        "import sys, quartic_galois.cli\n"
        "from quartic_galois.linalg import parse_matrix\n"
        "from quartic_galois.poly import parse_point, parse_poly\n"
        "parse_poly('X^4+Y^4+Z^4+W^4', 4)\n"
        "parse_matrix('1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 i')\n"
        "parse_point('[1:0:0:0]')\n"
        "print('numpy' in sys.modules)\n"
        "print(' '.join(sorted(m.split('.')[1] for m in sys.modules\n"
        "                      if m.startswith('quartic_galois.'))))\n")
    assert out.splitlines() == ["False", " ".join(modules)]


RUN = ("import sys\n"
       "from quartic_galois.cli import main\n"
       "code = main(sys.argv[1:])\n"
       "print(code, 'numpy' in sys.modules)\n")


def test_exact_commands_load_no_numpy():
    # a surface whose variables split stops at its block certificate, and
    # a Galois point certifies its plane quartic: no Hessian pencil runs
    diag = "1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 i"
    for argv, code in ((["lattice", "reduce", "8", "8", "16"], 0),
                       (["moduli", "npns", "--l", "4"], 0),
                       (["auto", "character", FERMAT, "--matrix", diag], 0),
                       (["auto", "fixed-locus", FERMAT, "--matrix", diag], 0),
                       (["smooth", FERMAT], 0),
                       (["galois", "test", FERMAT, "--point", "1:0:0:0"], 0),
                       (["galois", "test", FERMAT, "--point", "1:1:0:0"], 2)):
        assert fresh(RUN, *argv).splitlines()[-1] == f"{code} False", argv


def test_modular_smoothness_loads_numpy():
    f = substitute_linear(parse_poly(FERMAT, 4), height1_gaussian(19))
    lines = fresh(RUN, "smooth", str(f)).splitlines()
    assert lines[-2:] == ["smooth: yes", "0 True"]
