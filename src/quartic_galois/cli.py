"""Command-line front end.

Subcommands: smooth, galois test|find, auto fixed-locus|classify|character,
lattice reduce|compare, moduli dim|npns, demo.  Output is deterministic:
identical inputs produce byte-identical reports (JSON keys sorted,
coefficients printed canonically).

Exit codes: 0 success / positive verdict, 2 negative verdict, 1 error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (ConsistencyError, ParseError, SingularSurfaceError,
                     SurfaceNotPreservedError)
from .gaussian import GaussianRational, I, ONE, parse_integer, scan_piece
from .galois import (enumerate_outer_galois_points, galois_generator,
                     is_outer_galois_point, require_smooth)
from .k3 import (GramMatrix2, MAX_OUTER_GALOIS_COUNT,
                 MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM, SINGULAR_K3_PICARD_NUMBER,
                 classify, fixed_locus, is_isomorphic_gram, moduli_dimension,
                 npns_moduli_dim, reduce_gram, serialize_classification,
                 solve_m, symplectic_character)
from .linalg import Matrix, parse_matrix
from .poly import (DEFAULT_NAMES, HomPoly, ProjPoint, parse_point,
                   parse_poly, substitute_linear)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _read_arg(value: str) -> str:
    """Inline value, or the contents of a file when prefixed with @."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return value


def _load_surface(text: str) -> HomPoly:
    return parse_poly(_read_arg(text), 4)


def _load_matrix(text: str) -> Matrix:
    return parse_matrix(_read_arg(text))


def _emit(payload: Dict, lines: List[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_smooth(args: argparse.Namespace) -> int:
    f = _load_surface(args.surface)
    try:
        require_smooth(f)
        smooth = True
    except SingularSurfaceError:
        smooth = False
    payload = {"command": "smooth", "surface": str(f), "smooth": smooth}
    _emit(payload, [f"surface: {f}", f"smooth: {'yes' if smooth else 'no'}"],
          args.format)
    return EXIT_OK if smooth else EXIT_NEGATIVE


def cmd_galois(args: argparse.Namespace) -> int:
    f = _load_surface(args.surface)
    if args.mode == "test":
        if not args.point:
            raise ParseError("galois test requires --point")
        p = parse_point(_read_arg(args.point))
        try:
            gen = galois_generator(f, p)
        except SurfaceNotPreservedError:
            gen = None
        verdict = gen is not None
        payload: Dict = {"command": "galois-test", "surface": str(f),
                         "point": str(p), "outer_galois_point": verdict}
        lines = [f"surface: {f}", f"point: {p}",
                 f"outer Galois point: {'yes' if verdict else 'no'}"]
        if gen is not None:
            payload["generator"] = [str(x) for x in gen.matrix.entries]
            payload["multiplier"] = str(gen.multiplier)
            lines.append("generator:")
            lines.extend("  " + "  ".join(str(gen.matrix[i, j]) for j in range(4))
                         for i in range(4))
        _emit(payload, lines, args.format)
        return EXIT_OK if verdict else EXIT_NEGATIVE
    # find
    report = enumerate_outer_galois_points(f)
    payload = {"command": "galois-find", **report.to_dict()}
    # four verified points: the quartic of k3's maximal-case constants
    if len(report.points) == MAX_OUTER_GALOIS_COUNT:
        payload["singular_k3"] = {
            "picard_number": SINGULAR_K3_PICARD_NUMBER,
            "transcendental_gram": list(
                MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM.entries()),
        }
    lines = [f"surface: {f}",
             f"normal form: {report.normal_form}",
             f"completeness: {report.completeness}"]
    if report.reason is not None:
        lines.append(f"reason: {report.reason}")
    lines.append(f"outer Galois points found: {len(report.points)}")
    for p, gen in report.points:
        lines.append(f"  point {p}")
        lines.extend("    " + "  ".join(str(gen.matrix[i, j]) for j in range(4))
                     for i in range(4))
    if "singular_k3" in payload:
        lines.append(f"maximal case: Picard number {SINGULAR_K3_PICARD_NUMBER}, "
                     f"transcendental lattice "
                     f"{MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM}")
    _emit(payload, lines, args.format)
    return EXIT_OK


def cmd_auto(args: argparse.Namespace) -> int:
    f = _load_surface(args.surface)
    m = _load_matrix(args.matrix)
    if args.mode == "character":
        u = symplectic_character(f, m)
        payload = {"command": "auto-character", "surface": str(f),
                   "character_value": str(u)}
        _emit(payload, [f"surface: {f}", f"character: {u}"], args.format)
        return EXIT_OK
    if args.mode == "fixed-locus":
        rep = fixed_locus(f, m)
        payload = {"command": "auto-fixed-locus", "surface": str(f),
                   **rep.to_dict()}
        lines = [f"surface: {f}",
                 f"curves: {[(c.genus, bool(c.smooth)) for c in rep.curves]}",
                 f"isolated points: {rep.isolated_points}",
                 f"swapped-pair count: {rep.a_count}"]
        if rep.sigma_squared is not None:
            lines.append(
                f"square: curves "
                f"{[(c.genus, bool(c.smooth)) for c in rep.sigma_squared.curves]}"
                f", isolated points {rep.sigma_squared.isolated_points}")
        _emit(payload, lines, args.format)
        return EXIT_OK
    # classify
    doc = serialize_classification(f, m)
    payload = {"command": "auto-classify", "surface": str(f), **doc}
    lines = [f"surface: {f}",
             f"character: {doc['character']} ({doc['character_value']})",
             f"type tuple: {doc['type_tuple']}",
             f"n = {doc['n']}, a = {doc['a']}",
             f"table: {doc['table_source']}"]
    _emit(payload, lines, args.format)
    return EXIT_OK


def _parse_gram(tokens: Sequence[str]) -> GramMatrix2:
    return GramMatrix2.from_entries(
        *(parse_integer(t, "lattice entry") for t in tokens))


def cmd_lattice(args: argparse.Namespace) -> int:
    expected = 3 if args.mode == "reduce" else 6
    if len(args.entries) != expected:
        raise ParseError(f"lattice {args.mode} takes exactly {expected} "
                         f"entries, got {len(args.entries)}")
    if args.mode == "reduce":
        g = _parse_gram(args.entries)
        reduced, u = reduce_gram(g)
        payload = {"command": "lattice-reduce",
                   "input": list(g.entries()),
                   "reduced": list(reduced.entries()),
                   "transform": [list(u[0]), list(u[1])]}
        _emit(payload, [f"input:   {g}", f"reduced: {reduced}",
                        f"transform: {u}"], args.format)
        return EXIT_OK
    g1 = _parse_gram(args.entries[:3])
    g2 = _parse_gram(args.entries[3:])
    iso = is_isomorphic_gram(g1, g2)
    payload = {"command": "lattice-compare", "first": list(g1.entries()),
               "second": list(g2.entries()), "isomorphic": iso}
    _emit(payload, [f"first:  {g1}", f"second: {g2}",
                    f"isomorphic: {'yes' if iso else 'no'}"], args.format)
    return EXIT_OK if iso else EXIT_NEGATIVE


def _count_monomials(text: str) -> int:
    """The number of whitespace-separated monomials in text.  Each must be
    one term with coefficient 1 and degree 4 in X, Y, Z, W, and none may
    repeat."""
    seen = set()
    for token in re.finditer(r"\S+", text):
        name = f"monomial {token.group()!r}"
        terms = scan_piece(text, *token.span(), name, DEFAULT_NAMES)
        exp, coeff, _at = terms[0]
        if len(terms) > 1 or coeff != 1 or sum(exp) != 4:
            raise ParseError(f"{name} is not one monomial of degree 4 with "
                             "coefficient 1", token.start())
        if exp in seen:
            raise ParseError(f"{name} repeats an earlier monomial",
                             token.start())
        seen.add(exp)
    return len(seen)


def cmd_moduli(args: argparse.Namespace) -> int:
    if args.mode == "npns":
        l = 4 if args.l is None else args.l
        dim = npns_moduli_dim(l)
        payload = {"command": "moduli-npns", "l": l, "dimension": dim}
        _emit(payload, [f"l = {l}", f"moduli dimension: {dim}"], args.format)
        return EXIT_OK
    if args.count is not None and args.monomials is not None:
        raise ParseError("moduli dim takes --count or --monomials, not both")
    if args.count is not None:
        if args.count < 0:
            raise ParseError(f"--count {args.count} is negative; it counts "
                             "the family's monomials")
        count = args.count
    elif args.monomials is not None:
        count = _count_monomials(_read_arg(args.monomials))
    else:
        raise ParseError("moduli dim requires --count or --monomials")
    mats = [_load_matrix(m) for m in (args.matrix or [])]
    dim = moduli_dimension(count, mats)
    cdim = count - dim
    payload = {"command": "moduli-dim", "parameters": count,
               "centralizer_dimension": cdim, "dimension": dim}
    _emit(payload, [f"family parameters: {count}",
                    f"centralizer dimension: {cdim}",
                    f"moduli dimension: {dim}"], args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Demo: replays the worked examples as a regression suite.
# ---------------------------------------------------------------------------

def _demo_checks(seed: int) -> List[Tuple[str, bool, str]]:
    checks: List[Tuple[str, bool, str]] = []
    fermat = parse_poly("X^4+Y^4+Z^4+W^4", 4)
    form1 = parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4)
    form2 = parse_poly("X^4+Y^4+Z^4+Z*W^3+W^4", 4)
    s1 = Matrix.diagonal([I, 1, 1, 1])
    s12 = Matrix.diagonal([I, I, 1, 1])

    rep = enumerate_outer_galois_points(fermat)
    coords = {str(p) for p in rep.point_list()}
    ok = (rep.completeness == "proved-complete"
          and coords == {"1:0:0:0", "0:1:0:0", "0:0:1:0", "0:0:0:1"})
    checks.append(("four-pure-powers: four coordinate Galois points",
                   ok, f"{sorted(coords)} ({rep.completeness})"))

    diag_ok = all(
        gen.matrix == Matrix.diagonal(
            [I if k == p.pivot_index() else ONE for k in range(4)])
        for p, gen in rep.points)
    checks.append(("four-pure-powers: generators are the diagonal homologies",
                   diag_ok, "exact match" if diag_ok else "mismatch"))

    t1 = classify(form1, s1)
    checks.append(("split form, one point: type (1, 0, 0, 3)",
                   t1.type_tuple == (1, 0, 0, 3), str(t1.type_tuple)))

    t2 = classify(form2, s12)
    checks.append(("split form, two points: type (10, 4, 8)",
                   t2.type_tuple == (10, 4, 8), str(t2.type_tuple)))

    u1 = symplectic_character(form1, s1)
    u2 = symplectic_character(form2, s12)
    u3 = symplectic_character(fermat, Matrix.diagonal([I, -I, 1, 1]))
    ok = u1 == I and u2 == GaussianRational(-1) and u3 == ONE
    checks.append(("characters: i, -1, 1", ok, f"{u1}, {u2}, {u3}"))

    fl = fixed_locus(form2, s12)
    checks.append(("two-point form: eight isolated fixed points, no curves",
                   fl.isolated_points == 8 and not fl.curves,
                   f"n={fl.isolated_points}, curves={len(fl.curves)}"))

    s2 = Matrix.diagonal([1, I, 1, 1])
    md = moduli_dimension(7, [s1, s2])
    checks.append(("moduli: 7 parameters minus 6-dimensional symmetry = 1",
                   md == 1, str(md)))
    md2 = moduli_dimension(16, [s1])
    checks.append(("moduli: 16 parameters minus 10-dimensional symmetry = 6",
                   md2 == 6, str(md2)))
    checks.append(("moduli: non-purely case l=4 gives dimension 2",
                   npns_moduli_dim(4) == 2, str(npns_moduli_dim(4))))

    g = GramMatrix2.from_entries(8, 0, 8)
    r1, _ = reduce_gram(g)
    r2, _ = reduce_gram(GramMatrix2.from_entries(8, 8, 16))
    checks.append(("lattice: diag(8,8) is its own canonical form",
                   r1 == g, str(r1)))
    checks.append(("lattice: [[8,8],[8,16]] reduces to diag(8,8)",
                   r2 == g, str(r2)))
    checks.append(("lattice: diag(2,32) and diag(8,8) are not equivalent",
                   not is_isomorphic_gram(GramMatrix2.from_entries(2, 0, 32), g),
                   "distinct canonical forms"))

    checks.append(("double-cover ramification: m(1,1)=0 and m(1,0)=4",
                   solve_m(1, 1) == 0 and solve_m(1, 0) == 4,
                   f"{solve_m(1, 1)}, {solve_m(1, 0)}"))

    checks.append(("maximal case constants: Picard 20, Gram [[8,0],[0,8]]",
                   SINGULAR_K3_PICARD_NUMBER == 20
                   and MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM.entries() == (8, 0, 0, 8),
                   f"{SINGULAR_K3_PICARD_NUMBER}, "
                   f"{MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM}"))

    rng = random.Random(seed)
    a = _random_invertible(rng)
    fa = substitute_linear(fermat, a)
    p = ProjPoint(a.inverse().apply([1, 0, 0, 0]))
    cov = is_outer_galois_point(fa, p)
    checks.append(("covariance spot check (seeded): conjugated point stays Galois",
                   cov, f"seed={seed}"))
    return checks


def _random_invertible(rng: random.Random) -> Matrix:
    while True:
        entries = [GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
                   for _ in range(16)]
        m = Matrix(4, 4, entries)
        if not m.det().is_zero():
            return m


def cmd_demo(args: argparse.Namespace) -> int:
    checks = _demo_checks(0 if args.seed is None else args.seed)
    all_ok = all(ok for _n, ok, _d in checks)
    payload = {"command": "demo",
               "checks": [{"name": n, "pass": ok, "detail": d}
                          for n, ok, d in checks],
               "all_pass": all_ok}
    lines = [f"[{'PASS' if ok else 'FAIL'}] {n}  ({d})" for n, ok, d in checks]
    lines.append(f"demo: {'all checks passed' if all_ok else 'FAILURES above'}")
    _emit(payload, lines, args.format)
    return EXIT_OK if all_ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

INTEGER_OPTIONS = ("seed", "count", "l")
# the options that a mode does not read, refused rather than ignored; only
# demo reads the global --seed
UNREAD_OPTIONS = {
    ("galois", "find"): ("point",),
    ("moduli", "dim"): ("l",),
    ("moduli", "npns"): ("count", "monomials", "matrix"),
}
SURFACE_HELP = "quartic in X, Y, Z, W, or @file"


class _Parser(argparse.ArgumentParser):
    """Reads '-' and then a term (-X^4+Y^4+...) as a value, as it reads -1."""

    def _parse_optional(self, arg_string):
        if re.match(r"-[0-9(XYZWi]", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quartic-galois",
        description="Exact toolkit for outer Galois points of smooth quartic "
                    "surfaces and order-4 automorphisms of quartic K3s.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed",
                        help="seed for randomized demo spot checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smooth", help="exact smoothness verdict for a quartic")
    p.add_argument("surface", help=SURFACE_HELP)

    p = sub.add_parser("galois", help="test or enumerate outer Galois points")
    p.add_argument("mode", choices=("test", "find"))
    p.add_argument("surface", help=SURFACE_HELP)
    p.add_argument("--point", help="colon-separated homogeneous coordinates")

    p = sub.add_parser("auto", help="analyze a surface automorphism")
    p.add_argument("mode", choices=("fixed-locus", "classify", "character"))
    p.add_argument("surface", help=SURFACE_HELP)
    p.add_argument("--matrix", required=True,
                   help="16 whitespace-separated Q(i) entries, row-major")

    p = sub.add_parser("lattice", help="reduce or compare even 2x2 Gram matrices")
    p.add_argument("mode", choices=("reduce", "compare"))
    p.add_argument("entries", nargs="+",
                   help="d1 b d2 for reduce; d1 b d2 e1 c e2 for compare")

    p = sub.add_parser("moduli", help="naive moduli dimension counts")
    p.add_argument("mode", choices=("dim", "npns"))
    p.add_argument("--count", help="family monomial count")
    p.add_argument("--monomials", help="whitespace-separated monomials, or @file")
    p.add_argument("--matrix", action="append",
                   help="automorphism matrix (repeatable)")
    p.add_argument("--l", help="rank of the (-1)-eigenspace for npns")

    sub.add_parser("demo", help="replay the worked examples")
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        mode = getattr(args, "mode", None)
        unread = UNREAD_OPTIONS.get((args.command, mode), ())
        if args.command != "demo":
            unread += ("seed",)
        for name in unread:
            if getattr(args, name) is not None:
                where = args.command if mode is None else f"{args.command} {mode}"
                raise ParseError(f"{where} does not take --{name}")
        # argparse's type=int would take non-ASCII digits and '_'
        for name in INTEGER_OPTIONS:
            value = getattr(args, name, None)
            if value is not None:
                setattr(args, name, parse_integer(value, f"--{name}"))
        # looked up at call time, so a replaced cmd_<name> is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
