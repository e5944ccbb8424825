"""Seeded workloads: CLI argument lists, input files and expected answers.

Every expectation comes from the construction, computed with `qi`:
a surface f(A x) built from a normal form f has the moved Galois points
A^-1 p, the conjugated automorphism A^-1 M A keeps the character, type
tuple, isolated-point count and curve genera of M, and a singular point
q of f moves to A^-1 q.  Surfaces and matrices reach the CLI as `@path`,
because argparse rejects an inline argument that begins with `-`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import qi
from qi import I, Q


@dataclass
class Op:
    label: str                 # names the input in per-input rows
    kind: str                  # how the gate reads the output
    argv: List[str]
    expect: Dict
    row: bool = False          # print a per-input row for this op


def _e(k: int) -> Tuple[int, ...]:
    return tuple(int(t == k) for t in range(4))


# name -> (form, its outer Galois points, an off-surface point that is not one)
FAMILIES: Dict[str, Tuple[qi.Poly, List[Tuple[int, ...]], Tuple[int, ...]]] = {
    "fermat": (qi.poly([(1, tuple(4 * x for x in _e(k))) for k in range(4)]),
               [_e(k) for k in range(4)], (1, 1, 0, 0)),
    "form-1": (qi.poly([(1, (4, 0, 0, 0)), (1, (0, 4, 0, 0)), (1, (0, 0, 4, 0)),
                        (1, (0, 0, 0, 4)), (1, (0, 2, 1, 1))]),
               [_e(0)], _e(1)),
    "form-2": (qi.poly([(1, (4, 0, 0, 0)), (1, (0, 4, 0, 0)), (1, (0, 0, 4, 0)),
                        (1, (0, 0, 1, 3)), (1, (0, 0, 0, 4))]),
               [_e(0), _e(1)], _e(2)),
    "x3y": (qi.poly([(1, (3, 1, 0, 0)), (1, (0, 4, 0, 0)), (1, (0, 0, 4, 0)),
                     (1, (0, 0, 0, 4))]),
            [_e(2), _e(3)], _e(1)),
    "xyzw": (qi.poly([(1, (4, 0, 0, 0)), (1, (0, 4, 0, 0)), (1, (0, 0, 4, 0)),
                      (1, (0, 0, 0, 4)), (1, (1, 1, 1, 1))]),
             [], _e(0)),
}

# Order-4 automorphisms diag(...) of the normal forms and their invariants,
# worked out by hand: (character, value, type tuple, fixed-curve genera,
# isolated points n, isolated points of the square).
_PNS = ("purely-ns-4", I, [1, 0, 0, 3], [3], 0, 0)
_NPNS = ("npns", Q(-1), [10, 4, 8], [], 8, 8)
_SYMP = ("symplectic", Q(1), None, [], 4, 8)
AUTOS = [
    ("fermat", (I, 1, 1, 1), _PNS),
    ("fermat", (I, I, 1, 1), _NPNS),
    ("fermat", (I, -I, 1, 1), _SYMP),
    ("form-1", (I, 1, 1, 1), _PNS),
    ("form-1", (1, 1, I, -I), _SYMP),
    ("form-2", (I, I, 1, 1), _NPNS),
    ("form-2", (I, 1, 1, 1), _PNS),
    ("x3y", (1, 1, I, 1), _PNS),
    ("xyzw", (I, -I, 1, 1), _SYMP),
]
AUTO_MODES = ("character", "fixed-locus", "classify")

# singular quartics with a known singular point
SINGULAR = {
    "cone": (qi.poly([(1, (4, 0, 0, 0)), (1, (0, 4, 0, 0)), (1, (0, 0, 4, 0))]),
             (0, 0, 0, 1)),
    "dwork": (qi.poly([(1, (4, 0, 0, 0)), (1, (0, 4, 0, 0)), (1, (0, 0, 4, 0)),
                       (1, (0, 0, 0, 4)), (-4, (1, 1, 1, 1))]),
              (1, 1, 1, 1)),
    "square": (qi.poly([(1, (4, 0, 0, 0)), (2, (2, 2, 0, 0)), (1, (0, 4, 0, 0)),
                        (1, (0, 0, 4, 0)), (1, (0, 0, 0, 4))]),
               (1, I, 0, 0)),
}
SHEAR = qi.mat([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
ZERO_ONE = qi.mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1], [1, 0, 0, 1]])

# diagonal scalings for aligned members; their 4th powers are 1, -4, 16,
# -7-24i and -7+24i, so members differ in their coefficients
_SCALES = [Q(1), Q(-1), I, -I, Q(1, 1), Q(1, -1), Q(2), Q(0, 2), Q(2, 1), Q(1, 2)]


class Corpus:
    """Writes input files into one work directory and collects the ops."""

    def __init__(self, work: Path, rng: random.Random):
        self.work = work
        self.rng = rng
        self.ops: List[Op] = []
        self.files: List[Tuple[str, str]] = []      # (kind, path)
        self.coefficients: List[Tuple] = []          # (re, im) of every surface
        self.seen = set()

    def file(self, kind: str, text: str) -> str:
        path = self.work / f"in{len(self.files):04d}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        self.files.append((kind, str(path)))
        return "@" + str(path)

    def surface(self, f: qi.Poly) -> str:
        self.coefficients.extend((c.re, c.im) for c in f.values())
        return self.file("surface", qi.poly_text(f))

    def add(self, label: str, kind: str, args: Sequence[str], expect: Dict,
            row: bool = False, pre: Sequence[str] = ()) -> None:
        argv = ["--format", "json", *pre, *args]
        self.ops.append(Op(label, kind, argv, expect, row))

    # -- coordinate changes ---------------------------------------------

    def member(self, f: qi.Poly) -> qi.Mat:
        """A permutation-times-diagonal matrix giving a surface not used yet."""
        while True:
            perm = self.rng.sample(range(4), 4)
            d = [self.rng.choice(_SCALES) for _ in range(4)]
            a = qi.mat([[d[j] if perm[i] == j else 0 for j in range(4)]
                        for i in range(4)])
            key = qi.poly_text(qi.pullback(f, a))
            if key not in self.seen:
                self.seen.add(key)
                return a

    def conjugate(self) -> qi.Mat:
        """A seeded random height-1 matrix."""
        return qi.random_matrix(self.rng, 1)

    def twist(self, a: qi.Mat) -> qi.Mat:
        """A times a seeded diagonal of units: a new surface whose
        coefficients have the magnitudes of f(A x), hence about its cost."""
        units = [self.rng.choice((Q(1), Q(-1), I, -I)) for _ in range(4)]
        return qi.mat_mul(a, qi.diag(units))

    # -- operations -----------------------------------------------------

    def smooth(self, label: str, f: qi.Poly, a: qi.Mat, smooth: bool,
               singular_point=None, row: bool = False) -> None:
        g = qi.pullback(f, a)
        if singular_point is not None:
            if not qi.is_singular_at(g, qi.moved(a, singular_point)):
                raise RuntimeError(f"{label}: construction lost its singular point")
        self.add(label, "smooth", ["smooth", self.surface(g)],
                 {"rc": 0 if smooth else 2, "smooth": smooth}, row)

    def refuse(self, label: str, f: qi.Poly, a: qi.Mat, row: bool = False) -> None:
        self.add(label, "refuse", ["galois", "find", self.surface(qi.pullback(f, a))],
                 {"rc": 1}, row)

    def find(self, label: str, family: str, a: qi.Mat, row: bool = False) -> None:
        f, points, _ = FAMILIES[family]
        self.add(label, "find",
                 ["galois", "find", self.surface(qi.pullback(f, a))],
                 {"rc": 0, "points": [qi.point_text(qi.moved(a, p)) for p in points]}, row)

    def test(self, label: str, family: str, a: qi.Mat, galois: bool) -> None:
        f, points, nonpoint = FAMILIES[family]
        p = self.rng.choice(points) if galois else nonpoint
        point = self.file("point", qi.point_text(qi.moved(a, p)))
        self.add(label, "test",
                 ["galois", "test", self.surface(qi.pullback(f, a)), "--point", point],
                 {"rc": 0 if galois else 2, "galois": galois})

    def auto(self, label: str, mode: str, index: int, a: qi.Mat) -> None:
        family, values, inv = AUTOS[index]
        f = FAMILIES[family][0]
        m = qi.mat_mul(qi.mat_mul(qi.inverse(a), qi.diag(values)), a)
        char, value, ttype, genera, n, sq_n = inv
        self.add(label, mode,
                 ["auto", mode, self.surface(qi.pullback(f, a)),
                  "--matrix", self.file("matrix", qi.mat_text(m))],
                 {"rc": 0, "character": char, "value": str(value),
                  "type": ttype, "genera": genera, "n": n, "square_n": sq_n})


# -- lattice and moduli expectations ----------------------------------------

def _gram(a: int, b: int, c: int):
    return [[2 * a, b], [b, 2 * c]]


def congruent(g, u):
    """U^T G U for 2x2 integer matrices."""
    gu = [[sum(g[i][k] * u[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return [[sum(u[k][i] * gu[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _random_reduced(rng: random.Random) -> Tuple[int, int, int]:
    """A reduced form: -a < b <= a <= c, b >= 0 when |b| == a or a == c."""
    while True:
        a = rng.randint(1, 6)
        c = rng.randint(a, a + 6)
        b = rng.randint(-a + 1, a)
        if b >= 0 or (abs(b) != a and a != c):
            return a, b, c


def _random_sl2(rng: random.Random):
    steps = ([[1, 1], [0, 1]], [[1, -1], [0, 1]], [[0, -1], [1, 0]])
    u = [[1, 0], [0, 1]]
    for _ in range(rng.randint(2, 6)):
        s = rng.choice(steps)
        u = [[sum(u[i][k] * s[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return u


def _gram_args(g) -> List[str]:
    return [str(g[0][0]), str(g[0][1]), str(g[1][1])]


def _lattice_ops(b: Corpus, count: int) -> None:
    rng = b.rng
    for k in range(count):
        r = _random_reduced(rng)
        g = congruent(_gram(*r), _random_sl2(rng))
        b.add(f"lattice reduce {k}", "lattice-reduce", ["lattice", "reduce", *_gram_args(g)],
              {"rc": 0, "input": g, "reduced": _gram(*r)})
        iso = k % 2 == 0
        r2 = r
        while not iso and r2 == r:
            r2 = _random_reduced(rng)
        g2 = congruent(_gram(*r2), _random_sl2(rng))
        b.add(f"lattice compare {k}", "lattice-compare",
              ["lattice", "compare", *_gram_args(g), *_gram_args(g2)],
              {"rc": 0 if iso else 2, "isomorphic": iso})


_MODULI_DIAGS = [(I, 1, 1, 1), (1, I, 1, 1), (1, 1, I, 1), (1, 1, 1, I),
                 (I, I, 1, 1), (I, -I, 1, 1), (1, 1, -1, 1)]


def _moduli_ops(b: Corpus, count: int) -> None:
    rng = b.rng
    for k in range(count):
        diags = rng.sample(_MODULI_DIAGS, rng.randint(1, 2))
        # the centralizer of commuting diagonal matrices is block diagonal
        # over the coordinates sharing one tuple of eigenvalues
        groups: Dict[Tuple, int] = {}
        for j in range(4):
            key = tuple(qi.lift(d[j]) for d in diags)
            groups[key] = groups.get(key, 0) + 1
        cdim = sum(s * s for s in groups.values())
        count_ = cdim + rng.randint(0, 10)
        mats = []
        for d in diags:
            mats += ["--matrix", b.file("matrix", qi.mat_text(qi.diag(d)))]
        b.add(f"moduli dim {k}", "moduli-dim",
              ["moduli", "dim", "--count", str(count_), *mats],
              {"rc": 0, "dimension": count_ - cdim, "centralizer": cdim})
        l = rng.randint(2, 10)
        b.add(f"moduli npns {k}", "moduli-npns", ["moduli", "npns", "--l", str(l)],
              {"rc": 0, "dimension": l - 2})


# -- the three workloads ----------------------------------------------------

def cli_session(b: Corpus, smoke: bool) -> None:
    """Short commands on distinct aligned members; auto ops also conjugated.

    The mix puts the median call inside the wide 28-40 ms band of aligned
    `auto fixed-locus|classify` calls: at the edge between two bands of
    call kinds, a median jumps between them from run to run."""
    rounds = 1 if smoke else 4
    for r in range(rounds):
        for family, (f, points, _) in FAMILIES.items():
            b.smooth(f"smooth {family}", f, b.member(f), True)
            galois = bool(points) and r % 2 == 0
            b.test(f"test {family} {'galois' if galois else 'not-galois'}",
                   family, b.member(f), galois)
            b.find(f"find {family}", family, b.member(f))
        for index, (family, _, _) in enumerate(AUTOS):
            f = FAMILIES[family][0]
            for mode in AUTO_MODES:
                b.auto(f"auto {mode} {family}", mode, index, b.member(f))
    conj = AUTOS[:1] if smoke else AUTOS
    for index, (family, _, _) in enumerate(conj):
        for mode in AUTO_MODES:
            b.auto(f"auto {mode} {family} conjugated", mode, index, b.conjugate())
    _lattice_ops(b, 1 if smoke else 4)
    _moduli_ops(b, 1 if smoke else 2)
    for k in range(1 if smoke else 2):
        b.add("demo", "demo", ["demo"], {"rc": 0}, pre=["--seed", str(b.rng.randint(0, 10 ** 6))])


def find_generic(b: Corpus, smoke: bool) -> None:
    """`galois find` in generic coordinates.  Conj(1) and Conj(3) of Fermat
    are ROADMAP's fixed construction (Random(7)).  The other families use
    one fixed height-1 matrix each, twisted twice by the seed: the cost of
    a search varies by a factor of 2-3 between random height-1 matrices,
    and a pass holds too few searches to average that out.  The median
    call is then one of two twisted form-1 searches."""
    if not smoke:
        for height in (1, 3):
            a = qi.random_matrix(random.Random(7), height)
            b.find(f"conj{height}-fermat", "fermat", a, row=True)
    for family in (("form-1",) if smoke else ("form-1", "form-2", "x3y", "xyzw")):
        a = qi.random_matrix(random.Random(f"h1-{family}"), 1)
        for k in range(1 if smoke else 2):
            b.find(f"h1-{family} twist {k}", family, b.twist(a), row=True)


def smooth_singular(b: Corpus, smoke: bool) -> None:
    """Smooth conjugates (modular certificate) against singular surfaces
    (exact fallback), plus `galois find` refusals on the singular ones."""
    ident = qi.identity()
    fixed = [("cone", "aligned", ident), ("dwork", "aligned", ident),
             ("square", "aligned", ident), ("cone", "shear", SHEAR),
             ("square", "shear", SHEAR), ("cone", "zero-one", ZERO_ONE)]
    if smoke:
        fixed = [("dwork", "aligned", ident), ("cone", "shear", SHEAR)]
    cases = list(fixed)
    if not smoke:
        for name in ("dwork", "square"):
            cases.append((name, "member", b.member(SINGULAR[name][0])))
    for name, coords, a in cases:
        f, q = SINGULAR[name]
        b.smooth(f"smooth {name} {coords}", f, a, False, singular_point=q, row=True)
        b.refuse(f"refuse {name} {coords}", f, a, row=True)
    families = ["fermat"] if smoke else list(FAMILIES)
    for family in families:
        for _ in range(1 if smoke else 2):
            b.smooth(f"smooth {family} h1", FAMILIES[family][0], b.conjugate(), True, row=True)
    for family in families:
        b.find(f"find {family} aligned", family, b.member(FAMILIES[family][0]), row=True)


WORKLOADS = {
    "cli-session": cli_session,
    "find-generic": find_generic,
    "smooth-singular": smooth_singular,
}


def build(workload: str, seed: int, work: Path, smoke: bool = False) -> Corpus:
    """Generate the workload's inputs under `work` and write its manifest."""
    work.mkdir(parents=True, exist_ok=True)
    b = Corpus(work, random.Random(f"{workload}:{seed}"))
    WORKLOADS[workload](b, smoke)
    # interleave the call kinds, so that a slow stretch of the machine hits
    # a few calls of every kind rather than all calls of one kind
    b.rng.shuffle(b.ops)
    manifest = {"workload": workload, "seed": seed, "files": b.files,
                "ops": [{"label": o.label, "argv": o.argv} for o in b.ops]}
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return b


def plant_wrong(ops: List[Op]) -> Optional[Op]:
    """Corrupt one expectation, to show that the gate notices."""
    for op in ops:
        if op.kind == "find" and op.expect["points"]:
            op.expect["points"] = ["1:2:3:4"] + op.expect["points"][1:]
            return op
    return None
