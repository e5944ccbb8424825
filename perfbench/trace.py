"""Per-layer measurement for the traced run (`--trace 1`).

A layer is a module of `quartic_galois`.  `Tracer` puts a span around each
function listed in LAYERS, in every module namespace that holds it
(`from .x import y` re-binds many of them), and around four `Matrix`
methods on the class.  A span's self time is its duration minus the time
of the spans it encloses, so the self times of all spans add up to the
time spent inside `cli.main`.  Small helpers (`HomPoly` methods,
`univariate.add`, ...) get no span: their time counts as self time of the
listed function that calls them.

`OpCounter` counts `GaussianRational` arithmetic in a pass of its own, so
the per-call counter does not inflate the spans, and `microbench` times
that arithmetic on the corpus's own coefficients.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli": ("main", "build_parser", "cmd_smooth", "cmd_galois", "cmd_auto",
            "cmd_lattice", "cmd_moduli", "cmd_demo"),
    "poly": ("parse_poly", "parse_point", "substitute_linear", "partials",
             "polar_forms", "x_decompose", "squarefree_profile"),
    "geometry": ("is_smooth_surface", "is_smooth_plane_quartic",
                 "macaulay_rows", "section", "eigen_decompose_order4"),
    "linalg": ("parse_matrix", "prove_full_column_rank", "sparse_rank",
               "sparse_rref", "kernel_basis_sparse", "centralizer_dimension"),
    "solver": ("cube_locus_quadrics", "solve_projective", "resultant"),
    "univariate": ("gcd", "squarefree_decomposition", "gaussian_roots"),
    "galois": ("linear_auto", "enumerate_outer_galois_points",
               "recognize_normal_form", "is_outer_galois_point",
               "galois_generator", "adapted_basis"),
    "k3": ("symplectic_character", "fixed_locus", "classify",
           "serialize_classification", "reduce_gram", "is_isomorphic_gram",
           "moduli_dimension", "npns_moduli_dim"),
}
MATRIX_METHODS = ("det", "inverse", "kernel_basis", "__mul__")

FULL_RANK = "linalg.prove_full_column_rank"
SPARSE_RANK = "linalg.sparse_rank"


def package_modules() -> List[object]:
    return [m for name, m in list(sys.modules.items())
            if name == "quartic_galois" or name.startswith("quartic_galois.")]


class _Span:
    __slots__ = ("name", "child", "exact")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0
        self.exact = False


class Tracer:
    """Spans with self time and counts; installed only for the traced pass."""

    def __init__(self) -> None:
        self.stack: List[_Span] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.exact_calls = 0
        self.exact_s = 0.0
        self.modular_hits = 0
        self.fully_split = 0
        self.quadrics = 0
        self.resultant_max_degree = 0
        self._restore: List[Tuple[object, str, object]] = []

    def _observe(self, span: _Span, parent: Optional[_Span], dt: float, result) -> None:
        name = span.name
        if name == SPARSE_RANK and parent is not None and parent.name == FULL_RANK:
            self.exact_calls += 1
            self.exact_s += dt
            parent.exact = True
        elif name == FULL_RANK and result is True and not span.exact:
            self.modular_hits += 1
        elif name == "univariate.gaussian_roots" and result[1]:
            self.fully_split += 1
        elif name == "solver.cube_locus_quadrics":
            self.quadrics += len(result)
        elif name == "solver.resultant":
            self.resultant_max_degree = max(self.resultant_max_degree,
                                            result.total_degree())

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self.stack

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            me = _Span(name)
            stack.append(me)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - me.child
                if parent is not None:
                    parent.child += dt
            self._observe(me, parent, dt, result)
            return result

        return span

    def install(self) -> None:
        modules = package_modules()
        for layer, names in LAYERS.items():
            home = sys.modules[f"quartic_galois.{layer}"]
            for name in names:
                orig = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, orig))
        matrix = sys.modules["quartic_galois.linalg"].Matrix
        for meth in MATRIX_METHODS:
            orig = matrix.__dict__[meth]
            setattr(matrix, meth, self._wrap(f"linalg.Matrix.{meth}", orig))
            self._restore.append((matrix, meth, orig))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)

    def ms(self, *names: str) -> float:
        return 1e3 * sum(self.self_s[n] for n in names)

    def layer_ms(self, layer: str) -> float:
        return 1e3 * sum(v for n, v in self.self_s.items() if n.startswith(layer + "."))


class OpCounter:
    """Counts GaussianRational multiplications, additions (with
    subtractions) and divisions."""

    GROUPS = {"mul": ("__mul__", "__rmul__"),
              "add": ("__add__", "__radd__", "__sub__", "__rsub__"),
              "div": ("__truediv__", "__rtruediv__")}

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._restore: List[Tuple[str, object]] = []

    def install(self) -> None:
        cls = sys.modules["quartic_galois.gaussian"].GaussianRational
        counts = self.counts
        for group, names in self.GROUPS.items():
            for name in names:
                orig = cls.__dict__[name]

                def counted(a, b, _orig=orig, _group=group):
                    counts[_group] += 1
                    return _orig(a, b)

                setattr(cls, name, counted)
                self._restore.append((name, orig))

    def uninstall(self) -> None:
        cls = sys.modules["quartic_galois.gaussian"].GaussianRational
        while self._restore:
            name, orig = self._restore.pop()
            setattr(cls, name, orig)


def _loop_none(pairs):
    for a, b in pairs:
        pass


def _loop_mul(pairs):
    for a, b in pairs:
        a * b


def _loop_add(pairs):
    for a, b in pairs:
        a + b


def _loop_div(pairs):
    for a, b in pairs:
        a / b


def microbench(coefficients: Sequence[Tuple], n: int = 20000, repeats: int = 7
               ) -> Dict[str, float]:
    """Nanoseconds per GaussianRational mul, add and div on pairs drawn
    from the corpus coefficients ((re, im) Fractions), loop cost removed."""
    gr = sys.modules["quartic_galois.gaussian"].GaussianRational
    values = [gr(re, im) for re, im in coefficients if re or im]
    m = len(values)
    pairs = [(values[k % m], values[(7 * k + 3) % m]) for k in range(n)]

    def median_s(loop) -> float:
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            loop(pairs)
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    base = median_s(_loop_none)
    return {name: 1e9 * (median_s(loop) - base) / n
            for name, loop in (("mul", _loop_mul), ("add", _loop_add), ("div", _loop_div))}
