"""Exact linear algebra over Q(i).

Determinant, inverse, rank and kernel all come from one exact sparse
elimination, _eliminate (with sparse_rref on top where a reduced form is
needed).  It takes the rows in their given order and each row's leading
column as its pivot, so every reported basis is reproducible across
runs and platforms.  Products run over Z[i] integers: each factor is
cleared of denominators once, and each entry of the product is divided
once.

The modular side is row reduction of numpy matrices modulo a prime
p < 2**31, whatever the prime, with numpy loaded at the first modular
step (univariate.np): the solver alone chooses the certificate
primes and walks them, and builds its Macaulay matrices on these
kernels.  One forward elimination gives a rank and an echelon form; a
caller that needs the reduced form reads only the columns it uses, by
back-substitution on the echelon rows.  Integer arithmetic only; no
floats.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import ParseError
from .gaussian import MINUS_ONE, ZERO, ONE, GaussianRational, parse_literals
from .univariate import _common_denominator, np

Vector = Tuple[GaussianRational, ...]
SparseRow = Dict[int, GaussianRational]


class Matrix:
    """An exact rows x cols matrix over Q(i), row-major, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[GaussianRational]):
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(GaussianRational.coerce(e) for e in entries)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: List[GaussianRational] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(GaussianRational.coerce(x) for x in row)
        return Matrix(r, c, flat)

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        c = len(cols)
        r = len(cols[0]) if c else 0
        flat = [GaussianRational.coerce(cols[j][i]) for i in range(r) for j in range(c)]
        return Matrix(r, c, flat)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [ONE if i == j else ZERO
                             for i in range(n) for j in range(n)])

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        n = len(values)
        vals = [GaussianRational.coerce(v) for v in values]
        return Matrix(n, n, [vals[i] if i == j else ZERO
                             for i in range(n) for j in range(n)])

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij: Tuple[int, int]) -> GaussianRational:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    # -- algebra ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def _shape_check(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def scale(self, c) -> "Matrix":
        c = GaussianRational.coerce(c)
        return Matrix(self.rows, self.cols, [c * e for e in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product, over Z[i]: with d_A, d_B the common denominators
        of the factors, AB = (d_A A)(d_B B) / (d_A d_B), so the dot
        products run on Gaussian integers and each entry is divided once.
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        da, a = _common_denominator(self.entries)
        db, b = _common_denominator(other.entries)
        den = da * db
        n, m = self.cols, other.cols
        columns = [b[j::m] for j in range(m)]
        out = []
        for i in range(self.rows):
            row = [(k, x, y) for k, (x, y) in enumerate(a[i * n:(i + 1) * n])
                   if x or y]
            for col in columns:
                re = im = 0
                for k, x, y in row:
                    u, v = col[k]
                    re += x * u - y * v
                    im += x * v + y * u
                out.append(GaussianRational(re, im, den))
        return Matrix(self.rows, m, out)

    def apply(self, v: Sequence) -> Vector:
        return (self * Matrix(self.cols, 1, v)).entries

    def __pow__(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if n < 0:
            raise ValueError("negative matrix power")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Matrix.identity(self.rows) if result is None else result

    def det(self) -> GaussianRational:
        """_eliminate reduces each row only by the rows before it, which
        keeps the determinant: it is the product of the leading
        coefficients of the pivot rows times the sign of the order of the
        pivot columns."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        pivots = _eliminate(self._sparse_rows())
        if len(pivots) < self.rows:
            return ZERO
        order = list(pivots)
        swaps = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
        det = MINUS_ONE if swaps % 2 else ONE
        for c, row in pivots.items():
            det = det * row[c]
        return det

    def inverse(self) -> "Matrix":
        """The right half of the reduced form of [M | I]; M is singular
        exactly when one of its own columns gets no pivot."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        rows = self._sparse_rows()
        for i, row in enumerate(rows):
            row[n + i] = ONE
        rref = sparse_rref(rows)
        if any(j not in rref for j in range(n)):
            raise ValueError("matrix is singular")
        return Matrix(n, n, [rref[i].get(n + j, ZERO)
                             for i in range(n) for j in range(n)])

    def is_identity(self) -> bool:
        return self.is_scalar() and all(e == ONE for e in self.entries[::self.cols + 1])

    def is_scalar(self) -> bool:
        if self.rows != self.cols:
            return False
        step = self.cols + 1
        diagonal = self.entries[::step]
        return (all(e == diagonal[0] for e in diagonal)
                and all(e.is_zero() for k, e in enumerate(self.entries) if k % step))

    def rank(self) -> int:
        return sparse_rank(self._sparse_rows())

    def kernel_basis(self) -> List[Vector]:
        return kernel_basis_sparse(self._sparse_rows(), self.cols)

    def _sparse_rows(self) -> List[SparseRow]:
        out = []
        for i in range(self.rows):
            row = {j: v for j, v in enumerate(self.row(i)) if not v.is_zero()}
            out.append(row)
        return out

    def __str__(self) -> str:
        return "\n".join("  ".join(str(x) for x in self.row(i))
                         for i in range(self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def parse_matrix(text: str) -> Matrix:
    """Parse 16 whitespace-separated Q(i) entries of a 4x4 matrix,
    row-major.  A wrong count is a ParseError at the 17th entry, or at
    the end of text when there are fewer than 16."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    if len(spans) != 16:
        raise ParseError(f"expected 16 matrix entries, got {len(spans)}",
                         spans[16][0] if len(spans) > 16 else len(text))
    return Matrix(4, 4, parse_literals(text, spans, "matrix entry"))


# ---------------------------------------------------------------------------
# Sparse exact elimination (deterministic).
# ---------------------------------------------------------------------------

def _eliminate(rows: Iterable[SparseRow]) -> Dict[int, SparseRow]:
    """Forward-eliminate rows in order; returns {pivot column: row}, in
    the order of the rows.

    Each surviving row is reduced against all earlier pivots, which keep
    their leading coefficients: each reduction step divides only its one
    factor by the pivot's leading coefficient.  The result only depends
    on the input order, never on timing or hashing.
    """
    pivots: Dict[int, SparseRow] = {}
    for row in rows:
        work = dict(row)
        while work:
            lead = min(work)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = work
                break
            factor = work[lead] / piv[lead]
            for c, v in piv.items():
                nv = work.get(c, ZERO) - factor * v
                if nv.is_zero():
                    work.pop(c, None)
                else:
                    work[c] = nv
        # fully reduced to zero: contributes nothing
    return pivots


def sparse_rank(rows: List[SparseRow]) -> int:
    return len(_eliminate(rows))


def prove_full_column_rank(rows: List[SparseRow], ncols: int) -> bool:
    """Whether the sparse row system has rank == ncols, by exact
    elimination."""
    return len(rows) >= ncols and sparse_rank(rows) == ncols


def sparse_rref(rows: List[SparseRow]) -> Dict[int, SparseRow]:
    """Fully reduced row echelon form, keyed by pivot column."""
    pivots = _eliminate(rows)
    for lead, row in pivots.items():
        coeff = row[lead]
        if coeff != ONE:
            pivots[lead] = {c: v / coeff for c, v in row.items()}
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other_lead, other in pivots.items():
            if other_lead >= lead:
                continue
            factor = other.get(lead)
            if factor is None:
                continue
            for c, v in row.items():
                nv = other.get(c, ZERO) - factor * v
                if nv.is_zero():
                    other.pop(c, None)
                else:
                    other[c] = nv
    return pivots


def kernel_basis_sparse(rows: List[SparseRow], ncols: int) -> List[Vector]:
    """Exact basis of the right kernel; empty iff rank == ncols."""
    rref = sparse_rref(rows)
    pivot_cols = sorted(rref)
    free_cols = [c for c in range(ncols) if c not in rref]
    basis: List[Vector] = []
    for f in free_cols:
        v = [ZERO] * ncols
        v[f] = ONE
        for p in pivot_cols:
            coeff = rref[p].get(f)
            if coeff is not None:
                v[p] = -coeff
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Row reduction modulo a prime p < 2**31.
# ---------------------------------------------------------------------------

def _echelon_mod_p(a: np.ndarray, p: int) -> List[int]:
    """Row-reduce a in place modulo p and return its pivot columns.

    Pivots are scaled to 1 and cleared below, so the first rows of a are
    one echelon row per pivot.  A zero column stays zero, so only the
    others are eliminated.  Entries must lie in [0, p) with p < 2**31,
    so int64 products cannot overflow.
    """
    live = np.flatnonzero(a.any(axis=0))
    if len(live) < a.shape[1]:
        b = a[:, live]
        pivots = _echelon_mod_p(b, p)
        a[:, live] = b
        return live[pivots].tolist()
    pivots: List[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == a.shape[0]:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = (a[r, c:] * inv) % p
        rows = np.nonzero(a[r + 1:, c])[0] + r + 1
        if rows.size:
            factors = a[rows, c][:, None]
            a[rows, c:] = (a[rows, c:] - factors * a[r, c:][None, :]) % p
        pivots.append(c)
    return pivots


def _back_substitute(e: np.ndarray, pivots: Sequence[int], cols: Sequence[int],
                     p: int) -> np.ndarray:
    """The columns cols of the reduced row echelon form of a matrix mod p,
    read from its echelon rows e: row r of e leads at pivots[r], which
    increase.  With e_P the square block of e on its pivot columns, the
    reduced form is e_P^-1 e, found by clearing each pivot above itself
    from the last one up; only the columns cols are carried.  Entries
    must lie in [0, p) with p < 2**31."""
    out = e[:, cols]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        lead = int(e[r, c])
        if lead != 1:
            out[r] = out[r] * pow(lead, p - 2, p) % p
        hit = np.flatnonzero(e[:r, c])
        if hit.size:
            out[hit] = (out[hit] - e[hit, c][:, None] * out[r]) % p
    return out


class Echelon:
    """A row echelon form mod p of a matrix a, as _pivots_mod_p finds it:
    pivots lists its pivot columns in increasing order, and rows() builds
    one row per pivot, led by it.  A rank needs no rows, so none are
    built until rows() is called; they are read from a, which must not
    change until then."""

    __slots__ = ("pivots", "ncols", "_a", "_direct", "_leads", "_rest")

    def __init__(self, pivots: List[int], a: np.ndarray, direct: np.ndarray,
                 leads: np.ndarray, rest: np.ndarray):
        self.pivots = pivots
        self.ncols = a.shape[1]
        self._a, self._direct, self._leads, self._rest = a, direct, leads, rest

    def rows(self) -> np.ndarray:
        """Row r leads at pivots[r]: the first row of a with that leading
        column, or else a leftover row of the elimination."""
        out = np.empty((len(self.pivots), self.ncols), dtype=np.int64)
        at = np.searchsorted(self.pivots, self._leads)
        out[at] = self._a[self._direct]
        left = np.ones(len(out), dtype=bool)
        left[at] = False
        out[left] = self._rest
        return out

    def reduced(self, cols: Sequence[int], p: int) -> np.ndarray:
        """The columns cols of the reduced row echelon form of a."""
        return _back_substitute(self.rows(), self.pivots, cols, p)


def _pivots_mod_p(a: np.ndarray, p: int) -> Echelon:
    """A row echelon form of a modulo p, with the pivot columns of
    _echelon_mod_p(a, p); a is left unchanged.

    The first row with each leading column is kept as the pivot row of
    that column: together these rows are already in echelon form.  Only
    the other rows are reduced, against the known pivot row of each
    column in increasing order, with no search and no swap, skipping a
    column where no leftover row can be nonzero: the support of the
    leftover rows, and of each pivot row used, is kept as a mask.
    Afterwards they vanish at every such column, so _echelon_mod_p on
    what remains of them gives the other pivot columns and their rows.
    Entries must lie in [0, p) with p < 2**31.
    """
    nonzero = a != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols, first = np.unique(nonzero[rows].argmax(axis=1), return_index=True)
    rest = a[np.delete(rows, first)]
    if len(rest):
        support = (rest != 0).any(axis=0)
        for c, i in zip(cols.tolist(), rows[first].tolist()):
            if not support[c]:
                continue
            hit = np.flatnonzero(rest[:, c])
            if hit.size:
                f = rest[hit, c] * pow(int(a[i, c]), p - 2, p) % p
                rest[hit, c:] = (rest[hit, c:] - f[:, None] * a[i, c:]) % p
                support[c:] |= nonzero[i, c:]
    more = _echelon_mod_p(rest, p)
    return Echelon(sorted(cols.tolist() + more), a, rows[first], cols,
                   rest[:len(more)])


# ---------------------------------------------------------------------------
# Commutation systems.
# ---------------------------------------------------------------------------

def centralizer_dimension(mats: Sequence[Matrix]) -> int:
    """dim over C of {B in gl_4 : B*M = M*B for every M}.

    Computed as the kernel dimension of the stacked linear commutation
    system on the 16 entries of B.  The empty list yields 16 (all of
    gl_4).
    """
    n = 4
    for m in mats:
        if m.rows != n or m.cols != n:
            raise ValueError("centralizer expects 4x4 matrices")
        if m.det().is_zero():
            raise ValueError("centralizer expects invertible matrices")
    if not mats:
        return n * n
    rows: List[SparseRow] = []
    for m in mats:
        for i in range(n):
            for j in range(n):
                row: SparseRow = {}
                # (B*M - M*B)[i, j] = sum_k B[i,k] M[k,j] - M[i,k] B[k,j]
                for k in range(n):
                    c1 = m[k, j]
                    if not c1.is_zero():
                        idx = i * n + k
                        row[idx] = row.get(idx, ZERO) + c1
                    c2 = m[i, k]
                    if not c2.is_zero():
                        idx = k * n + j
                        row[idx] = row.get(idx, ZERO) - c2
                row = {c: v for c, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)
    return n * n - sparse_rank(rows)
