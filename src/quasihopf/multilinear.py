"""Sparse exact tensors on H^(x)k, functionals, linear operators and an
exact nullspace solver.

Tensor entries map k-tuples of basis indices to nonzero scalars; the empty
table is the zero tensor.  Multi-indices are ordered big-endian in leg order,
so serialized entry lists are portable between implementations.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .exactnum import ONE, Scalar, ZERO


class DimMismatch(ValueError):
    pass


class RankMismatch(ValueError):
    pass


class LegOutOfRange(IndexError):
    pass


class SingularOperator(ArithmeticError):
    pass


# Structure constants of a multiplication: (i, j) -> ((k, scalar), ...) giving
# e_i * e_j = sum_k scalar * e_k.  Absent keys mean the product is zero.
MultTable = dict[tuple[int, int], tuple[tuple[int, Scalar], ...]]


class TensorElement:
    """An element of H^(x)rank over a dim-dimensional H, stored sparsely."""

    __slots__ = ("rank", "dim", "entries")

    def __init__(self, rank: int, dim: int,
                 entries: dict[tuple[int, ...], Scalar] | None = None,
                 _trust: bool = False):
        self.rank = rank
        self.dim = dim
        if entries is None:
            self.entries = {}
        elif _trust:
            self.entries = entries
        else:
            clean: dict[tuple[int, ...], Scalar] = {}
            for key, value in entries.items():
                key = tuple(key)
                if len(key) != rank:
                    raise RankMismatch(f"index {key} has length {len(key)}, expected {rank}")
                if any(i < 0 or i >= dim for i in key):
                    raise DimMismatch(f"index {key} out of range for dim {dim}")
                if not value.is_zero():
                    clean[key] = value
            self.entries = clean

    @classmethod
    def zero(cls, rank: int, dim: int) -> "TensorElement":
        return cls(rank, dim, {}, _trust=True)

    @classmethod
    def basis(cls, dim: int, *indices: int) -> "TensorElement":
        return cls(len(indices), dim, {tuple(indices): ONE})

    @classmethod
    def vector(cls, coords: Sequence[Scalar]) -> "TensorElement":
        dim = len(coords)
        return cls(1, dim, {(i,): c for i, c in enumerate(coords) if not c.is_zero()}, _trust=True)

    def coeff(self, *indices: int) -> Scalar:
        return self.entries.get(tuple(indices), ZERO)

    def coords(self) -> list[Scalar]:
        if self.rank != 1:
            raise RankMismatch("coords() requires a rank-1 tensor")
        return [self.entries.get((i,), ZERO) for i in range(self.dim)]

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.rank == other.rank and self.dim == other.dim
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rank, self.dim, frozenset(self.entries.items())))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_like(other)
        out = dict(self.entries)
        for key, value in other.entries.items():
            acc = out.get(key)
            total = value if acc is None else acc + value
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
        return TensorElement(self.rank, self.dim, out, _trust=True)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.rank, self.dim,
                             {k: -v for k, v in self.entries.items()}, _trust=True)

    def scale(self, s: Scalar) -> "TensorElement":
        if s.is_zero():
            return TensorElement.zero(self.rank, self.dim)
        return TensorElement(self.rank, self.dim,
                             {k: v * s for k, v in self.entries.items()}, _trust=True)

    def _check_like(self, other: "TensorElement") -> None:
        if self.dim != other.dim:
            raise DimMismatch(f"dim {self.dim} != {other.dim}")
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} != {other.rank}")

    def sorted_items(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.entries.items())

    def __repr__(self) -> str:
        body = ", ".join(f"{key}: {value}" for key, value in self.sorted_items())
        return f"TensorElement(rank={self.rank}, dim={self.dim}, {{{body}}})"


class Functional:
    """An exact covector on H: its value on every basis vector."""

    __slots__ = ("dim", "coords")

    def __init__(self, coords: Sequence[Scalar]):
        self.coords = tuple(coords)
        self.dim = len(self.coords)

    @classmethod
    def dual_basis(cls, dim: int, index: int) -> "Functional":
        return cls([ONE if i == index else ZERO for i in range(dim)])

    @classmethod
    def zero(cls, dim: int) -> "Functional":
        return cls([ZERO] * dim)

    def __call__(self, t: TensorElement) -> Scalar:
        if t.rank != 1:
            raise RankMismatch("a functional evaluates rank-1 tensors")
        if t.dim != self.dim:
            raise DimMismatch(f"dim {t.dim} != {self.dim}")
        acc = ZERO
        for (i,), value in t.entries.items():
            acc = acc + self.coords[i] * value
        return acc

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def scale(self, s: Scalar) -> "Functional":
        return Functional([c * s for c in self.coords])

    def __add__(self, other: "Functional") -> "Functional":
        if self.dim != other.dim:
            raise DimMismatch(f"dim {self.dim} != {other.dim}")
        return Functional([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Functional") -> "Functional":
        if self.dim != other.dim:
            raise DimMismatch(f"dim {self.dim} != {other.dim}")
        return Functional([a - b for a, b in zip(self.coords, other.coords)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Functional):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Functional([{', '.join(str(c) for c in self.coords)}])"


class LinearOperator:
    """A linear map H^(x)src_rank -> H^(x)dst_rank given by its columns.

    Only src_rank = 1 is needed anywhere; columns[i] is the image of e_i.
    """

    __slots__ = ("src_rank", "dst_rank", "dim", "columns")

    def __init__(self, dim: int, columns: Sequence[TensorElement], dst_rank: int | None = None):
        self.src_rank = 1
        self.dim = dim
        self.columns = tuple(columns)
        if len(self.columns) != dim:
            raise DimMismatch(f"need {dim} columns, got {len(self.columns)}")
        ranks = {c.rank for c in self.columns} or {dst_rank or 1}
        if len(ranks) != 1:
            raise RankMismatch("columns have mixed ranks")
        self.dst_rank = dst_rank if dst_rank is not None else ranks.pop()
        for c in self.columns:
            if c.dim != dim or c.rank != self.dst_rank:
                raise DimMismatch("column shape mismatch")

    @classmethod
    def identity(cls, dim: int) -> "LinearOperator":
        return cls(dim, [TensorElement.basis(dim, i) for i in range(dim)])

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[Scalar]]) -> "LinearOperator":
        dim = len(rows)
        cols = []
        for j in range(dim):
            cols.append(TensorElement(1, dim, {(i,): rows[i][j] for i in range(dim)
                                               if not rows[i][j].is_zero()}, _trust=True))
        return cls(dim, cols)

    def matrix(self) -> list[list[Scalar]]:
        return [[self.columns[j].coeff(i) for j in range(self.dim)] for i in range(self.dim)]

    def apply(self, t: TensorElement) -> TensorElement:
        if t.rank != 1:
            raise RankMismatch("apply() expects a rank-1 tensor; use apply_on_leg")
        return TensorElement(self.dst_rank, self.dim,
                             _map_leg(t.entries, self.column_entries(), 0), _trust=True)

    def column_entries(self) -> list[dict[tuple[int, ...], Scalar]]:
        return [c.entries for c in self.columns]

    def compose(self, inner: "LinearOperator") -> "LinearOperator":
        """self o inner, defined when inner has dst_rank 1."""
        if inner.dst_rank != 1 or inner.dim != self.dim:
            raise RankMismatch("composition needs rank-1 intermediate values")
        return LinearOperator(self.dim, [self.apply(c) for c in inner.columns],
                              dst_rank=self.dst_rank)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearOperator):
            return NotImplemented
        return self.dim == other.dim and self.columns == other.columns

    def __repr__(self) -> str:
        return f"LinearOperator(dim={self.dim}, dst_rank={self.dst_rank})"


# -- sparse kernels -------------------------------------------------------------
#
# The only loops over sparse entries.  They work on raw entry tables, add
# term by term and drop a key as soon as its total cancels, so every
# intermediate stays as small as the index structure allows.  The public
# functions below and the expression evaluator (``expr``) call them.

Entries = dict[tuple[int, ...], Scalar]


def _outer(a: Entries, b: Entries) -> Entries:
    """Outer product: the legs of ``b`` follow the legs of ``a``."""
    return {ka + kb: va * vb for ka, va in a.items() for kb, vb in b.items()}


def _merge(entries: Entries, mult: MultTable, pa: int, pb: int) -> Entries:
    """Multiply leg ``pa`` by leg ``pb`` (in that order) through ``mult``;
    both legs are removed and the product becomes the last leg."""
    lo, hi = (pa, pb) if pa < pb else (pb, pa)
    get = mult.get
    out: Entries = {}
    for key, value in entries.items():
        expansion = get((key[pa], key[pb]))
        if not expansion:
            continue
        rest = key[:lo] + key[lo + 1:hi] + key[hi + 1:]
        for k, s in expansion:
            nkey = rest + (k,)
            acc = out.get(nkey)
            total = value * s if acc is None else acc + value * s
            if total.is_zero():
                out.pop(nkey, None)
            else:
                out[nkey] = total
    return out


def _map_leg(entries: Entries, columns: Sequence[Entries], p: int) -> Entries:
    """Replace leg ``p`` by the column its index selects: the image legs of
    a 1 -> 1 or 1 -> 2 map take the place of the leg."""
    out: Entries = {}
    for key, value in entries.items():
        head, tail = key[:p], key[p + 1:]
        for ckey, cval in columns[key[p]].items():
            nkey = head + ckey + tail
            acc = out.get(nkey)
            total = value * cval if acc is None else acc + value * cval
            if total.is_zero():
                out.pop(nkey, None)
            else:
                out[nkey] = total
    return out


def _contract(entries: Entries, coords: Sequence[Scalar], p: int) -> Entries:
    """Pair leg ``p`` against the coordinates of a functional."""
    out: Entries = {}
    for key, value in entries.items():
        c = coords[key[p]]
        if c.is_zero():
            continue
        nkey = key[:p] + key[p + 1:]
        acc = out.get(nkey)
        total = value * c if acc is None else acc + value * c
        if total.is_zero():
            out.pop(nkey, None)
        else:
            out[nkey] = total
    return out


def _permute(entries: Entries, perm: Sequence[int]) -> Entries:
    """Reorder legs: leg i of the result is leg ``perm[i]`` of the input."""
    return {tuple(key[p] for p in perm): v for key, v in entries.items()}


def tensor_product(a: TensorElement, b: TensorElement) -> TensorElement:
    if a.dim != b.dim:
        raise DimMismatch(f"dim {a.dim} != {b.dim}")
    return TensorElement(a.rank + b.rank, a.dim, _outer(a.entries, b.entries), _trust=True)


def permute_legs(t: TensorElement, perm: Sequence[int]) -> TensorElement:
    return TensorElement(t.rank, t.dim, _permute(t.entries, perm), _trust=True)


def mult_pointwise(mult: MultTable, a: TensorElement, b: TensorElement) -> TensorElement:
    """Leg-wise product of equal-rank tensors through the given multiplication.

    Legs are merged one at a time with aggregation between steps, so the
    intermediate support never exceeds what the index structure allows; the
    per-pair expansion of all legs at once would grow multiplicatively.
    """
    a._check_like(b)
    rank = a.rank
    # pairing step fused with the first leg merge (so a (x) b is never
    # materialized); key layout is then a[1:] + b[1:] + (merged leg 0,)
    cur: Entries = {}
    get0 = mult.get
    for ka, va in a.entries.items():
        for kb, vb in b.entries.items():
            expansion = get0((ka[0], kb[0]))
            if not expansion:
                continue
            term = va * vb
            rest = ka[1:] + kb[1:]
            for k, s in expansion:
                key = rest + (k,)
                acc = cur.get(key)
                total = term * s if acc is None else acc + term * s
                if total.is_zero():
                    cur.pop(key, None)
                else:
                    cur[key] = total
    # after step j the layout is a[j:] + b[j:] + merged[:j]
    for j in range(1, rank):
        cur = _merge(cur, mult, 0, rank - j)
    return TensorElement(rank, a.dim, cur, _trust=True)


def _check_leg(t: TensorElement, dim: int, leg: int) -> None:
    if leg < 0 or leg >= t.rank:
        raise LegOutOfRange(f"leg {leg} out of range for rank {t.rank}")
    if dim != t.dim:
        raise DimMismatch(f"dim {dim} != {t.dim}")


def apply_on_leg(op: LinearOperator, t: TensorElement, leg: int) -> TensorElement:
    """Apply a rank 1 -> 1 or 1 -> 2 operator on one leg of ``t``."""
    _check_leg(t, op.dim, leg)
    return TensorElement(t.rank - 1 + op.dst_rank, t.dim,
                         _map_leg(t.entries, op.column_entries(), leg), _trust=True)


def contract(f: Functional, t: TensorElement, leg: int) -> TensorElement | Scalar:
    """Pair a functional against one leg; rank 1 inputs contract to a Scalar."""
    _check_leg(t, f.dim, leg)
    if t.rank == 1:
        return f(t)
    return TensorElement(t.rank - 1, t.dim, _contract(t.entries, f.coords, leg), _trust=True)


# -- exact nullspace ----------------------------------------------------------
#
# Fraction-free elimination: rows are rescaled to Gaussian-integer form and
# combined as p*row - r*pivot_row, so no denominators appear until the final
# back-substitution.  Content reduction after each combination keeps the
# coefficients small.


def _integerize(row: Sequence[Scalar]) -> list[Scalar]:
    den = 1
    for s in row:
        d = s.re.denominator * s.im.denominator // gcd(s.re.denominator, s.im.denominator)
        den = den * d // gcd(den, d)
    scaled = [s * Scalar.rational(den) for s in row] if den != 1 else list(row)
    content = 0
    for s in scaled:
        content = gcd(content, abs(s.re.numerator))
        content = gcd(content, abs(s.im.numerator))
    if content > 1:
        inv = Scalar.rational(1, content)
        scaled = [s * inv for s in scaled]
    return scaled


class _Echelon:
    """Incremental fraction-free row echelon over Q(i)."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, list[Scalar]] = {}

    def reduce(self, row: Sequence[Scalar]) -> list[Scalar] | None:
        work = _integerize(row)
        for col in sorted(self.pivots):
            c = work[col]
            if c.is_zero():
                continue
            piv = self.pivots[col]
            p = piv[col]
            work = [p * w - c * q for w, q in zip(work, piv)]
            work = _integerize(work)
        if all(s.is_zero() for s in work):
            return None
        return work

    def insert(self, row: Sequence[Scalar]) -> bool:
        work = self.reduce(row)
        if work is None:
            return False
        lead = next(i for i, s in enumerate(work) if not s.is_zero())
        self.pivots[lead] = work
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel(self) -> list[list[Scalar]]:
        pivot_cols = sorted(self.pivots)
        free_cols = [c for c in range(self.width) if c not in self.pivots]
        basis = []
        for free in free_cols:
            sol: list[Scalar] = [ZERO] * self.width
            sol[free] = ONE
            for col in reversed(pivot_cols):
                if col > free:
                    continue
                piv = self.pivots[col]
                acc = ZERO
                for j in range(col + 1, self.width):
                    if not piv[j].is_zero() and not sol[j].is_zero():
                        acc = acc + piv[j] * sol[j]
                sol[col] = -(acc / piv[col])
            lead = next(s for s in sol if not s.is_zero())
            inv = lead.inverse()
            basis.append([s * inv for s in sol])
        return basis


def kernel_basis(rows: Iterable[Sequence[Scalar]], width: int | None = None) -> list[list[Scalar]]:
    """Exact basis of the solution space of ``rows * x = 0``.

    Each returned vector is scaled so its first nonzero coordinate is 1;
    the empty list means only the zero solution exists.
    """
    rows = list(rows)
    if width is None:
        if not rows:
            raise ValueError("width required when no rows are given")
        width = len(rows[0])
    ech = _Echelon(width)
    for row in rows:
        if len(row) != width:
            raise DimMismatch(f"row width {len(row)} != {width}")
        if ech.rank < width:
            ech.insert(row)
        else:
            break
    return ech.kernel()


def solve_constraints(row_source: Iterable[Sequence[Scalar]],
                      width: int) -> list[list[Scalar]]:
    """Exact solution space of a (possibly huge) homogeneous system.

    Seeds an echelon with the first ``width`` rows, then certifies each
    remaining row against the current kernel by substitution, folding a row
    into the echelon only when it actually cuts the space down.  Adding rows
    only shrinks the kernel, so rows certified earlier stay satisfied.
    """
    ech = _Echelon(width)
    kernel: list[list[Scalar]] | None = None
    for count, row in enumerate(row_source):
        if len(row) != width:
            raise DimMismatch(f"row width {len(row)} != {width}")
        if kernel is None:
            ech.insert(row)
            if count + 1 >= width:
                kernel = ech.kernel()
            continue
        if not kernel:
            break
        violated = any(
            not _dot(row, vec).is_zero() for vec in kernel)
        if violated:
            ech.insert(row)
            kernel = ech.kernel()
    if kernel is None:
        kernel = ech.kernel()
    return kernel


def _dot(row: Sequence[Scalar], vec: Sequence[Scalar]) -> Scalar:
    acc = ZERO
    for a, b in zip(row, vec):
        if not a.is_zero() and not b.is_zero():
            acc = acc + a * b
    return acc


def invert_operator(op: LinearOperator) -> LinearOperator:
    """Exact inverse of a rank 1 -> 1 operator; raises SingularOperator."""
    if op.dst_rank != 1:
        raise RankMismatch("only rank 1 -> 1 operators are invertible here")
    n = op.dim
    # Gauss-Jordan on [M | I]; field division is exact.
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(op.matrix())]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot_row is None:
            raise SingularOperator("operator matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor.is_zero():
                continue
            aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    cols = []
    for j in range(n):
        cols.append(TensorElement(1, n, {(i,): aug[i][n + j] for i in range(n)
                                         if not aug[i][n + j].is_zero()}, _trust=True))
    return LinearOperator(n, cols)
