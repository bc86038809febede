"""Sparse exact tensors on H^(x)k, functionals, linear operators and the
one exact linear solver.

Tensor entries map k-tuples of basis indices to nonzero scalars; the empty
table is the zero tensor.  Multi-indices are ordered big-endian in leg order,
so serialized entry lists are portable between implementations.

The sparse kernels do their arithmetic in numerator form ``(nums, den,
qi)``: ``nums`` maps keys, each coded as one int, to integer numerators
over the one shared denominator ``den``, plain ints over Q and (re, im)
pairs over Q(i) (``qi``).  A public function lifts its tensor operands
into that form once, chains the kernels and lowers the result into
lowest-terms Scalars once; the expression evaluator (``expr``) keeps its
whole evaluation in it.
Multiplication tables, operators and functionals keep their own numerator
form once a kernel has asked for it, and so does a tensor an expression
binds, at the radix it was first lifted at; no kernel changes an operand.

Every nullspace, inverse and rank comes from one incremental echelon,
``_Echelon``, whose rows are rank-1 tensors kept as sparse (re, im)
integer pairs and combined fraction-free; ``solve_constraints``,
``invert_operator`` and ``row_rank`` are its three uses.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Sequence

from .exactnum import (MINUS_ONE, ONE, Scalar, ZERO, common_denominator,
                       from_numerator, numerator)


class DimMismatch(ValueError):
    pass


class RankMismatch(ValueError):
    pass


class LegOutOfRange(IndexError):
    pass


class SingularOperator(ArithmeticError):
    pass


class MultTable(dict):
    """Structure constants of a multiplication: (i, j) -> ((k, scalar), ...)
    giving e_i * e_j = sum_k scalar * e_k.  Absent keys mean the product is
    zero.  The table keeps its numerator form once a kernel has built it."""

    __slots__ = ("_lifted",)


class TensorElement:
    """An element of H^(x)rank over a dim-dimensional H, stored sparsely.
    Its entries are not changed once it is made, so the numerator form a
    kernel first reads it in is kept, with the radix of its codes."""

    __slots__ = ("rank", "dim", "entries", "_num")

    def __init__(self, rank: int, dim: int,
                 entries: dict[tuple[int, ...], Scalar] | None = None,
                 _trust: bool = False):
        self.rank = rank
        self.dim = dim
        self._num: tuple[int, Num] | None = None
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

    __slots__ = ("dim", "coords", "_lifted")

    def __init__(self, coords: Sequence[Scalar]):
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        self._lifted: _Lifted | None = None

    @classmethod
    def dual_basis(cls, dim: int, index: int) -> "Functional":
        return cls([ONE if i == index else ZERO for i in range(dim)])

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

    def numerator_columns(self) -> "_Lifted":
        """The coordinates as rank-0 columns in numerator form, so that
        pairing a leg is the kernel that maps a leg."""
        if self._lifted is None:
            self._lifted = _lift_columns([{} if c.is_zero() else {(): c}
                                          for c in self.coords], self.dim, 0)
        return self._lifted

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
    """A linear map H -> H^(x)dst_rank given by its columns: columns[i] is
    the image of e_i."""

    __slots__ = ("dst_rank", "dim", "columns", "_lifted")

    def __init__(self, dim: int, columns: Sequence[TensorElement], dst_rank: int | None = None):
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
        self._lifted: _Lifted | None = None

    @classmethod
    def identity(cls, dim: int) -> "LinearOperator":
        return cls(dim, [TensorElement.basis(dim, i) for i in range(dim)])

    def apply(self, t: TensorElement) -> TensorElement:
        if t.rank != 1:
            raise RankMismatch("apply() expects a rank-1 tensor; use apply_on_leg")
        n = self.dim
        return TensorElement(self.dst_rank, n,
                             _lower(_map_leg(_lift(t.entries, n), self.numerator_columns(), 1, 0),
                                    n, self.dst_rank), _trust=True)

    def numerator_columns(self) -> "_Lifted":
        """The columns in numerator form."""
        if self._lifted is None:
            self._lifted = _lift_columns([c.entries for c in self.columns], self.dim,
                                         self.dst_rank)
        return self._lifted

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
# The loops over sparse entries that ``expr`` and the public functions run
# on.  They work in numerator form on raw entry tables: a tensor is
# ``(nums, den, qi)`` and a constant operand is a ``_Lifted``.  Inside the
# kernels an entry key is one int, its code: the key (i_0, ..., i_{r-1})
# of a tensor with r legs over radix n (the dimension) is the code
# sum_l i_l * n^(r-1-l).  Leg 0 is the most significant digit, so sorted
# codes are the keys in lexicographic order.  A kernel is told how many
# legs each tensor operand has, reads the index on leg p as
# ``code // n^(r-1-p) % n`` and builds its output codes by integer
# arithmetic.  ``_lift`` encodes the tuple keys of a public tensor, and
# ``_lower`` decodes those of a result (permuting its legs when asked) or
# ``_lower_rows`` splits it on its last leg, so no other module builds or
# reads a code.  A kernel runs Q(i) arithmetic when either operand has a
# nonzero imaginary part and plain int arithmetic otherwise, adds integers
# term by term, drops a key as soon as its total cancels (so every
# intermediate stays as small as the index structure allows), and divides
# its output by the common content once.  ``_merge``, ``_map_leg`` and
# ``_outer`` make one pass over their input entries; ``_join`` makes two,
# first contracting ``a`` with the table and then meeting ``b`` (see its
# docstring, which also gives its key order).  No kernel makes a Scalar;
# the lowering makes those of the result.

Entries = dict[tuple[int, ...], Scalar]
Num = tuple[dict, int, bool]


class _Lifted:
    """A constant kernel operand in numerator form: its denominator, whether
    some imaginary part is nonzero, the radix ``n`` of its codes, the number
    of legs ``rank`` of each image, and the images as a list of tuples of
    (code, value) pairs, the value an int (Q) or a (re, im) pair (Q(i)).
    A kernel adds an image's codes into those of its result, which only
    the lowering decodes.  The columns of a map are listed by the index of
    the leg they replace; a multiplication table is a flat list of its n^2
    expansions, e_i e_j at i * n + j and an empty tuple for a zero
    product.  The pair form of a Q operand is made when a Q(i) kernel first
    asks for it."""

    __slots__ = ("den", "qi", "n", "rank", "_forms")

    def __init__(self, den: int, qi: bool, n: int, rank: int, natural: list):
        self.den, self.qi, self.n, self.rank = den, qi, n, rank
        self._forms = {qi: natural}

    def form(self, qi: bool) -> list:
        found = self._forms.get(qi)
        if found is None:
            found = self._forms[qi] = [tuple((k, (v, 0)) for k, v in image)
                                       for image in self._forms[False]]
        return found


def _pairs(nums: dict) -> dict:
    return {k: (v, 0) for k, v in nums.items()}


def _code(key: Iterable[int], n: int) -> int:
    """The code sum_l i_l * n^(r-1-l) of the key (i_0, ..., i_{r-1})."""
    code = 0
    for i in key:
        code = code * n + i
    return code


def _lift(entries: Mapping, n: int) -> Num:
    """Tuple-keyed Scalar entries over dimension (or radix) ``n`` in
    numerator form, each key coded as in ``_code``."""
    den, qi = common_denominator(entries.values())
    nums = {}
    for key, s in entries.items():
        code = 0
        for i in key:
            code = code * n + i
        nums[code] = numerator(s, den, qi)
    return nums, den, qi


def _lift_kept(t: TensorElement, n: int) -> Num:
    """``_lift`` of the entries of ``t``, kept on ``t`` for the first radix
    it is lifted at.  No kernel changes an operand it is given, so every
    later caller at that radix shares the kept form."""
    kept = t._num
    if kept is not None and kept[0] == n:
        return kept[1]
    num = _lift(t.entries, n)
    if kept is None:
        t._num = n, num
    return num


def _basis_sum(keys: Iterable[Sequence[int]], n: int) -> Num:
    """The sum of the basis tensors e_key over ``keys``, in numerator form."""
    return dict.fromkeys((_code(k, n) for k in keys), 1), 1, False


def _keys(codes: Iterable[int], n: int, rank: int, perm: Sequence[int] | None = None):
    """The tuple keys of ``codes`` (with ``rank`` legs), in order; leg i of
    a key is leg ``perm[i]`` of its code (the legs in order when ``perm``
    is None).  One pass per leg reads its index from every code."""
    legs = []
    for p in range(rank) if perm is None else perm:
        w = n ** (rank - 1 - p)
        legs.append([code // w % n for code in codes])
    return zip(*legs) if legs else [()] * len(codes)


def _lower(t: Num, n: int, rank: int, perm: Sequence[int] | None = None) -> Entries:
    """The entries of ``t``, a tensor with ``rank`` legs, keyed by tuples
    (permuted by ``perm`` as in ``_keys``) and as lowest-terms Scalars."""
    nums, den, qi = t
    out = {}
    for key, v in zip(_keys(nums, n, rank, perm), nums.values()):
        out[key] = from_numerator(v, den, qi)
    return out


def _lower_rows(t: Num, n: int, rank: int) -> dict[tuple[int, ...], Entries]:
    """The entries of ``t``, a tensor with ``rank`` legs, split on its last
    leg: for each key of the other legs, in order of first appearance, its
    entries keyed by the index of the last leg alone."""
    nums, den, qi = t
    singles = [(k,) for k in range(n)]
    rows: dict = {}
    for code, v in nums.items():
        row = rows.get(code // n)
        if row is None:
            row = rows[code // n] = {}
        row[singles[code % n]] = from_numerator(v, den, qi)
    return dict(zip(_keys(rows, n, rank - 1), rows.values()))


def _lift_images(images: list, n: int, rank: int) -> _Lifted:
    den, qi = common_denominator(s for image in images for _, s in image)
    return _Lifted(den, qi, n, rank, [tuple((k, numerator(s, den, qi)) for k, s in image)
                                      for image in images])


def _lift_columns(columns: Sequence[Entries], n: int, rank: int) -> _Lifted:
    """Columns of ``rank`` legs over dimension (or radix) ``n``."""
    return _lift_images([[(_code(k, n), s) for k, s in c.items()] for c in columns], n, rank)


def _lift_table(mult: MultTable, n: int) -> _Lifted:
    """The numerator form of a multiplication table on an ``n``-dimensional
    algebra, kept on a ``MultTable`` (a plain dict is lifted again on every
    call)."""
    lifted = getattr(mult, "_lifted", None)
    if lifted is None:
        flat: list = [()] * (n * n)
        for (i, j), expansion in mult.items():
            flat[i * n + j] = expansion
        lifted = _lift_images(flat, n, 1)
        if isinstance(mult, MultTable):
            mult._lifted = lifted
    return lifted


def _content(values: Iterable, qi: bool, g: int = 0) -> int:
    """The gcd of ``g`` and every numerator part; stops once it is 1."""
    if qi:
        for re, im in values:
            g = gcd(g, re, im)
            if g == 1:
                break
    else:
        for v in values:
            g = gcd(g, v)
            if g == 1:
                break
    return g


def _reduce(nums: dict, den: int, qi: bool) -> Num:
    """Divide the numerators (in place) and ``den`` by their common content."""
    g = _content(nums.values(), qi, den) if den != 1 else 1
    if g > 1:
        if qi:
            for k, (re, im) in nums.items():
                nums[k] = (re // g, im // g)
        else:
            for k, v in nums.items():
                nums[k] = v // g
        den //= g
    return nums, den, qi


def _outer(a: Num, b: Num, n: int, rank_b: int) -> Num:
    """Outer product: the legs of ``b``, ``rank_b`` of them, follow the legs
    of ``a``."""
    an, ad, aq = a
    bn, bd, bq = b
    qi = aq or bq
    shift = n ** rank_b
    if not qi:
        out = {ka * shift + kb: va * vb for ka, va in an.items() for kb, vb in bn.items()}
        return _reduce(out, ad * bd, qi)
    if not bq:
        bn = _pairs(bn)
    out = {}
    for ka, va in an.items():
        ar, ai = va if aq else (va, 0)
        base = ka * shift
        for kb, (br, bi) in bn.items():
            out[base + kb] = (ar * br - ai * bi, ar * bi + ai * br)
    return _reduce(out, ad * bd, qi)


def _merge(t: Num, table: _Lifted, rank: int, pa: int, pb: int) -> Num:
    """Multiply leg ``pa`` by leg ``pb`` (in that order) of ``t``, a tensor
    with ``rank`` legs, through ``table``; both legs are removed and the
    product becomes the last leg."""
    nums, den, tq = t
    qi = tq or table.qi
    n, flat = table.n, table.form(qi)
    lo, hi = (pa, pb) if pa < pb else (pb, pa)
    wa, wb = n ** (rank - 1 - pa), n ** (rank - 1 - pb)
    # a code is top, index lo, mid, index hi, low; ``base`` is top mid low
    # with room for the product leg
    wl, wh = n ** (rank - 1 - lo), n ** (rank - 1 - hi)
    cut_lo, cut_hi = wl * n, wh * n
    out: dict = {}
    if qi:
        for key, value in nums.items():
            expansion = flat[key // wa % n * n + key // wb % n]
            if not expansion:
                continue
            vr, vi = value if tq else (value, 0)
            base = key // cut_lo * wl + key % wl // cut_hi * cut_hi + key % wh * n
            for k, (sr, si) in expansion:
                nkey = base + k
                re, im = vr * sr - vi * si, vr * si + vi * sr
                acc = out.get(nkey)
                if acc is not None:
                    re += acc[0]
                    im += acc[1]
                    if not (re or im):
                        del out[nkey]
                        continue
                out[nkey] = (re, im)
    else:
        for key, value in nums.items():
            expansion = flat[key // wa % n * n + key // wb % n]
            if not expansion:
                continue
            base = key // cut_lo * wl + key % wl // cut_hi * cut_hi + key % wh * n
            for k, s in expansion:
                nkey = base + k
                acc = out.get(nkey)
                if acc is None:
                    out[nkey] = value * s
                else:
                    acc += value * s
                    if acc:
                        out[nkey] = acc
                    else:
                        del out[nkey]
    return _reduce(out, den * table.den, qi)


def _join(a: Num, b: Num, table: _Lifted, rank_a: int, rank_b: int, pa: int, pb: int) -> Num:
    """Multiply leg ``pa`` of ``a`` by leg ``pb`` of ``b`` (in that order)
    through ``table`` without forming a (x) b, for tensors with ``rank_a``
    and ``rank_b`` legs: the other legs of ``a``, then those of ``b``, then
    the product leg.

    The contraction a[head, i] b[j, tail] M[i, j, k] runs in two steps,
    ``a`` with the table first, head by head (a head is the other legs of
    an entry of ``a``).  Step 1 sums a[head, i] * M[i, j, k] over the i of
    the head into a partial product keyed by j, then k: one table lookup
    per entry of ``a`` and distinct index j on leg ``pb`` of ``b``.  Step 2
    meets each partial entry (j, k) with the entries of ``b`` whose index
    is j, giving the key head + tail + (k,).  Keys come out in that loop
    order: heads as they first appear in ``a``, j and k as they first get a
    term, then the entries of ``b``.  Neither step does more multiply-adds
    than one loop over every pair of entries of ``a`` and ``b``."""
    an, ad, aq = a
    bn, bd, bq = b
    qi = aq or bq or table.qi
    n, flat = table.n, table.form(qi)
    if qi:
        an = an if aq else _pairs(an)
        bn = bn if bq else _pairs(bn)
    wa, wb = n ** (rank_a - 1 - pa), n ** (rank_b - 1 - pb)
    cut_a, cut_b = wa * n, wb * n
    # heads hold (i * n, value), the row of i in the table; groups hold
    # (tail * n, value), with room for the product leg
    heads: dict = {}
    for ka, va in an.items():
        heads.setdefault(ka // cut_a * wa + ka % wa, []).append((ka // wa % n * n, va))
    groups: dict = {}
    for kb, vb in bn.items():
        groups.setdefault(kb // wb % n, []).append((kb // cut_b * cut_b + kb % wb * n, vb))
    shift = n ** rank_b
    out: dict = {}
    for head, entries in heads.items():
        head *= shift
        partial: dict = {}
        if qi:
            for i, (ar, ai) in entries:
                for j in groups:
                    expansion = flat[i + j]
                    if not expansion:
                        continue
                    row = partial.get(j)
                    if row is None:
                        row = partial[j] = {}
                    for k, (sr, si) in expansion:
                        re, im = ar * sr - ai * si, ar * si + ai * sr
                        acc = row.get(k)
                        if acc is not None:
                            re += acc[0]
                            im += acc[1]
                            if not (re or im):
                                del row[k]
                                continue
                        row[k] = (re, im)
            for j, row in partial.items():
                group = groups[j]
                for k, (pr, pi) in row.items():
                    base = head + k
                    for tail, (br, bi) in group:
                        key = base + tail
                        re, im = pr * br - pi * bi, pr * bi + pi * br
                        acc = out.get(key)
                        if acc is not None:
                            re += acc[0]
                            im += acc[1]
                            if not (re or im):
                                del out[key]
                                continue
                        out[key] = (re, im)
        else:
            for i, va in entries:
                for j in groups:
                    expansion = flat[i + j]
                    if not expansion:
                        continue
                    row = partial.get(j)
                    if row is None:
                        row = partial[j] = {}
                    for k, s in expansion:
                        acc = row.get(k)
                        if acc is None:
                            row[k] = va * s
                        else:
                            acc += va * s
                            if acc:
                                row[k] = acc
                            else:
                                del row[k]
            for j, row in partial.items():
                group = groups[j]
                for k, p in row.items():
                    base = head + k
                    for tail, vb in group:
                        key = base + tail
                        acc = out.get(key)
                        if acc is None:
                            out[key] = p * vb
                        else:
                            acc += p * vb
                            if acc:
                                out[key] = acc
                            else:
                                del out[key]
    return _reduce(out, ad * bd * table.den, qi)


def _map_leg(t: Num, columns: _Lifted, rank: int, p: int) -> Num:
    """Replace leg ``p`` of ``t``, a tensor with ``rank`` legs, by the
    column its index selects: the image legs of a 1 -> 0, 1 -> 1 or
    1 -> 2 map take the place of the leg."""
    nums, den, tq = t
    qi = tq or columns.qi
    n, cols = columns.n, columns.form(qi)
    w = n ** (rank - 1 - p)
    cut = w * n
    span = n ** columns.rank * w        # the legs before p move up by the image's
    out: dict = {}
    if qi:
        for key, value in nums.items():
            vr, vi = value if tq else (value, 0)
            base = key // cut * span + key % w
            for ckey, (cr, ci) in cols[key // w % n]:
                nkey = base + ckey * w
                re, im = vr * cr - vi * ci, vr * ci + vi * cr
                acc = out.get(nkey)
                if acc is not None:
                    re += acc[0]
                    im += acc[1]
                    if not (re or im):
                        del out[nkey]
                        continue
                out[nkey] = (re, im)
    else:
        for key, value in nums.items():
            base = key // cut * span + key % w
            for ckey, c in cols[key // w % n]:
                nkey = base + ckey * w
                acc = out.get(nkey)
                if acc is None:
                    out[nkey] = value * c
                else:
                    acc += value * c
                    if acc:
                        out[nkey] = acc
                    else:
                        del out[nkey]
    return _reduce(out, den * columns.den, qi)


def tensor_product(a: TensorElement, b: TensorElement) -> TensorElement:
    if a.dim != b.dim:
        raise DimMismatch(f"dim {a.dim} != {b.dim}")
    n = a.dim
    return TensorElement(a.rank + b.rank, n,
                         _lower(_outer(_lift(a.entries, n), _lift(b.entries, n), n, b.rank),
                                n, a.rank + b.rank), _trust=True)


def permute_legs(t: TensorElement, perm: Sequence[int]) -> TensorElement:
    """Reorder legs: leg i of the result is leg ``perm[i]`` of ``t``."""
    return TensorElement(t.rank, t.dim, {tuple(key[p] for p in perm): v
                                         for key, v in t.entries.items()}, _trust=True)


def embed_legs(columns: Sequence[TensorElement], t: TensorElement) -> TensorElement:
    """Map every leg of ``t`` along the linear map e_i -> ``columns[i]``
    (rank-1 columns, possibly of another dimension).  Codes take the radix
    of the target dimension, of which the indices of ``t`` are digits too."""
    n = columns[0].dim
    lifted = _lift_columns([c.entries for c in columns], n, 1)
    cur = _lift(t.entries, n)
    for leg in range(t.rank):
        cur = _map_leg(cur, lifted, t.rank, leg)
    return TensorElement(t.rank, n, _lower(cur, n, t.rank), _trust=True)


def mult_pointwise(mult: MultTable, a: TensorElement, b: TensorElement) -> TensorElement:
    """Leg-wise product of equal-rank tensors through the given multiplication.

    Legs are merged one at a time with aggregation between steps, so the
    intermediate support never exceeds what the index structure allows; the
    per-pair expansion of all legs at once would grow multiplicatively.
    """
    a._check_like(b)
    rank, n = a.rank, a.dim
    table = _lift_table(mult, n)
    # the pairing step is fused with the first leg merge, so a (x) b is never
    # materialized; after step j the layout is a[j:] + b[j:] + merged[:j]
    t = _join(_lift(a.entries, n), _lift(b.entries, n), table, rank, rank, 0, 0)
    for j in range(1, rank):
        t = _merge(t, table, 2 * rank - j, 0, rank - j)
    return TensorElement(rank, n, _lower(t, n, rank), _trust=True)


def columns_of(table: TensorElement) -> list[TensorElement]:
    """The tensors rest |-> table[i, *rest] of the table's other legs, one
    per index i of its first leg."""
    cols: list[Entries] = [{} for _ in range(table.dim)]
    for key, value in table.entries.items():
        cols[key[0]][key[1:]] = value
    return [TensorElement(table.rank - 1, table.dim, c, _trust=True) for c in cols]


def multiplication_operator(mult: MultTable, a: TensorElement, side: str) -> LinearOperator:
    """L_a (h |-> a h, side "left") or R_a (h |-> h a, side "right").

    One ``_merge`` over a tensor whose first leg indexes the basis gives the
    products with every basis element at once; column i is the product with
    e_i.
    """
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    if a.rank != 1:
        raise RankMismatch("a multiplication operator needs a rank-1 element")
    n = a.dim
    nums, den, qi = _lift(a.entries, n)
    domain = ({(i * n + k) * n + i: v for i in range(n) for k, v in nums.items()}, den, qi)
    pa, pb = (1, 2) if side == "left" else (2, 1)       # legs: index, a, e_index
    products = _lower_rows(_merge(domain, _lift_table(mult, n), 3, pa, pb), n, 2)
    return LinearOperator(n, [TensorElement(1, n, products.get((i,), {}), _trust=True)
                              for i in range(n)])


def _check_leg(t: TensorElement, dim: int, leg: int) -> None:
    if leg < 0 or leg >= t.rank:
        raise LegOutOfRange(f"leg {leg} out of range for rank {t.rank}")
    if dim != t.dim:
        raise DimMismatch(f"dim {dim} != {t.dim}")


def apply_on_leg(op: LinearOperator, t: TensorElement, leg: int) -> TensorElement:
    """Apply a rank 1 -> 1 or 1 -> 2 operator on one leg of ``t``."""
    _check_leg(t, op.dim, leg)
    n, rank = t.dim, t.rank - 1 + op.dst_rank
    return TensorElement(rank, n, _lower(_map_leg(_lift(t.entries, n), op.numerator_columns(),
                                                  t.rank, leg), n, rank), _trust=True)


def contract(f: Functional, t: TensorElement, leg: int) -> TensorElement | Scalar:
    """Pair a functional against one leg; rank 1 inputs contract to a Scalar."""
    _check_leg(t, f.dim, leg)
    if t.rank == 1:
        return f(t)
    n = t.dim
    return TensorElement(t.rank - 1, n, _lower(_map_leg(_lift(t.entries, n),
                                                        f.numerator_columns(), t.rank, leg),
                                               n, t.rank - 1), _trust=True)


# -- exact linear algebra -------------------------------------------------------
#
# One incremental echelon does every elimination: nullspaces, inverses and
# ranks.  A row is a rank-1 TensorElement, lifted into numerator form as
# (re, im) integer pairs (over Q as over Q(i)) and reduced fraction-free:
# row <- p*row - c*pivot, with p the pivot's leading entry and c the row's
# entry in that column, then divided by its content.  Kernel vectors come
# from the same fraction-free back-substitution; Scalars are made only for
# the vectors returned.

Pairs = dict[int, tuple[int, int]]


def _primitive(v: Pairs) -> Pairs:
    """Divide ``v`` (in place) by the gcd of its integer parts."""
    g = _content(v.values(), True)
    if g > 1:
        for k, (re, im) in v.items():
            v[k] = (re // g, im // g)
    return v


def _lift_row(row: TensorElement, width: int) -> Pairs:
    """The row's primitive Gaussian-integer multiple, keyed by column."""
    if row.dim != width:
        raise DimMismatch(f"row width {row.dim} != {width}")
    den, _ = common_denominator(row.entries.values())
    return _primitive({k: numerator(s, den, True) for (k,), s in row.entries.items()})


def _scale(p: tuple[int, int], v: Pairs) -> Pairs:
    """p * v for a Gaussian integer p."""
    pr, pi = p
    return {k: (pr * re - pi * im, pr * im + pi * re) for k, (re, im) in v.items()}


def _pair_dot(row: Pairs, vec: Pairs) -> tuple[int, int]:
    """The sum of row[k] * vec[k] over the row's support."""
    re = im = 0
    for k, (ar, ai) in row.items():
        b = vec.get(k)
        if b is not None:
            re += ar * b[0] - ai * b[1]
            im += ar * b[1] + ai * b[0]
    return re, im


def _combine(p: tuple[int, int], row: Pairs, c: tuple[int, int], piv: Pairs) -> Pairs:
    """The primitive form of p*row - c*piv."""
    out = _scale(p, row)
    for k, (sr, si) in _scale(c, piv).items():
        acc = out.get(k)
        if acc is None:
            out[k] = (-sr, -si)
        elif acc != (sr, si):
            out[k] = (acc[0] - sr, acc[1] - si)
        else:
            del out[k]
    return _primitive(out)


def _normalized(vec: Pairs, at: int, width: int) -> list[Scalar]:
    """Coordinates 0..width-1 of ``vec`` over its coordinate ``at``, as
    Scalars: v / l = v conj(l) / |l|^2."""
    lr, li = vec[at]
    nums = {k: v for k, v in _scale((lr, -li), vec).items() if k < width}
    qi = any(im for _, im in nums.values())
    out = [ZERO] * width
    for k, v in nums.items():
        out[k] = from_numerator(v if qi else v[0], lr * lr + li * li, qi)
    return out


class _Echelon:
    """Incremental fraction-free row echelon over Z[i]: each pivot row is
    primitive and keyed by its leading column."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, Pairs] = {}
        self._null: list[Pairs] | None = None

    def reduce(self, row: TensorElement) -> Pairs | None:
        """The row reduced by every pivot; None when it lies in their span."""
        work = _lift_row(row, self.width)
        for col in sorted(self.pivots):
            if col in work:
                piv = self.pivots[col]
                work = _combine(piv[col], work, work[col], piv)
        return work or None

    def insert(self, row: TensorElement) -> bool:
        work = self.reduce(row)
        if work is None:
            return False
        self.pivots[min(work)] = work
        self._null = None
        return True

    def copy(self) -> "_Echelon":
        """An echelon with the same pivot rows, which neither one changes
        in place."""
        twin = _Echelon(self.width)
        twin.pivots = dict(self.pivots)
        return twin

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def null_vectors(self) -> list[Pairs]:
        """One Gaussian-integer kernel vector per free column, in order: 1
        there and 0 on the other free columns.  Back-substitution scales
        the vector by each pivot entry instead of dividing by it."""
        if self._null is None:
            self._null = []
            for free in range(self.width):
                if free in self.pivots:
                    continue
                sol = {free: (1, 0)}
                for col in sorted((c for c in self.pivots if c < free), reverse=True):
                    re, im = _pair_dot(self.pivots[col], sol)
                    if re or im:
                        sol = _scale(self.pivots[col][col], sol)
                        sol[col] = (-re, -im)
                        _primitive(sol)
                self._null.append(sol)
        return self._null

    def kernel(self) -> list[list[Scalar]]:
        """A basis of the solution space, one vector per free column, each
        scaled so its first nonzero coordinate is 1."""
        return [_normalized(vec, min(vec), self.width) for vec in self.null_vectors()]


def solve_constraints(rows: Iterable[TensorElement], width: int) -> list[list[Scalar]]:
    """``_Echelon.kernel`` of a (possibly huge) stream of rank-1 rows of
    dim ``width``; the empty list means only the zero solution exists.

    Seeds an echelon with the first ``width`` rows, then certifies each
    remaining row by its integer dot product with every kernel vector,
    folding a row into the echelon only when it cuts the space down.
    Adding rows only shrinks the kernel, so rows certified earlier stay
    satisfied.
    """
    ech = _Echelon(width)
    for count, row in enumerate(rows):
        if count < width:
            ech.insert(row)
            continue
        null = ech.null_vectors()
        if not null:
            break
        lifted = _lift_row(row, width)
        if any(_pair_dot(lifted, vec) != (0, 0) for vec in null):
            ech.insert(row)
    return ech.kernel()


def row_rank(rows: Iterable[TensorElement], width: int) -> int:
    """The rank of a family of rank-1 rows of dim ``width``."""
    ech = _Echelon(width)
    for row in rows:
        ech.insert(row)
    return ech.rank


def invert_operator(op: LinearOperator) -> LinearOperator:
    """Exact inverse of a rank 1 -> 1 operator; raises SingularOperator.

    Eliminates the rows [M | -I].  M is invertible exactly when every pivot
    lies in the first block, and then the kernel vector of free column
    n + j, scaled to 1 there, is column j of M^-1 over column j of I.
    """
    if op.dst_rank != 1:
        raise RankMismatch("only rank 1 -> 1 operators are invertible here")
    n = op.dim
    rows: list[Entries] = [{(n + i,): MINUS_ONE} for i in range(n)]
    for j, col in enumerate(op.columns):
        for (i,), value in col.entries.items():
            rows[i][(j,)] = value
    ech = _Echelon(2 * n)
    for row in rows:
        ech.insert(TensorElement(1, 2 * n, row, _trust=True))
    if any(col >= n for col in ech.pivots):
        raise SingularOperator("operator matrix is singular")
    return LinearOperator(n, [TensorElement.vector(_normalized(vec, n + j, n))
                              for j, vec in enumerate(ech.null_vectors())])
