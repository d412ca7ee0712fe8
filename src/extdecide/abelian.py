"""Exact arithmetic for finitely generated abelian groups.

A group is a direct sum of cyclic groups, stored as a vector of summand
orders: order 0 denotes an infinite cyclic summand Z, order q >= 2 a finite
summand Z/q.  Elements are coordinate vectors in canonical form,
homomorphisms are integer matrices acting on coordinates.  Everything runs
on unbounded Python integers; there is no overflow anywhere.

The workhorse is Smith normal form with tracked unimodular transforms
(and the inverse of the row transform), from which kernels, cosets and
linear solving over these groups all follow.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from ._primes import factorize

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "GroupHom",
    "GroupMismatchError",
    "SnfResult",
    "snf",
    "primary_decomposition",
    "kernel",
    "solve",
]


class GroupMismatchError(ValueError):
    """Arithmetic attempted between elements of different groups."""


class FgAbGroup:
    """Direct sum Z/q_1 + ... + Z/q_r of cyclic groups (q_i = 0 meaning Z).

    Order-1 summands are dropped silently at construction.  Groups are
    value-like: equality and hashing are structural on the order vector.
    """

    __slots__ = ("orders",)

    def __init__(self, orders=()):
        cleaned = []
        for q in orders:
            q = int(q)
            if q < 0:
                raise ValueError(f"summand order must be >= 0, got {q}")
            if q != 1:
                cleaned.append(q)
        self.orders = tuple(cleaned)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def is_finite(self) -> bool:
        return all(q > 0 for q in self.orders)

    @property
    def size(self):
        """Number of elements, or None for an infinite group."""
        if not self.is_finite:
            return None
        return math.prod(self.orders)

    def exponent(self) -> int:
        """Least n >= 1 with n*x = 0 for all x.  Finite groups only."""
        if not self.is_finite:
            raise ValueError("exponent undefined for infinite groups")
        return math.lcm(*self.orders) if self.orders else 1

    def _canonical(self, coords):
        if len(coords) != self.rank:
            raise ValueError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return tuple(
            int(c) % q if q else int(c) for c, q in zip(coords, self.orders)
        )

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, self._canonical(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def generator(self, i: int) -> "GroupElement":
        coords = [0] * self.rank
        coords[i] = 1
        return self.element(coords)

    def elements(self):
        """Iterate all elements in odometer order (last coordinate fastest)."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(q) for q in self.orders)):
            yield GroupElement(self, coords)

    def element_at(self, index: int) -> "GroupElement":
        """Element at a given position of the odometer enumeration."""
        coords = [0] * self.rank
        for i in range(self.rank - 1, -1, -1):
            index, coords[i] = divmod(index, self.orders[i])
        if index:
            raise IndexError("element index out of range")
        return GroupElement(self, tuple(coords))

    def index_of(self, elem: "GroupElement") -> int:
        if elem.group != self:
            raise GroupMismatchError("element belongs to a different group")
        idx = 0
        for c, q in zip(elem.coords, self.orders):
            idx = idx * q + c
        return idx

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.orders == other.orders

    def __hash__(self):
        return hash(("FgAbGroup", self.orders))

    def __repr__(self):
        if not self.orders:
            return "FgAbGroup(trivial)"
        parts = ["Z" if q == 0 else f"Z/{q}" for q in self.orders]
        return " + ".join(parts)


class GroupElement:
    """Coordinate vector in canonical form, tied to its group."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FgAbGroup, coords: tuple):
        self.group = group
        self.coords = coords

    def _same_group(self, other):
        if not isinstance(other, GroupElement):
            raise TypeError(f"expected GroupElement, got {type(other).__name__}")
        if other.group != self.group:
            raise GroupMismatchError(
                f"elements of {self.group!r} and {other.group!r} cannot be combined"
            )

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        self._same_group(other)
        return self.group.element(
            [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        self._same_group(other)
        return self.group.element(
            [a - b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        return self.group.element([-c for c in self.coords])

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return self.group.element([n * c for c in self.coords])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and self.coords == other.coords

    def __hash__(self):
        return hash((self.group.orders, self.coords))

    def __repr__(self):
        return f"{self.coords} in {self.group!r}"


class GroupHom:
    """Homomorphism given by an integer matrix on coordinates.

    matrix[i][j] is the coefficient of target generator i in the image of
    source generator j.  Well-definedness (q_j * column_j = 0 in the
    target for every finite source order q_j) is checked at construction,
    and entries are reduced mod the target orders so equal maps compare
    equal.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix):
        rows = [tuple(int(v) for v in row) for row in matrix]
        if len(rows) != target.rank:
            raise ValueError(
                f"matrix has {len(rows)} rows, target rank is {target.rank}"
            )
        for row in rows:
            if len(row) != source.rank:
                raise ValueError(
                    f"matrix row has {len(row)} entries, source rank is {source.rank}"
                )
        for j, qs in enumerate(source.orders):
            if qs == 0:
                continue
            for i, qt in enumerate(target.orders):
                v = qs * rows[i][j]
                if (v % qt if qt else v) != 0:
                    raise ValueError(
                        f"not a homomorphism: order-{qs} generator {j} maps to "
                        f"an element not killed by {qs} (target row {i})"
                    )
        self.source = source
        self.target = target
        self.matrix = tuple(
            tuple(v % qt if qt else v for v in row)
            for row, qt in zip(rows, target.orders)
        )

    @classmethod
    def identity(cls, group: FgAbGroup) -> "GroupHom":
        n = group.rank
        return cls(group, group, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "GroupHom":
        return cls(source, target, [[0] * source.rank for _ in range(target.rank)])

    def apply(self, coords) -> tuple:
        """Canonical coordinates of the image of canonical source
        coordinates, on plain ints."""
        image = [sum(map(operator.mul, row, coords)) for row in self.matrix]
        return tuple([v % q if q else v for v, q in zip(image, self.target.orders)])

    def __call__(self, elem: GroupElement) -> GroupElement:
        if elem.group != self.source:
            raise GroupMismatchError("element does not belong to the source group")
        return GroupElement(self.target, self.apply(elem.coords))

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner: (self.compose(inner))(x) == self(inner(x))."""
        if inner.target != self.source:
            raise GroupMismatchError("composition groups do not match")
        prod = _mat_mul([list(r) for r in self.matrix], [list(r) for r in inner.matrix])
        return GroupHom(inner.source, self.target, prod)

    def __eq__(self, other):
        if not isinstance(other, GroupHom):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source.orders, self.target.orders, self.matrix))

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r}, {self.matrix})"


@dataclass(frozen=True)
class SnfResult:
    """U * A * V = D with U, V unimodular and D diagonal, d_1 | d_2 | ..."""

    U: tuple
    D: tuple
    V: tuple

    @property
    def diagonal(self) -> tuple:
        return tuple(
            self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))
        )


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match")
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def _snf_full(matrix):
    """Smith normal form with both transforms and the row transform's
    inverse.

    Returns (U, D, V, Uinv) as lists of lists with U*A*V = D and
    U*Uinv = I.  The columns of Uinv times the diagonal span the column
    lattice of A, and U maps that lattice onto the diagonal's multiples.
    Deterministic: the pivot is always the smallest nonzero absolute
    value, first in row-major order.
    """
    D = [[int(v) for v in row] for row in matrix]
    rows = len(D)
    cols = len(D[0]) if rows else 0
    for row in D:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    U, Uinv = _identity(rows), _identity(rows)
    V = _identity(cols)

    def row_add(i, j, c):  # row_i += c * row_j
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in range(rows):
            Uinv[r][j] -= c * Uinv[r][i]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for r in range(rows):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def row_negate(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for r in range(rows):
            Uinv[r][i] = -Uinv[r][i]

    def col_add(j, i, c):  # col_j += c * col_i
        for r in range(rows):
            D[r][j] += c * D[r][i]
        for r in range(cols):
            V[r][j] += c * V[r][i]

    def col_swap(i, j):
        for r in range(rows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(D[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    for t in range(min(rows, cols)):
        while True:
            best = find_pivot(t)
            if best is None:
                break
            _, pi, pj = best
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if D[t][t] < 0:
                row_negate(t)
            p = D[t][t]
            dirty = False
            for i in range(t + 1, rows):
                quo = D[i][t] // p
                if quo:
                    row_add(i, t, -quo)
                if D[i][t]:
                    dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                quo = D[t][j] // p
                if quo:
                    col_add(j, t, -quo)
                if D[t][j]:
                    dirty = True
            if dirty:
                continue
            # row and column t are clean; enforce the divisibility chain
            fixer = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if D[i][j] % p:
                        fixer = i
                        break
                if fixer is not None:
                    break
            if fixer is None:
                break
            row_add(t, fixer, 1)
        if find_pivot(t) is None:
            break

    return U, D, V, Uinv


def snf(matrix) -> SnfResult:
    """Smith normal form of an arbitrary integer matrix.

    The diagonal of D is non-negative with d_1 | d_2 | ... ; U and V are
    unimodular with U * A * V = D.  Total on all integer matrices,
    including empty and rectangular ones.
    """
    U, D, V, _ = _snf_full(matrix)
    return SnfResult(
        U=tuple(tuple(r) for r in U),
        D=tuple(tuple(r) for r in D),
        V=tuple(tuple(r) for r in V),
    )


def _solve_linear(matrix, rhs):
    """One integer solution x of matrix * x = rhs, or None.

    Deterministic: free coordinates are set to zero.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    U, D, V, _ = _snf_full(matrix)
    c = [sum(U[i][k] * rhs[k] for k in range(rows)) for i in range(rows)]
    w = [0] * cols
    for i in range(min(rows, cols)):
        d = D[i][i]
        if d:
            if c[i] % d:
                return None
            w[i] = c[i] // d
        elif c[i]:
            return None
    for i in range(cols, rows):
        if c[i]:
            return None
    return [sum(V[i][k] * w[k] for k in range(cols)) for i in range(cols)]


def _augmented(h: GroupHom):
    """[M | diag(target orders)]: h(x) = y exactly when (x, z) solves
    this system against the coordinates of y for some integer vector z."""
    t = h.target.rank
    return [
        list(row) + [q if k == i else 0 for k in range(t)]
        for i, (row, q) in enumerate(zip(h.matrix, h.target.orders))
    ]


def solve(h: GroupHom, target: GroupElement):
    """Some x with h(x) = target, or None when no solution exists.

    Works over any source and target; the preimage is found by solving
    the lifted linear system augmented with the target relations.
    """
    if target.group != h.target:
        raise GroupMismatchError("target element not in the hom's target group")
    if h.target.rank == 0:
        return h.source.zero()
    z = _solve_linear(_augmented(h), list(target.coords))
    if z is None:
        return None
    return h.source.element(z[:h.source.rank])


def kernel(h: GroupHom):
    """The kernel of h as an abstract group with its inclusion.

    Returns (K, inject) where K is an FgAbGroup and inject: K -> h.source
    is injective with image exactly {x : h(x) = 0}.  Kernel summand
    orders come out in divisibility order, infinite summands last.
    """
    s, t = h.source.rank, h.target.rank
    # lattice of coordinate vectors mapping to zero: the x-part of the
    # null space of the augmented system
    if t == 0:
        gens = _identity(s)
    else:
        _, D, V, _ = _snf_full(_augmented(h))
        null = [j for j in range(s + t) if j >= t or D[j][j] == 0]
        gens = [[V[i][j] for j in null] for i in range(s)]  # s x k

    # a basis of the lattice spanned by gens: d_i * Uinv[:, i] for the
    # non-zero invariant factors d_i.  A lattice vector v has coordinate
    # (U v)_i / d_i on basis vector i, and (U v)_i = 0 past the basis.
    k = len(gens[0]) if s else 0
    U, Dg, _, Uinv = _snf_full(gens)
    ds = [Dg[i][i] for i in range(min(s, k)) if Dg[i][i]]
    basis = [[d * Uinv[r][i] for i, d in enumerate(ds)] for r in range(s)]

    # the source relations q_j * e_j in that basis, one column each
    C = []  # len(ds) x s
    for i, row in enumerate(U):
        rel = [q * u for q, u in zip(h.source.orders, row)]
        d = ds[i] if i < len(ds) else 0
        if any(v % d if d else v for v in rel):
            raise AssertionError("source relation outside the kernel lattice")
        if d:
            C.append([v // d for v in rel])

    _, Dc, _, Uc_inv = _snf_full(C)
    gen_matrix = _mat_mul(basis, Uc_inv)
    orders = []
    cols = []
    for i in range(len(ds)):
        d = Dc[i][i]
        if d == 1:
            continue
        col = [gen_matrix[r][i] for r in range(s)]
        # normalize the generator sign for reproducible output
        lead = next((v for v in col if v), 0)
        if lead < 0:
            col = [-v for v in col]
        orders.append(d)
        cols.append(col)
    K = FgAbGroup(orders)
    inject = GroupHom(K, h.source, [[col[r] for col in cols] for r in range(s)])
    return K, inject


def primary_decomposition(group: FgAbGroup):
    """Split every finite summand into prime-power summands.

    Returns (G', forward, backward) with forward: G -> G' and
    backward: G' -> G mutually inverse isomorphisms.  Prime powers of a
    summand appear in ascending prime order; infinite summands pass
    through unchanged.  Each order is factored exactly by trial division
    below 1000, then Pollard-Brent rho on top of a deterministic
    primality test (extdecide._primes.factorize).
    """
    new_orders = []
    fwd_cols = []   # per old summand: list of (new_index, 1)
    back_entries = []  # per old summand: list of (new_index, crt coefficient)
    for j, q in enumerate(group.orders):
        if q == 0:
            idx = len(new_orders)
            new_orders.append(0)
            fwd_cols.append([(idx, 1)])
            back_entries.append([(idx, 1)])
            continue
        fac = factorize(q).items()
        col = []
        back = []
        for p, e in fac:
            pp = p**e
            rest = q // pp
            idx = len(new_orders)
            new_orders.append(pp)
            col.append((idx, 1))
            # coefficient equal to 1 mod pp and 0 mod q/pp
            back.append((idx, rest * pow(rest, -1, pp) % q))
        fwd_cols.append(col)
        back_entries.append(back)

    decomposed = FgAbGroup(new_orders)
    fwd = [[0] * group.rank for _ in range(decomposed.rank)]
    back = [[0] * decomposed.rank for _ in range(group.rank)]
    for j in range(group.rank):
        for idx, v in fwd_cols[j]:
            fwd[idx][j] = v
        for idx, v in back_entries[j]:
            back[j][idx] = v
    return (
        decomposed,
        GroupHom(group, decomposed, fwd),
        GroupHom(decomposed, group, back),
    )
