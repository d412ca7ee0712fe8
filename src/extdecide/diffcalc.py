"""Higher-order difference calculus over sets with a right-zero action.

An action algebra is a finite set S together with a finite set T acting on
it through op: S x T -> S with a distinguished right-sided zero in T
(op(x, 0) = x).  Iterating the action gives the derived operation
x +_t y = x + y + ... + y (t copies, bracketed to the left).

For a map f: S -> G into an abelian group, the order-l difference at
stride t is the alternating sum of f over all sub-multisets of l
increments, evaluated along the derived action.  build_diff_operator
produces, for a prime power q = p^m, a formal integer combination of such
differences that expresses f(x + theta*y) - f(x) modulo q simultaneously
for every map f; check_congruence verifies that guarantee exhaustively
over a concrete algebra.

One routine evaluates an operator on the diagonal (x; y, ..., y): it works
on plain integer value tables, for all base points at once, and serves
build_ladder's twists, check_congruence and evaluate_diagonal alike.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from ._primes import is_prime
from .abelian import FgAbGroup, GroupElement

__all__ = [
    "ActionAlgebra",
    "GValuedMap",
    "DiffOperator",
    "AuditReport",
    "difference",
    "derive",
    "build_diff_operator",
    "evaluate_diagonal",
    "check_congruence",
    "random_algebra",
    "random_map",
]


# Bounds on every operator, built or loaded.  Evaluating one walks
# order + 1 binomial weights per term, and the number of terms grows with
# the modulus q = p^m, so a bound on m alone would still let p raise it
# (p = 61, m = 4 has 13,068 terms); bounding q bounds m (m <= 16) and p
# together.  Strides and theta are iteration counts, each costing a
# doubling step per bit; no operator within the first two bounds has a
# larger one than their product (the largest theta is 2^21).  The
# costliest operator inside, p = 2, m = 16 at order 64, has 2,726 terms.
_MAX_ORDER = 64
_MAX_MODULUS = 2**16
_MAX_STRIDE = _MAX_ORDER * _MAX_MODULUS


@dataclass(frozen=True)
class AuditReport:
    """Outcome of an exhaustive audit: the number of checks made and the
    violations found, in the order found."""

    checks: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_bounds(p: int, m: int, order: int):
    if order > _MAX_ORDER:
        raise ValueError(f"order must be <= {_MAX_ORDER}")
    # p >= 2, so an m past the bound's bit length already breaks it;
    # testing m first keeps a huge m from forming p**m
    if m >= _MAX_MODULUS.bit_length() or p**m > _MAX_MODULUS:
        raise ValueError(f"modulus p^m must be <= {_MAX_MODULUS}")


def iterated_table(memo: dict, times: int):
    """Table of x +_times y for the one-step table memo[1], by doubling.

    memo maps iteration counts to their tables; every table built on the
    way is stored in it, so calls that share a memo share the work.
    """
    if times < 1:
        raise ValueError("iteration count must be positive")
    if times in memo:
        return memo[times]
    if times % 2:
        first, second = memo[1], iterated_table(memo, times - 1)
    else:
        first = second = iterated_table(memo, times // 2)
    table = tuple(
        tuple(second[v][y] for y, v in enumerate(row)) for row in first
    )
    memo[times] = table
    return table


class ActionAlgebra:
    """Finite operation table S x T -> S with a right-sided zero in T.

    Iterated tables (x +_t y) are memoized internally and shared by the
    evaluators; they are built by doubling, so large strides stay cheap.
    """

    __slots__ = ("op", "zero", "_iterates")

    def __init__(self, op, zero):
        table = tuple(tuple(int(v) for v in row) for row in op)
        if not table or not table[0]:
            raise ValueError("S and T must both be non-empty")
        s_size = len(table)
        t_size = len(table[0])
        for row in table:
            if len(row) != t_size:
                raise ValueError("ragged operation table")
            for v in row:
                if not 0 <= v < s_size:
                    raise ValueError(f"table value {v} outside S")
        zero = int(zero)
        if not 0 <= zero < t_size:
            raise ValueError("zero element outside T")
        for x in range(s_size):
            if table[x][zero] != x:
                raise ValueError(f"{zero} is not a right-sided zero at x={x}")
        self.op = table
        self.zero = zero
        self._iterates = {1: table}

    @property
    def s_size(self) -> int:
        return len(self.op)

    @property
    def t_size(self) -> int:
        return len(self.op[0])

    def iterated(self, times: int):
        """Table of x +_times y.  times >= 1."""
        return iterated_table(self._iterates, times)

    def __eq__(self, other):
        if not isinstance(other, ActionAlgebra):
            return NotImplemented
        return self.op == other.op and self.zero == other.zero

    def __hash__(self):
        return hash((self.op, self.zero))

    def __repr__(self):
        return f"ActionAlgebra(|S|={self.s_size}, |T|={self.t_size}, zero={self.zero})"


def derive(algebra: ActionAlgebra, times: int) -> ActionAlgebra:
    """The algebra with operation x +_times y.  Right zero is preserved."""
    if times < 1:
        raise ValueError("derivation parameter must be positive")
    return ActionAlgebra(algebra.iterated(times), algebra.zero)


class GValuedMap:
    """Total table f: S -> G for an action algebra and an abelian group."""

    __slots__ = ("algebra", "target", "table")

    def __init__(self, algebra: ActionAlgebra, target: FgAbGroup, values):
        values = tuple(values)
        if len(values) != algebra.s_size:
            raise ValueError(
                f"need {algebra.s_size} values, got {len(values)}"
            )
        for v in values:
            if not isinstance(v, GroupElement) or v.group != target:
                raise ValueError("map values must be elements of the target group")
        self.algebra = algebra
        self.target = target
        self.table = values

    def __call__(self, x: int) -> GroupElement:
        return self.table[x]


def difference(
    f: GValuedMap, order: int, stride: int, x: int, ys
) -> GroupElement:
    """Order-`order` difference of f at `stride`, increments ys.

    Alternating sum of f over all subsets of the increments, each applied
    left-to-right in increasing index order through the stride-derived
    action.  Vanishes identically whenever some increment is the zero.
    """
    ys = list(ys)
    if len(ys) != order:
        raise ValueError(f"expected {order} increments, got {len(ys)}")
    if not 0 <= x < f.algebra.s_size:
        raise ValueError("base point outside S")
    for y in ys:
        if not 0 <= y < f.algebra.t_size:
            raise ValueError("increment outside T")
    table = f.algebra.iterated(stride)
    rank = f.target.rank
    total = [0] * rank
    stack = [(0, x, 0)]
    while stack:
        i, point, size = stack.pop()
        if i == order:
            sign = -1 if (order - size) % 2 else 1
            coords = f.table[point].coords
            for r in range(rank):
                total[r] += sign * coords[r]
            continue
        stack.append((i + 1, point, size))
        stack.append((i + 1, table[point][ys[i]], size + 1))
    return f.target.element(total)


@dataclass(frozen=True)
class DiffOperator:
    """Formal combination sum_i coeff_i * (order-`order` difference at
    stride_i), attached to the modulus q = p^m it reduces against.

    terms are (coefficient, stride) pairs with coefficients canonical in
    [1, q), strides positive, sorted by descending stride.  The operator
    is independent of any particular map; theta = p^(m0 + m - 1) is the
    scale at which the congruence it encodes holds.  order, q and every
    stride and theta stay within the module's bounds (_MAX_ORDER,
    _MAX_MODULUS, _MAX_STRIDE).
    """

    p: int
    m: int
    order: int
    theta: int
    terms: tuple

    @property
    def q(self) -> int:
        return self.p**self.m

    def __post_init__(self):
        for name, least in (("p", 2), ("m", 1), ("order", 1), ("theta", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        _check_bounds(self.p, self.m, self.order)
        if self.theta > _MAX_STRIDE:
            raise ValueError(f"theta must be <= {_MAX_STRIDE}")
        q = self.q
        for coeff, stride in self.terms:
            if not 0 < coeff < q:
                raise ValueError(f"coefficient {coeff} not canonical mod {q}")
            if stride < 1:
                raise ValueError("strides must be positive")
            if stride > _MAX_STRIDE:
                raise ValueError(f"strides must be <= {_MAX_STRIDE}")


def _p_adic_split(j: int, p: int):
    e = 0
    while j % p == 0:
        j //= p
        e += 1
    return e, j


def _operator_terms(p: int, m: int, m0: int, memo: dict) -> dict:
    """Strides -> coefficients mod p^m for the modulus-p^m operator of
    width p^m0, by recursion on m.

    Start from the single top-stride difference; every smaller multiple
    j = p^m1 * j' of the base step either has its binomial weight killed
    by q, or contributes the modulus-p^(m1+m-m0) operator derived by j'.
    """
    key = (p, m)
    if key in memo:
        return memo[key]
    q = p**m
    width = p**m0
    out = {p ** (m - 1): 1}
    for j in range(1, width):
        m1, jp = _p_adic_split(j, p)
        m_inner = m1 + m - m0
        if m_inner <= 0:
            continue  # binomial weight divisible by q
        inner = _operator_terms(p, m_inner, m0, memo)
        weight = -((-1) ** (width - j)) * math.comb(width, j)
        for stride, coeff in inner.items():
            k = stride * jp
            out[k] = (out.get(k, 0) + weight * coeff) % q
    out = {s: c % q for s, c in out.items() if c % q}
    memo[key] = out
    return out


def build_diff_operator(p: int, m: int, min_order: int) -> DiffOperator:
    """The universal reduction operator for modulus p^m.

    The difference order is the least positive power p^m0 (m0 >= 1) that
    is >= min_order; theta comes out as p^(m0 + m - 1).  The result is a
    pure formal expression: building it never consults any map.  An
    operator outside the module's bounds raises before any term is built.
    """
    if m < 1:
        raise ValueError("modulus exponent must be >= 1")
    if min_order < 1:
        raise ValueError("minimum order must be >= 1")
    # the order is at least min_order; bounds first, as is_prime's cost grows with p
    _check_bounds(p, m, min_order)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m0 = 1
    while p**m0 < min_order:
        m0 += 1
    _check_bounds(p, m, p**m0)
    terms = _operator_terms(p, m, m0, {})
    ordered = tuple(
        (terms[s], s) for s in sorted(terms, reverse=True)
    )
    return DiffOperator(
        p=p, m=m, order=p**m0, theta=p ** (m0 + m - 1), terms=ordered
    )


class _LazyColumn:
    """column[v] = read(rows[v]), computed only for the v asked for."""

    __slots__ = ("rows", "read")

    def __init__(self, rows, read):
        self.rows, self.read = rows, read

    def __getitem__(self, v: int):
        return self.read(self.rows[v])


def _diagonal_sums(
    op: DiffOperator, memo: dict, values, y: int, points=None
) -> list:
    """Exact sums of the operator on the integer table values at
    (x; y, ..., y), for each base point x in points (default: every base
    point of memo[1], a power memo as for iterated_table).  With all
    increments equal, each difference is a binomially weighted sum along
    column y of its iterated table, walked for the given points together;
    only the values at points visited are read.
    """
    order = op.order
    weights = [(-1) ** (order - k) * math.comb(order, k) for k in range(order + 1)]
    if points is None:
        points = range(len(memo[1]))
    sums = [0] * len(points)
    for coeff, stride in op.terms:
        table = iterated_table(memo, stride)
        # copying column y costs a pass over S: it pays only when every
        # point walks, and a single-point walk must not pay it
        if len(points) == len(table):
            column = [row[y] for row in table]
        else:
            column = _LazyColumn(table, operator.itemgetter(y))
        walk = points
        for k, w in enumerate(weights):
            if k:
                walk = [column[v] for v in walk]
            w *= coeff
            sums = [s + w * values[v] for s, v in zip(sums, walk)]
    return sums


def evaluate_diagonal(
    op: DiffOperator, f: GValuedMap, x: int, y: int
) -> GroupElement:
    """The operator applied to f at (x; y, ..., y), exact in f.target.

    A view of _diagonal_sums, the one diagonal evaluator, at the single
    base point x, so it reads only the points the walk visits:
    build_ladder, check_congruence and this function all use it.
    Coefficients enter as their canonical integer representatives.
    """
    if not 0 <= x < f.algebra.s_size:
        raise ValueError("base point outside S")
    if not 0 <= y < f.algebra.t_size:
        raise ValueError("increment outside T")
    memo = f.algebra._iterates
    return f.target.element(
        [
            _diagonal_sums(
                op, memo, _LazyColumn(f.table, lambda v, r=r: v.coords[r]), y, (x,)
            )[0]
            for r in range(f.target.rank)
        ]
    )


def check_congruence(op: DiffOperator, f: GValuedMap) -> AuditReport:
    """Exhaustive audit of f(x +_theta y) = f(x) + op(f)(x; y, .., y) mod q.

    Sweeps every (x, y) in S x T and reports, in row-major order, each
    pair where the residual falls outside q times the target group.  An
    empty violation list is the certificate that the operator reduces
    correctly for this f.
    """
    memo = f.algebra._iterates
    theta_table = iterated_table(memo, op.theta)
    t_size = f.algebra.t_size
    columns = list(zip(*(v.coords for v in f.table)))
    diagonals = [
        [_diagonal_sums(op, memo, col, y) for y in range(t_size)]
        for col in columns
    ]
    moduli = [math.gcd(op.q, order) for order in f.target.orders]
    violations = []
    for x, row in enumerate(theta_table):
        for y, z in enumerate(row):
            residual = [
                col[z] - col[x] - diag[y][x] for col, diag in zip(columns, diagonals)
            ]
            if any(c % n for c, n in zip(residual, moduli)):
                violations.append((x, y, f.target.element(residual)))
    return AuditReport(
        checks=f.algebra.s_size * t_size, violations=tuple(violations)
    )


def random_algebra(rng, max_s: int = 6, max_t: int = 6) -> ActionAlgebra:
    """Uniformly random operation table with a right-sided zero."""
    s = rng.randint(1, max_s)
    t = rng.randint(1, max_t)
    zero = rng.randrange(t)
    op = [
        [x if y == zero else rng.randrange(s) for y in range(t)]
        for x in range(s)
    ]
    return ActionAlgebra(op, zero)


def random_map(rng, algebra: ActionAlgebra, target: FgAbGroup) -> GValuedMap:
    values = []
    for _ in range(algebra.s_size):
        coords = [
            rng.randrange(q) if q else rng.randint(-9, 9) for q in target.orders
        ]
        values.append(target.element(coords))
    return GValuedMap(algebra, target, values)
