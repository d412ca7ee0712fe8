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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from sympy import isprime

from .abelian import FgAbGroup, GroupElement

__all__ = [
    "ActionAlgebra",
    "GValuedMap",
    "DiffOperator",
    "CongruenceReport",
    "difference",
    "derive",
    "build_diff_operator",
    "evaluate_diagonal",
    "check_congruence",
    "random_algebra",
    "random_map",
]


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

    def apply(self, x: int, y: int, times: int = 1) -> int:
        return self.iterated(times)[x][y]

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
    scale at which the congruence it encodes holds.
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
        q = self.q
        for coeff, stride in self.terms:
            if not 0 < coeff < q:
                raise ValueError(f"coefficient {coeff} not canonical mod {q}")
            if stride < 1:
                raise ValueError("strides must be positive")


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
    pure formal expression: building it never consults any map.
    """
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("modulus exponent must be >= 1")
    if min_order < 1:
        raise ValueError("minimum order must be >= 1")
    m0 = 1
    while p**m0 < min_order:
        m0 += 1
    terms = _operator_terms(p, m, m0, {})
    ordered = tuple(
        (terms[s], s) for s in sorted(terms, reverse=True)
    )
    return DiffOperator(
        p=p, m=m, order=p**m0, theta=p ** (m0 + m - 1), terms=ordered
    )


def evaluate_diagonal(
    op: DiffOperator, f: GValuedMap, x: int, y: int, base_stride: int = 1
) -> GroupElement:
    """The operator applied to f at (x; y, ..., y), strides scaled by
    base_stride.

    With all increments equal, the subset sum of each difference collapses
    to binomially weighted values along the iterated action, so only
    order+1 points are read per term.  Coefficients are lifted to their
    canonical integer representatives before scalar multiplication.
    """
    if not 0 <= x < f.algebra.s_size:
        raise ValueError("base point outside S")
    if not 0 <= y < f.algebra.t_size:
        raise ValueError("increment outside T")
    if base_stride < 1:
        raise ValueError("base stride must be positive")
    order = op.order
    binom = [math.comb(order, k) for k in range(order + 1)]
    rank = f.target.rank
    total = [0] * rank
    for coeff, stride in op.terms:
        table = f.algebra.iterated(stride * base_stride)
        point = x
        for k in range(order + 1):
            w = coeff * binom[k] * (-1 if (order - k) % 2 else 1)
            coords = f.table[point].coords
            for r in range(rank):
                total[r] += w * coords[r]
            if k < order:
                point = table[point][y]
    return f.target.element(total)


def _in_multiples(elem: GroupElement, n: int) -> bool:
    """Whether elem lies in n*G, coordinate by coordinate."""
    for c, q in zip(elem.coords, elem.group.orders):
        if c % math.gcd(n, q):
            return False
    return True


@dataclass(frozen=True)
class CongruenceReport:
    checks: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_congruence(op: DiffOperator, f: GValuedMap) -> CongruenceReport:
    """Exhaustive audit of f(x +_theta y) = f(x) + op(f)(x; y, .., y) mod q.

    Sweeps every (x, y) in S x T and reports each pair where the residual
    falls outside q times the target group.  An empty violation list is
    the certificate that the operator reduces correctly for this f.
    """
    q = op.q
    theta_table = f.algebra.iterated(op.theta)
    violations = []
    checks = 0
    for x in range(f.algebra.s_size):
        fx = f.table[x]
        for y in range(f.algebra.t_size):
            checks += 1
            residual = (
                f.table[theta_table[x][y]]
                - fx
                - evaluate_diagonal(op, f, x, y)
            )
            if not _in_multiples(residual, q):
                violations.append((x, y, residual))
    return CongruenceReport(checks=checks, violations=tuple(violations))


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
