import itertools
import math
import random

import pytest

from extdecide.abelian import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    GroupMismatchError,
    kernel,
    primary_decomposition,
    snf,
    solve,
)


# --- independent oracles, kept free of the library's linear algebra ---

def det_oracle(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_oracle(minor)
    return total


def minor_gcds(m):
    """gcd of all k x k minors, for k = 1 .. min(rows, cols)."""
    rows, cols = len(m), len(m[0]) if m else 0
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det_oracle(sub))
        out.append(g)
    return out


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_matrix(rng, max_dim=5, lo=-9, hi=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def assert_snf_valid(a):
    res = snf(a)
    rows, cols = len(a), len(a[0]) if a else 0
    assert abs(det_oracle([list(r) for r in res.U])) == 1
    assert abs(det_oracle([list(r) for r in res.V])) == 1
    d = mat_mul(mat_mul([list(r) for r in res.U], a), [list(r) for r in res.V])
    assert d == [list(r) for r in res.D]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(v >= 0 for v in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # invariant factors agree with the gcd-of-minors ladder
    gs = minor_gcds(a)
    prev = 1
    for dk, gk in zip(diag, gs):
        if prev == 0:
            assert dk == 0
        else:
            assert dk == gk // prev if gk else dk == 0
        prev = gk
    return res


class TestSnf:
    def test_zero_matrix(self):
        res = snf([[0]])
        assert res.D == ((0,),)

    def test_identity(self):
        res = snf([[1, 0], [0, 1]])
        assert res.D == ((1, 0), (0, 1))

    def test_frozen_example(self):
        # gcd of entries is 2, |det| = 8, so the invariant factors are 2, 4
        res = snf([[2, 4], [6, 8]])
        assert res.diagonal == (2, 4)

    def test_empty_shapes(self):
        res = snf([])
        assert res.D == ()
        res = snf([[], []])
        assert res.D == ((), ())

    def test_random_suite_against_minor_gcds(self):
        rng = random.Random(1729)
        for _ in range(120):
            assert_snf_valid(random_matrix(rng))

    def test_deterministic(self):
        a = [[3, 1, -4], [2, 0, 5]]
        assert snf(a) == snf(a)


class TestGroupBasics:
    def test_trivial_summands_dropped(self):
        g = FgAbGroup((2, 1, 3, 1))
        assert g.orders == (2, 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            FgAbGroup((-2,))

    def test_add_in_z4(self):
        g = FgAbGroup((4,))
        assert (g.element((3,)) + g.element((3,))).coords == (2,)

    def test_scalar_mul_in_z5(self):
        g = FgAbGroup((5,))
        assert (-1 * g.element((1,))).coords == (4,)

    def test_mixed_group_add(self):
        g = FgAbGroup((0, 3))
        a = g.element((2, 2))
        b = g.element((-2, 2))
        assert (a + b).coords == (0, 1)

    def test_cross_group_rejected(self):
        a = FgAbGroup((4,)).element((1,))
        b = FgAbGroup((5,)).element((1,))
        with pytest.raises(GroupMismatchError):
            a + b

    def test_enumeration_roundtrip(self):
        g = FgAbGroup((2, 3))
        elems = list(g.elements())
        assert len(elems) == 6
        for i, e in enumerate(elems):
            assert g.index_of(e) == i
            assert g.element_at(i) == e

    def test_exponent(self):
        assert FgAbGroup((4, 6)).exponent() == 12
        assert FgAbGroup(()).exponent() == 1


class TestGroupHom:
    def test_well_definedness_rejected(self):
        # Z/2 -> Z/4 sending the generator to 1 is not a homomorphism
        with pytest.raises(ValueError):
            GroupHom(FgAbGroup((2,)), FgAbGroup((4,)), [[1]])

    def test_matrix_canonicalized(self):
        h = GroupHom(FgAbGroup((2,)), FgAbGroup((4,)), [[6]])
        assert h.matrix == ((2,),)

    def test_apply_and_compose(self):
        g = FgAbGroup((0,))
        h = FgAbGroup((2,))
        red = GroupHom(g, h, [[1]])
        dbl = GroupHom(g, g, [[2]])
        assert red(g.element((3,))).coords == (1,)
        assert red.compose(dbl)(g.element((1,))).coords == (0,)

    def test_identity(self):
        g = FgAbGroup((2, 0))
        ident = GroupHom.identity(g)
        for coords in ((1, 5), (0, -3)):
            assert ident(g.element(coords)) == g.element(coords)


class TestKernel:
    def test_reduction_z_to_z2(self):
        h = GroupHom(FgAbGroup((0,)), FgAbGroup((2,)), [[1]])
        k, inj = kernel(h)
        assert k.orders == (0,)
        assert inj.matrix == ((2,),)

    def test_identity_on_z4(self):
        h = GroupHom.identity(FgAbGroup((4,)))
        k, inj = kernel(h)
        assert k.rank == 0

    def test_reduction_z8_to_z4(self):
        h = GroupHom(FgAbGroup((8,)), FgAbGroup((4,)), [[1]])
        k, inj = kernel(h)
        assert k.orders == (2,)
        assert inj(k.generator(0)).coords == (4,)
        # exhaustive oracle: the kernel is exactly the scan of 8 elements
        scanned = {e for e in h.source.elements() if h(e).is_zero}
        image = {inj(e) for e in k.elements()}
        assert image == scanned

    @pytest.mark.parametrize("seed", range(40))
    def test_random_finite_homs(self, seed):
        rng = random.Random(seed)
        orders = lambda: [rng.choice([2, 3, 4, 8]) for _ in range(rng.randint(1, 2))]
        src, tgt = FgAbGroup(orders()), FgAbGroup(orders())
        m = random_hom_matrix(rng, src, tgt)
        h = GroupHom(src, tgt, m)
        k, inj = kernel(h)
        members = {inj(e) for e in k.elements()}
        scanned = {e for e in src.elements() if h(e).is_zero}
        assert members == scanned
        assert len(members) == k.size  # injectivity
        image = {h(e) for e in src.elements()}
        assert k.size * len(image) == src.size

    def test_kernel_with_free_part(self):
        # projection (a, b) -> b of Z + Z/4 has kernel Z
        src = FgAbGroup((0, 4))
        h = GroupHom(src, FgAbGroup((4,)), [[0, 1]])
        k, inj = kernel(h)
        assert k.orders == (0,)
        assert h(inj(k.generator(0))).is_zero


def random_hom_matrix(rng, src, tgt):
    m = []
    for qt in tgt.orders:
        row = []
        for qs in src.orders:
            if qs == 0:
                row.append(rng.randint(-9, 9))
            elif qt == 0:
                row.append(0)
            else:
                step = qt // math.gcd(qt, qs)
                row.append(step * rng.randrange(qt // step))
        m.append(row)
    return m


class TestSolve:
    def test_reduction_solution(self):
        h = GroupHom(FgAbGroup((0,)), FgAbGroup((2,)), [[1]])
        x = solve(h, h.target.element((1,)))
        assert x is not None and h(x).coords == (1,)

    def test_unsolvable(self):
        g = FgAbGroup((4,))
        h = GroupHom(g, g, [[2]])
        assert solve(h, g.element((1,))) is None
        # exhaustive confirmation
        assert all(h(e).coords != (1,) for e in g.elements())

    def test_zero_map_hits_zero(self):
        g = FgAbGroup((3,))
        h = GroupHom.zero(g, g)
        assert solve(h, g.zero()) == g.zero()
        assert solve(h, g.element((1,))) is None

    def test_into_trivial_group(self):
        h = GroupHom(FgAbGroup((2,)), FgAbGroup(()), [])
        assert solve(h, h.target.zero()) == h.source.zero()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_consistency(self, seed):
        rng = random.Random(10_000 + seed)
        orders = lambda: [rng.choice([0, 2, 3, 4, 9]) for _ in range(rng.randint(1, 3))]
        src, tgt = FgAbGroup(orders()), FgAbGroup(orders())
        h = GroupHom(src, tgt, random_hom_matrix(rng, src, tgt))
        if src.is_finite:
            target = h(src.element_at(rng.randrange(src.size)))
            x = solve(h, target)
            assert x is not None and h(x) == target
        target = tgt.element([rng.randint(-5, 5) for _ in range(tgt.rank)])
        x = solve(h, target)
        if x is not None:
            assert h(x) == target
        elif src.is_finite:
            assert all(h(e) != target for e in src.elements())


class TestPrimaryDecomposition:
    def test_z12(self):
        g, fwd, back = primary_decomposition(FgAbGroup((12,)))
        assert g.orders == (4, 3)
        assert back.compose(fwd) == GroupHom.identity(FgAbGroup((12,)))

    def test_already_prime_power(self):
        g, fwd, back = primary_decomposition(FgAbGroup((8,)))
        assert g.orders == (8,)

    def test_mixed_with_free_part(self):
        src = FgAbGroup((0, 60))
        g, fwd, back = primary_decomposition(src)
        assert g.orders == (0, 4, 3, 5)
        assert back.compose(fwd) == GroupHom.identity(src)
        assert fwd.compose(back) == GroupHom.identity(g)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_roundtrip(self, seed):
        rng = random.Random(20_000 + seed)
        src = FgAbGroup(
            [rng.choice([0, 2, 6, 12, 30, 8, 60, 90]) for _ in range(rng.randint(1, 3))]
        )
        g, fwd, back = primary_decomposition(src)
        assert all(q == 0 or len(factor_orders(q)) == 1 for q in g.orders)
        finite_src = math.prod(q for q in src.orders if q) if src.orders else 1
        finite_dec = math.prod(q for q in g.orders if q) if g.orders else 1
        assert finite_src == finite_dec
        assert back.compose(fwd) == GroupHom.identity(src)
        assert fwd.compose(back) == GroupHom.identity(g)
        for _ in range(100):
            coords = [rng.randint(-20, 20) for _ in range(src.rank)]
            e = src.element(coords)
            assert back(fwd(e)) == e


def factor_orders(q):
    out = {}
    p = 2
    while p * p <= q:
        while q % p == 0:
            out[p] = out.get(p, 0) + 1
            q //= p
        p += 1
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out
