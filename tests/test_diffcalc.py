import itertools
import math
import random
import time

import pytest

from extdecide.abelian import FgAbGroup
from extdecide.diffcalc import (
    _MAX_MODULUS,
    _MAX_ORDER,
    _MAX_STRIDE,
    ActionAlgebra,
    DiffOperator,
    GValuedMap,
    build_diff_operator,
    check_congruence,
    derive,
    difference,
    evaluate_diagonal,
    random_algebra,
    random_map,
)


def cyclic_action(n):
    """Z/n acting on itself by addition."""
    return ActionAlgebra([[(x + y) % n for y in range(n)] for x in range(n)], 0)


def subset_difference_oracle(f, order, stride, x, ys):
    """Direct expansion over explicit subsets, independent of the library
    evaluator: apply each chosen increment `stride` times, one by one."""
    total = f.target.zero()
    for k in range(order + 1):
        for subset in itertools.combinations(range(order), k):
            point = x
            for i in subset:
                for _ in range(stride):
                    point = f.algebra.op[point][ys[i]]
            total = total + (-1) ** (order - k) * f.table[point]
    return total


class TestActionAlgebra:
    def test_right_zero_enforced(self):
        with pytest.raises(ValueError):
            ActionAlgebra([[1, 0], [1, 1]], 0)

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            ActionAlgebra([[0, 5]], 0)

    def test_derive_once_is_identity(self):
        rng = random.Random(3)
        a = random_algebra(rng)
        assert derive(a, 1) == a

    def test_derive_doubling_on_z4(self):
        a = cyclic_action(4)
        d = derive(a, 2)
        for x in range(4):
            for y in range(4):
                assert d.op[x][y] == (x + 2 * y) % 4

    @pytest.mark.parametrize("seed", range(10))
    def test_derive_multiplicative(self, seed):
        rng = random.Random(seed)
        a = random_algebra(rng)
        s, t = rng.randint(1, 5), rng.randint(1, 5)
        assert derive(derive(a, s), t) == derive(a, s * t)

    def test_iterated_matches_stepping(self):
        rng = random.Random(99)
        a = random_algebra(rng)
        for times in (1, 2, 3, 7, 12):
            table = a.iterated(times)
            for x in range(a.s_size):
                for y in range(a.t_size):
                    point = x
                    for _ in range(times):
                        point = a.op[point][y]
                    assert table[x][y] == point


class TestDifference:
    def test_order_one(self):
        a = cyclic_action(5)
        g = FgAbGroup((7,))
        rng = random.Random(0)
        f = random_map(rng, a, g)
        for x in range(5):
            for y in range(5):
                expect = f.table[(x + y) % 5] - f.table[x]
                assert difference(f, 1, 1, x, [y]) == expect

    def test_order_two_expansion(self):
        rng = random.Random(7)
        a = random_algebra(rng, max_s=4, max_t=4)
        f = random_map(rng, a, FgAbGroup((9,)))
        for x in range(a.s_size):
            for y1 in range(a.t_size):
                for y2 in range(a.t_size):
                    got = difference(f, 2, 1, x, [y1, y2])
                    assert got == subset_difference_oracle(f, 2, 1, x, [y1, y2])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_subset_oracle(self, seed):
        rng = random.Random(100 + seed)
        a = random_algebra(rng, max_s=5, max_t=4)
        f = random_map(rng, a, FgAbGroup((4, 6)))
        order = rng.randint(1, 3)
        stride = rng.randint(1, 4)
        for _ in range(10):
            x = rng.randrange(a.s_size)
            ys = [rng.randrange(a.t_size) for _ in range(order)]
            assert difference(f, order, stride, x, ys) == subset_difference_oracle(
                f, order, stride, x, ys
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_vanishes_on_zero_increment(self, seed):
        rng = random.Random(200 + seed)
        a = random_algebra(rng)
        f = random_map(rng, a, FgAbGroup((8,)))
        order = rng.randint(1, 4)
        stride = rng.randint(1, 3)
        for _ in range(10):
            ys = [rng.randrange(a.t_size) for _ in range(order)]
            ys[rng.randrange(order)] = a.zero
            x = rng.randrange(a.s_size)
            assert difference(f, order, stride, x, ys).is_zero

    def test_length_mismatch(self):
        a = cyclic_action(3)
        f = random_map(random.Random(1), a, FgAbGroup((3,)))
        with pytest.raises(ValueError):
            difference(f, 2, 1, 0, [1])


class TestBuildOperator:
    def test_worked_example_mod4(self):
        op = build_diff_operator(2, 2, 4)
        assert op.order == 4
        assert op.theta == 8
        assert op.terms == ((1, 2), (2, 1))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("min_order", [1, 2, 3])
    def test_base_modulus_single_term(self, p, min_order):
        op = build_diff_operator(p, 1, min_order)
        assert op.terms == ((1, 1),)
        assert op.theta == op.order  # theta = p^(m0 + 1 - 1)

    def test_order_selection(self):
        assert build_diff_operator(2, 1, 3).order == 4
        assert build_diff_operator(3, 1, 3).order == 3
        # the order never drops below p itself
        assert build_diff_operator(5, 2, 1).order == 5
        assert build_diff_operator(5, 1, 1).theta == 5

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            build_diff_operator(6, 1, 1)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            build_diff_operator(2, 0, 1)

    def test_deterministic(self):
        assert build_diff_operator(3, 3, 2) == build_diff_operator(3, 3, 2)

    def test_mod9_by_congruence_only(self):
        # no hand-computed table for this one; the congruence is the contract
        op = build_diff_operator(3, 2, 2)
        assert op.order == 3 and op.theta == 9
        rng = random.Random(42)
        for _ in range(10):
            a = random_algebra(rng, max_s=5, max_t=5)
            f = random_map(rng, a, FgAbGroup((9,)))
            assert check_congruence(op, f).ok


class TestOperatorBounds:
    def test_benchmark_grid_and_largest_build(self):
        for p in (2, 3, 5, 7):
            for m in (1, 2, 3, 4):
                build_diff_operator(p, m, 2)
        op = build_diff_operator(2, 16, _MAX_ORDER)
        assert op.order == _MAX_ORDER and op.q == _MAX_MODULUS
        assert max(s for _, s in op.terms) <= op.theta <= _MAX_STRIDE

    @pytest.mark.parametrize(
        "p, m, min_order, message",
        [
            (2, 1, 10**9, "order"),
            (2, 1, _MAX_ORDER + 1, "order"),
            (3, 1, 28, "order"),  # rounds up to 81
            (67, 1, 1, "order"),  # the order is at least p
            (2, 10**5, 2, "modulus"),
            (2, 17, 2, "modulus"),
            (61, 3, 61, "modulus"),
        ],
    )
    def test_build_rejects_quickly(self, p, m, min_order, message):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            build_diff_operator(p, m, min_order)
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"order": 10**9}, "order"),
            ({"m": 10**6}, "modulus"),
            ({"p": 2**17, "m": 1, "terms": ((1, 1),)}, "modulus"),
            ({"theta": _MAX_STRIDE + 1}, "theta"),
            ({"terms": ((1, _MAX_STRIDE + 1),)}, "strides"),
        ],
    )
    def test_operator_rejects(self, fields, message):
        base = dict(p=2, m=2, order=4, theta=8, terms=((1, 2), (2, 1)))
        with pytest.raises(ValueError, match=message):
            DiffOperator(**{**base, **fields})


class TestEvaluateDiagonal:
    def test_zero_increment_gives_exact_zero(self):
        rng = random.Random(5)
        op = build_diff_operator(2, 2, 4)
        for _ in range(10):
            a = random_algebra(rng)
            f = random_map(rng, a, FgAbGroup((4,)))
            for x in range(a.s_size):
                assert evaluate_diagonal(op, f, x, a.zero).is_zero

    def test_single_term_operator(self):
        op = DiffOperator(p=2, m=1, order=1, theta=1, terms=((1, 1),))
        a = cyclic_action(6)
        f = random_map(random.Random(8), a, FgAbGroup((12,)))
        for x in range(6):
            for y in range(6):
                assert evaluate_diagonal(op, f, x, y) == f.table[(x + y) % 6] - f.table[x]

    def test_worked_example_on_z16(self):
        # over Z/16 with plain addition, the mod-4 operator at theta=8
        # reduces f(x + 8y) - f(x) mod 4, exhaustively over 256 pairs
        op = build_diff_operator(2, 2, 4)
        a = cyclic_action(16)
        g = FgAbGroup((16,))
        rng = random.Random(11)
        f = random_map(rng, a, g)
        for x in range(16):
            for y in range(16):
                got = evaluate_diagonal(op, f, x, y)
                expect = f.table[(x + 8 * y) % 16] - f.table[x]
                assert all(c % 4 == 0 for c in (got - expect).coords)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_subset_sum_definition(self, seed):
        rng = random.Random(300 + seed)
        op = build_diff_operator(rng.choice([2, 3]), rng.randint(1, 2), rng.randint(1, 3))
        a = random_algebra(rng, max_s=4, max_t=4)
        f = random_map(rng, a, FgAbGroup((op.q, 2 * op.q)))
        base = rng.randint(1, 3)
        scaled = GValuedMap(derive(a, base), f.target, f.table)
        for x in range(a.s_size):
            for y in range(a.t_size):
                direct = f.target.zero()
                for coeff, stride in op.terms:
                    direct = direct + coeff * difference(
                        f, op.order, stride * base, x, [y] * op.order
                    )
                assert evaluate_diagonal(op, scaled, x, y) == direct


class TestCongruence:
    def test_mod2_identity(self):
        rng = random.Random(13)
        op = build_diff_operator(2, 1, 2)
        for _ in range(10):
            a = random_algebra(rng)
            f = random_map(rng, a, FgAbGroup((2,)))
            report = check_congruence(op, f)
            assert report.ok and report.checks == a.s_size * a.t_size

    def test_worked_example_sweep(self):
        rng = random.Random(17)
        op = build_diff_operator(2, 2, 4)
        for _ in range(50):
            a = random_algebra(rng)
            f = random_map(rng, a, FgAbGroup((4,)))
            assert check_congruence(op, f).ok

    def test_operator_is_map_independent(self):
        # built once, correct for many maps and algebras
        op = build_diff_operator(3, 2, 1)
        rng = random.Random(19)
        for _ in range(20):
            a = random_algebra(rng, max_s=5, max_t=5)
            for g in (FgAbGroup((9,)), FgAbGroup((9, 9)), FgAbGroup((18,))):
                assert check_congruence(op, random_map(rng, a, g)).ok

    def test_corrupted_coefficient_detected(self):
        good = build_diff_operator(2, 2, 4)
        bad = DiffOperator(
            p=2, m=2, order=4, theta=8,
            terms=tuple((3 if c == 2 else c, s) for c, s in good.terms),
        )
        rng = random.Random(23)
        for trial in range(100):
            a = random_algebra(rng)
            f = random_map(rng, a, FgAbGroup((4,)))
            if not check_congruence(bad, f).ok:
                return
        pytest.fail("corrupted operator slipped through 100 random maps")

    def test_violation_details_recorded(self):
        bad = DiffOperator(p=2, m=2, order=1, theta=2, terms=((1, 1),))
        a = cyclic_action(4)
        f = GValuedMap(
            a, FgAbGroup((4,)), [FgAbGroup((4,)).element((v,)) for v in (0, 1, 0, 0)]
        )
        maps = [f]
        rng = random.Random(29)
        for _ in range(20):
            algebra = random_algebra(rng, max_s=5, max_t=5)
            for g in (FgAbGroup((4, 4)), FgAbGroup((0, 4))):
                maps.append(random_map(rng, algebra, g))
        reports = [check_congruence(bad, h) for h in maps]
        for h, report in zip(maps, reports):
            assert report.violations == reference_violations(bad, h)
            assert report.checks == h.algebra.s_size * h.algebra.t_size
        assert not reports[0].ok
        # the comparisons are not between empty lists
        assert sum(len(r.violations) for r in reports) > len(maps)


def reference_violations(op, f):
    """Row-major (x, y, residual) triples where f(x +_theta y) - f(x) minus
    the operator, summed from subset differences, is not in q*G."""
    theta_table = f.algebra.iterated(op.theta)
    out = []
    for x in range(f.algebra.s_size):
        for y in range(f.algebra.t_size):
            diagonal = f.target.zero()
            for coeff, stride in op.terms:
                diagonal = diagonal + coeff * difference(
                    f, op.order, stride, x, [y] * op.order
                )
            residual = f.table[theta_table[x][y]] - f.table[x] - diagonal
            if any(
                c % math.gcd(op.q, n)
                for c, n in zip(residual.coords, f.target.orders)
            ):
                out.append((x, y, residual))
    return tuple(out)
