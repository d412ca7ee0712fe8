import dataclasses
import random
import time

import pytest

from extdecide.abelian import FgAbGroup
from extdecide.diffcalc import ActionAlgebra, GValuedMap, evaluate_diagonal
from extdecide.tower import (
    ActionLadder,
    Layer,
    TowerModel,
    build_ladder,
    enumerate_lifts,
    random_tower,
    stage_act,
    verify_ladder,
)


# a 140-bit semiprime, 3 * 2^68 + 59 times 5 * 2^68 + 87 (both prime):
# no prime power, and slow to factor
SEMIPRIME = (3 * 2**68 + 59) * (5 * 2**68 + 87)


def flat_tower(ground_orders, qs, value=0):
    """Tower with constant kappa tables."""
    ground = FgAbGroup(ground_orders)
    layers = []
    size = ground.size
    for q in qs:
        layers.append(Layer(q=q, kappa=[value % q] * size))
        size *= q
    return TowerModel(ground, layers)


class TestCarriers:
    def test_no_layers(self):
        t = TowerModel(FgAbGroup((4,)))
        assert t.sizes == (4,)
        assert t.carriers() == [t.ground_elements]

    def test_single_layer_count(self):
        t = flat_tower((2,), [2])
        assert t.sizes == (2, 4)

    def test_two_layer_counts(self):
        t = flat_tower((2,), [2, 3])
        assert t.sizes == (2, 4, 12)

    def test_membership_encoding(self):
        rng = random.Random(4)
        t = random_tower(rng)
        for stage in range(1, t.depth + 1):
            q = t.layers[stage - 1].q
            for idx in range(t.size(stage)):
                c = t.fiber_value(stage, idx)
                parent = t.parent(stage, idx)
                assert c % q == t.layers[stage - 1].kappa[parent]
                assert t.index_of_pair(stage, parent, c) == idx

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            Layer(q=6, kappa=[0, 0])

    def test_semiprime_rejected_quickly(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="not a prime power"):
            Layer(q=SEMIPRIME, kappa=[0, 0])
        assert time.perf_counter() - started < 2.0

    def test_stage_size_capped(self):
        # size(stage) x size(0) at most 200,000: the largest tower_audit
        # shapes, 16 x 16 x 27 x 25 = 172,800, still fit
        for ground in ((16,), (2, 8)):
            assert flat_tower(ground, [27, 25]).sizes == (16, 432, 10800)
        with pytest.raises(ValueError, match="stage 2 too large"):
            flat_tower((16,), [27, 29])  # 200,448 entries
        with pytest.raises(ValueError, match="stage 1 too large"):
            TowerModel(FgAbGroup((4,)), [Layer(q=2**61, kappa=[0] * 4)])
        with pytest.raises(ValueError, match="stage 0 too large"):
            TowerModel(FgAbGroup((448,)))

    def test_kappa_length_checked(self):
        with pytest.raises(ValueError):
            TowerModel(FgAbGroup((2,)), [Layer(q=2, kappa=[0, 0, 0])])

    def test_infinite_ground_rejected(self):
        with pytest.raises(ValueError):
            TowerModel(FgAbGroup((0,)))


class TestBuildLadder:
    def test_zero_kappa_gives_zero_twist(self):
        t = flat_tower((2,), [2], value=0)
        ladder = build_ladder(t, min_order=2)
        assert all(v == 0 for row in ladder.twists[0] for v in row)
        assert verify_ladder(t, ladder).ok

    def test_scale_arithmetic_small(self):
        t = flat_tower((2,), [2])
        ladder = build_ladder(t, min_order=2)
        assert ladder.thetas == (2,)  # order 2, theta = 2^(1+1-1)

    def test_worked_example_layer(self):
        t = flat_tower((2,), [4])
        ladder = build_ladder(t, min_order=4)
        op = ladder.ops[0]
        assert op.terms == ((1, 2), (2, 1))
        assert ladder.thetas == (8,)

    def test_scale_product(self):
        t = flat_tower((2,), [2, 4])
        ladder = build_ladder(t, min_order=2)
        # layer moduli 2 then 4 at min order 2: thetas 2 and 2 * theta(4, 2)
        assert ladder.thetas[0] == 2
        assert ladder.thetas[1] == ladder.ops[1].theta * 2
        assert ladder.common_theta == ladder.thetas[1]

    def test_common_theta_no_layers(self):
        t = TowerModel(FgAbGroup((2, 2)))
        ladder = build_ladder(t)
        assert ladder.common_theta == 1
        assert verify_ladder(t, ladder).ok

    @pytest.mark.parametrize("min_order", [2, 3])
    def test_twists_match_per_point_evaluation(self, min_order):
        # each twist is the layer operator evaluated diagonally on kappa,
        # over the one-step action of the stage below, reduced into Z/q
        for seed in range(60):
            t = random_tower(random.Random(seed), max_layers=3)
            ladder = build_ladder(t, min_order=min_order)
            for stage, (op, layer) in enumerate(zip(ladder.ops, t.layers), 1):
                algebra = ActionAlgebra(ladder.step_tables[stage - 1], t.ground_zero)
                target = FgAbGroup((layer.q,))
                kmap = GValuedMap(
                    algebra, target, [target.element((v,)) for v in layer.kappa]
                )
                expect = tuple(
                    tuple(
                        evaluate_diagonal(op, kmap, x, y).coords[0]
                        for y in range(t.size(0))
                    )
                    for x in range(t.size(stage - 1))
                )
                assert ladder.twists[stage - 1] == expect, (seed, stage)

    def test_theta_divisibility(self):
        rng = random.Random(21)
        for _ in range(20):
            t = random_tower(rng)
            ladder = build_ladder(t, min_order=2)
            prev = 1
            for th in ladder.thetas:
                assert th % prev == 0
                prev = th
            assert all(ladder.common_theta % th == 0 for th in ladder.thetas)


class TestStageAct:
    def test_right_zero(self):
        rng = random.Random(31)
        t = random_tower(rng)
        ladder = build_ladder(t)
        for stage in range(t.depth + 1):
            base = ladder.stage_theta(stage)
            for x in range(t.size(stage)):
                assert stage_act(t, ladder, stage, x, t.ground_zero, base) == x

    def test_ground_stage_is_scalar_translation(self):
        t = TowerModel(FgAbGroup((5,)))
        ladder = build_ladder(t)
        for x in range(5):
            for y in range(5):
                for scale in (1, 2, 7, 10**18):
                    got = stage_act(t, ladder, 0, x, y, scale)
                    assert got == (x + scale * y) % 5

    def test_scale_must_be_multiple(self):
        t = flat_tower((2,), [2])
        ladder = build_ladder(t, min_order=2)
        with pytest.raises(ValueError):
            stage_act(t, ladder, 1, 0, 0, 3)  # stage scale is 2

    def test_fiber_constraint_after_acting(self):
        rng = random.Random(37)
        for _ in range(10):
            t = random_tower(rng)
            ladder = build_ladder(t)
            for stage in range(1, t.depth + 1):
                q = t.layers[stage - 1].q
                kappa = t.layers[stage - 1].kappa
                for x in range(t.size(stage)):
                    for y in range(t.size(0)):
                        r = stage_act(
                            t, ladder, stage, x, y, ladder.stage_theta(stage)
                        )
                        assert t.fiber_value(stage, r) % q == kappa[t.parent(stage, r)]

    def test_projection_commutes(self):
        rng = random.Random(41)
        t = random_tower(rng)
        ladder = build_ladder(t)
        theta = ladder.common_theta
        for stage in range(1, t.depth + 1):
            for x in range(t.size(stage)):
                for y in range(t.size(0)):
                    acted = stage_act(t, ladder, stage, x, y, theta)
                    below = stage_act(
                        t, ladder, stage - 1, t.parent(stage, x), y, theta
                    )
                    assert t.parent(stage, acted) == below


class TestEnumerateLifts:
    def test_single_point_fiber(self):
        t = flat_tower((2,), [2])
        lifts = enumerate_lifts(t, ["w"], {"w": 1}, 1)
        assert len(lifts) == 2
        assert all(t.parent(1, lift["w"]) == 1 for lift in lifts)

    def test_two_points_through_two_layers(self):
        t = flat_tower((2,), [2, 3])
        labels = ["a", "b"]
        first = enumerate_lifts(t, labels, {"a": 0, "b": 1}, 1)
        assert len(first) == 4
        total = [
            top for lift in first for top in enumerate_lifts(t, labels, lift, 2)
        ]
        assert len(total) == 36

    def test_lifts_satisfy_membership(self):
        rng = random.Random(43)
        t = random_tower(rng)
        labels = list(range(2))
        assignment = {w: rng.randrange(t.size(0)) for w in labels}
        for lift in enumerate_lifts(t, labels, assignment, 1):
            for w in labels:
                idx = lift[w]
                assert t.parent(1, idx) == assignment[w]
                # decoding the index re-checks the kappa constraint
                t.index_of_pair(1, assignment[w], t.fiber_value(1, idx))


class TestVerifyLadder:
    def test_untwisted_tower_clean(self):
        t = flat_tower((2, 2), [2, 3], value=0)
        ladder = build_ladder(t)
        report = verify_ladder(t, ladder)
        assert report.ok and report.checks > 0

    @pytest.mark.parametrize("seed", range(25))
    def test_random_towers_clean(self, seed):
        rng = random.Random(1000 + seed)
        t = random_tower(rng)
        ladder = build_ladder(t, min_order=2)
        assert verify_ladder(t, ladder).ok

    def test_corrupted_twist_detected(self):
        rng = random.Random(77)
        t = random_tower(rng)
        ladder = build_ladder(t)
        twist0 = [list(row) for row in ladder.twists[0]]
        y = 1 % t.size(0)
        twist0[0][y] += 1  # any shift off the modulus grid breaks membership
        corrupted = dataclasses.replace(
            ladder,
            twists=(tuple(tuple(r) for r in twist0),) + ladder.twists[1:],
        )
        report = verify_ladder(t, corrupted)
        assert not report.ok
        assert any(v[0] == "fiber" for v in report.violations)

    def test_corrupted_twist_at_zero_detected(self):
        t = flat_tower((3,), [3])
        ladder = build_ladder(t)
        twist0 = [list(row) for row in ladder.twists[0]]
        twist0[0][t.ground_zero] += 3  # stays on the grid, breaks the zero law
        corrupted = dataclasses.replace(
            ladder, twists=(tuple(tuple(r) for r in twist0),)
        )
        report = verify_ladder(t, corrupted)
        assert any(v[0] in ("twist_at_zero", "right_zero") for v in report.violations)

    def test_step_tables_raise_on_bad_twist(self):
        t = flat_tower((2,), [2])
        ladder = build_ladder(t)
        twist0 = [list(row) for row in ladder.twists[0]]
        twist0[0][1] += 1
        corrupted = dataclasses.replace(
            ladder, twists=(tuple(tuple(r) for r in twist0),)
        )
        with pytest.raises(ValueError):
            corrupted.step_tables
