import dataclasses
import random
import time

import pytest

from extdecide.abelian import FgAbGroup, GroupHom
from extdecide.decide import (
    ExtensionInstance,
    GenParams,
    InvalidInstanceError,
    OracleUnavailableError,
    brute_force,
    decide,
    generate_instance,
    representative_set,
    validate_instance,
)


def infinite_ground_instance(theta=10, hit=True):
    """Hand-built instance with gx = Z: restriction is reduction Z -> Z/5,
    so the kernel is 5Z (infinite).  Classes over X sit over a window of
    kernel translates of 0; the action table along the Z generator is the
    identity placeholder (not semantically audited).  The default theta is
    a multiple of 5, so the identity is also the true action on the A side."""
    gx = FgAbGroup((0,))
    ga = FgAbGroup((5,))
    restriction = GroupHom(gx, ga, [[1]])
    target_ground = ga.element((0,))
    points = [5 * k for k in range(-6, 7)]
    x_classes = tuple(range(len(points)))
    proj_x = {i: gx.element((v,)) for i, v in enumerate(points)}
    a_classes = (0, 1)
    proj_a = {0: target_ground, 1: target_ground}
    # only the class over 0 restricts to the target; a miss instance has
    # no hitting class at all
    restrict_class = {
        i: (0 if hit and points[i] == 0 else 1) for i in x_classes
    }
    act_x = {i: (i,) for i in x_classes}
    act_a = {0: (0,), 1: (1,)}
    return ExtensionInstance(
        gx=gx, ga=ga, restriction=restriction, target_ground=target_ground,
        theta=theta, x_classes=x_classes, a_classes=a_classes,
        proj_x=proj_x, proj_a=proj_a, restrict_class=restrict_class,
        target_class=0, act_x=act_x, act_a=act_a,
    )


class TestGenerator:
    @pytest.mark.parametrize("seed", range(60))
    def test_generated_instances_validate(self, seed):
        inst = generate_instance(seed)
        report = validate_instance(inst)
        assert report.ok, report.violations

    def test_deterministic(self):
        a = generate_instance(123, theta=8)
        b = generate_instance(123, theta=8)
        assert a.restrict_class == b.restrict_class
        assert a.target_class == b.target_class
        assert a.restriction == b.restriction

    def test_desired_answers_steer(self):
        yes = no = 0
        for seed in range(30):
            if brute_force(generate_instance(seed, desired="YES")).answer == "YES":
                yes += 1
            if brute_force(generate_instance(seed, desired="NO")).answer == "NO":
                no += 1
        assert yes == 30
        assert no > 15  # NO is best effort; surjective restrictions resist

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(0, params=GenParams(max_classes=2))

    def test_thousand_seed_sweep(self):
        bad = [
            seed for seed in range(1000)
            if not validate_instance(generate_instance(seed)).ok
        ]
        assert bad == []

    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(0, theta=0)


class TestValidate:
    def test_relabel_target_detected(self):
        inst = generate_instance(7, theta=6)
        other = next(
            i for i in inst.a_classes
            if inst.proj_a[i] != inst.proj_a[inst.target_class]
        )
        bad = dataclasses.replace(inst, target_class=other)
        report = validate_instance(bad)
        assert any(v[0] == "target_projection" for v in report.violations)

    def test_corrupted_action_detected(self):
        inst = generate_instance(11, theta=4)
        g0 = inst.x_classes[0]
        # redirect one action entry to a class over a different ground point
        target_proj = inst.proj_x[inst.act_x[g0][0]]
        other = next(
            i for i in inst.x_classes if inst.proj_x[i] != target_proj
        )
        act_x = dict(inst.act_x)
        act_x[g0] = (other,) + act_x[g0][1:]
        bad = dataclasses.replace(inst, act_x=act_x)
        report = validate_instance(bad)
        assert not report.ok

    def test_square_break_detected(self):
        inst = generate_instance(13, theta=4)
        g0 = inst.x_classes[0]
        current = inst.restrict_class[g0]
        other = next(
            i for i in inst.a_classes
            if inst.proj_a[i] != inst.proj_a[current]
        )
        table = dict(inst.restrict_class)
        table[g0] = other
        bad = dataclasses.replace(inst, restrict_class=table)
        report = validate_instance(bad)
        assert any(v[0] in ("square", "restriction_naturality")
                   for v in report.violations)

    def test_generator_order_on_non_bijective_tables(self):
        # the cycle-based order check agrees with walking `order` steps
        for seed in range(20):
            inst = generate_instance(seed)
            rng = random.Random(seed)
            act_x = {
                g: tuple(rng.choice(inst.x_classes) for _ in row)
                for g, row in inst.act_x.items()
            }
            report = validate_instance(dataclasses.replace(inst, act_x=act_x))
            got = [v for v in report.violations if v[0] == "generator_order"]
            expect = []
            for j, order in enumerate(inst.gx.orders):
                for g in inst.x_classes:
                    h = g
                    for _ in range(order):
                        h = act_x[h][j]
                    if h != g:
                        expect.append(("generator_order", "x", j, g))
            assert got == expect

    def test_huge_orders_validate_quickly(self):
        # orders written in the input must not set the amount of work:
        # a walk of 10^18 steps per class would never finish
        n = 10**18
        g = FgAbGroup((n,))
        half = g.element((n // 2,))
        swap = {0: (1,), 1: (0,)}
        inst = ExtensionInstance(
            gx=g, ga=g, restriction=GroupHom(g, g, [[n - 1]]),
            target_ground=half, theta=n // 2,
            x_classes=(0, 1), a_classes=(0, 1),
            proj_x={0: g.zero(), 1: half}, proj_a={0: g.zero(), 1: half},
            restrict_class={0: 0, 1: 1}, target_class=1,
            act_x=swap, act_a=swap,
        )
        started = time.perf_counter()
        report = validate_instance(inst)
        assert time.perf_counter() - started < 2.0
        assert report.ok, report.violations
        assert decide(inst).witness == 1

    def test_infinite_ground_instance_validates(self):
        report = validate_instance(infinite_ground_instance())
        assert report.ok, report.violations


class TestRepresentativeSet:
    def test_infinite_kernel_window(self):
        inst = infinite_ground_instance(theta=10)
        h0, reps = representative_set(inst)
        assert inst.restriction(h0) == inst.target_ground
        assert len(reps) == 11  # z in -5..5 along the kernel generator
        # the window scales with theta: 9 representatives at theta = 8
        _, reps8 = representative_set(dataclasses.replace(inst, theta=8))
        assert len(reps8) == 9

    def test_trivial_kernel(self):
        gx = FgAbGroup((3,))
        inst_like = GroupHom.identity(gx)
        # use a tiny real instance: identity restriction has trivial kernel
        inst = generate_instance(5, theta=8)
        ident = dataclasses.replace(
            inst,
            gx=gx, ga=gx, restriction=inst_like,
            target_ground=gx.element((1,)),
            x_classes=(0, 1, 2), a_classes=(0, 1, 2),
            proj_x={i: gx.element((i,)) for i in range(3)},
            proj_a={i: gx.element((i,)) for i in range(3)},
            restrict_class={i: i for i in range(3)},
            target_class=1,
            act_x={i: ((i + 8) % 3,) for i in range(3)},
            act_a={i: ((i + 8) % 3,) for i in range(3)},
        )
        h0, reps = representative_set(ident)
        assert reps == (h0,)

    def test_z3_kernel_dedup(self):
        # restriction Z/3 + Z/5 -> Z/5 forgetting the first coordinate
        gx = FgAbGroup((3, 5))
        ga = FgAbGroup((5,))
        restriction = GroupHom(gx, ga, [[0, 1]])
        inst = generate_instance(0, theta=8)
        shaped = dataclasses.replace(
            inst, gx=gx, ga=ga, restriction=restriction,
            target_ground=ga.element((2,)),
        )
        h0, reps = representative_set(shaped)
        assert len(reps) == 3
        kernel_elems = {gx.element((k, 0)) for k in range(3)}
        assert {r - h0 for r in reps} == kernel_elems

    @pytest.mark.parametrize("seed", range(30))
    def test_coverage(self, seed):
        """Every element of the solution coset is rep + theta * kernel."""
        inst = generate_instance(seed)
        found = representative_set(inst)
        if found is None:
            assert all(
                inst.restriction(e) != inst.target_ground
                for e in inst.gx.elements()
            )
            return
        h0, reps = found
        from extdecide.abelian import kernel

        ker, inject = kernel(inst.restriction)
        kernel_elems = [inject(e) for e in ker.elements()]
        if len(kernel_elems) > 81:
            pytest.skip("kernel too large for the exhaustive check")
        covered = {rep + inst.theta * k for rep in reps for k in kernel_elems}
        coset = {h0 + k for k in kernel_elems}
        assert coset <= covered


class TestDecide:
    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_brute_force(self, seed):
        inst = generate_instance(
            seed, desired="YES" if seed % 2 else "NO"
        )
        assert validate_instance(inst).ok
        got = decide(inst)
        expect = brute_force(inst)
        assert got.answer == expect.answer
        if got.answer == "YES":
            assert inst.restrict_class[got.witness] == inst.target_class

    def test_no_with_empty_coset(self):
        gx = FgAbGroup((2,))
        ga = FgAbGroup((4,))
        restriction = GroupHom(gx, ga, [[2]])  # image {0, 2}
        inst = generate_instance(0, theta=4)
        shaped = dataclasses.replace(
            inst, gx=gx, ga=ga, restriction=restriction,
            target_ground=ga.element((1,)),
            x_classes=(0, 1), a_classes=(0,),
            proj_x={0: gx.element((0,)), 1: gx.element((1,))},
            proj_a={0: ga.element((1,))},
            restrict_class={0: 0, 1: 0},
            target_class=0,
            act_x={0: (0,), 1: (1,)},
            act_a={0: (0,)},
        )
        verdict = decide(shaped)
        assert verdict.answer == "NO" and verdict.rep_count == 0

    def test_trivial_ground_a_agrees_with_brute_force(self):
        # Z/2 -> 0 with a Z/2 fiber on each side; solve into the trivial
        # group used to raise
        gx, ga = FgAbGroup((2,)), FgAbGroup(())
        xs = (0, 1, 2, 3)
        for restrict_class in ({g: g % 2 for g in xs}, {g: 0 for g in xs}):
            inst = ExtensionInstance(
                gx=gx, ga=ga, restriction=GroupHom(gx, ga, []),
                target_ground=ga.zero(), theta=2, x_classes=xs,
                a_classes=(0, 1),
                proj_x={g: gx.element((g // 2,)) for g in xs},
                proj_a={0: ga.zero(), 1: ga.zero()},
                restrict_class=restrict_class, target_class=1,
                act_x={g: (g,) for g in xs}, act_a={0: (), 1: ()},
            )
            assert validate_instance(inst).ok
            got = decide(inst)
            assert got.answer == brute_force(inst).answer
            if got.answer == "YES":
                assert inst.restrict_class[got.witness] == inst.target_class

    def test_precheck_raises_on_breach(self):
        inst = generate_instance(3)
        bad = dataclasses.replace(
            inst,
            target_ground=inst.ga.element(
                [c + 1 for c in inst.target_ground.coords]
            ),
        )
        with pytest.raises(InvalidInstanceError):
            decide(bad)

    def test_translation_invariance(self):
        # translating the target by the restriction image of any ground
        # element over X cannot change the answer
        for seed in range(20):
            inst = generate_instance(seed, theta=6)
            base = decide(inst).answer
            for j in range(inst.gx.rank):
                image = inst.restriction(inst.gx.generator(j))
                moved_class = inst.target_class
                for jj, (n, order) in enumerate(
                    zip(image.coords, inst.ga.orders)
                ):
                    for _ in range(n % order if order else abs(n)):
                        moved_class = inst.act_a[moved_class][jj]
                moved = dataclasses.replace(
                    inst,
                    target_class=moved_class,
                    target_ground=inst.target_ground + inst.theta * image,
                )
                assert decide(moved).answer == base

    def test_determinism(self):
        inst = generate_instance(17, desired="YES")
        a, b = decide(inst), decide(inst)
        assert a == b

    def test_infinite_ground(self):
        yes = infinite_ground_instance(hit=True)
        assert decide(yes).answer == "YES"
        witness = decide(yes).witness
        assert yes.restrict_class[witness] == yes.target_class
        no = infinite_ground_instance(hit=False)
        assert decide(no).answer == "NO"

    def test_oracle_refuses_infinite_ground(self):
        with pytest.raises(OracleUnavailableError):
            brute_force(infinite_ground_instance())


class TestBruteForce:
    def test_empty_x_classes(self):
        inst = generate_instance(9)
        empty = dataclasses.replace(
            inst, x_classes=(), proj_x={}, restrict_class={}, act_x={}
        )
        assert brute_force(empty).answer == "NO"

    def test_surjective_restriction_always_yes(self):
        for seed in range(20):
            inst = generate_instance(seed)
            if set(inst.restrict_class.values()) == set(inst.a_classes):
                assert brute_force(inst).answer == "YES"
