import dataclasses
import hashlib
import itertools
import math
import random
import time

import pytest

from extdecide.abelian import FgAbGroup, GroupHom, kernel
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
    _random_hom_matrix,
)
from extdecide.fileformat import canonical_json, dump_instance


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


def _breaches(inst):
    """(label, replace() changes) pairs, each breaking one structural rule."""
    x0, a0 = inst.x_classes[0], inst.a_classes[0]
    other = FgAbGroup((7,))
    return [
        ("duplicate_x", {"x_classes": inst.x_classes + (x0,)}),
        ("duplicate_a", {"a_classes": inst.a_classes + (a0,)}),
        ("theta_0", {"theta": 0}),
        ("unknown_target_class", {"target_class": "nowhere"}),
        ("target_ground_group", {"target_ground": other.zero()}),
        ("restriction_groups", {"restriction": GroupHom.zero(inst.gx, other)}),
        ("proj_x_domain", {"proj_x": {g: v for g, v in inst.proj_x.items() if g != x0}}),
        ("proj_x_value", {"proj_x": {**inst.proj_x, x0: other.zero()}}),
        ("proj_a_value", {"proj_a": {**inst.proj_a, a0: inst.gx.zero()}}),
        ("restrict_value", {"restrict_class": {**inst.restrict_class, x0: "nowhere"}}),
        ("restrict_domain", {"restrict_class": {**inst.restrict_class, "extra": a0}}),
        ("act_x_arity", {"act_x": {**inst.act_x, x0: inst.act_x[x0] + (x0,)}}),
        ("act_x_value", {"act_x": {**inst.act_x, x0: ("nowhere",) * inst.gx.rank}}),
        ("act_a_domain", {"act_a": {g: v for g, v in inst.act_a.items() if g != a0}}),
    ]


class TestStructure:
    """Construction checks the structure once; replace() re-runs it."""

    @pytest.mark.parametrize(
        "label", [label for label, _ in _breaches(generate_instance(3))]
    )
    def test_breach_raises(self, label):
        inst = generate_instance(3)
        changes = dict(_breaches(inst))[label]
        with pytest.raises(InvalidInstanceError, match="malformed instance"):
            dataclasses.replace(inst, **changes)


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

    def test_no_x_classes(self):
        # the generator rank comes from the group, not from an action row
        inst = generate_instance(9)
        empty = dataclasses.replace(
            inst, x_classes=(), proj_x={}, restrict_class={}, act_x={}
        )
        report = validate_instance(empty)
        assert report.ok, report.violations
        assert decide(empty).answer == brute_force(empty).answer == "NO"


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
        # restriction Z/3 + Z/5 -> Z/5 forgetting the first coordinate,
        # with one lift class over each ground element on either side
        gx = FgAbGroup((3, 5))
        ga = FgAbGroup((5,))
        restriction = GroupHom(gx, ga, [[0, 1]])
        theta = 8
        xs, as_ = list(gx.elements()), list(ga.elements())
        shaped = ExtensionInstance(
            gx=gx, ga=ga, restriction=restriction,
            target_ground=ga.element((2,)), theta=theta,
            x_classes=tuple(range(len(xs))), a_classes=tuple(range(len(as_))),
            proj_x=dict(enumerate(xs)), proj_a=dict(enumerate(as_)),
            restrict_class={
                i: ga.index_of(restriction(h)) for i, h in enumerate(xs)
            },
            target_class=2,
            act_x={
                i: tuple(gx.index_of(h + theta * gx.generator(j)) for j in range(2))
                for i, h in enumerate(xs)
            },
            act_a={
                i: (ga.index_of(a + theta * ga.generator(0)),)
                for i, a in enumerate(as_)
            },
        )
        h0, reps = representative_set(shaped)
        assert len(reps) == 3
        kernel_elems = {gx.element((k, 0)) for k in range(3)}
        assert {r - h0 for r in reps} == kernel_elems

    def test_matches_walk_and_dedupe(self):
        """The same representatives in the same order as walking every
        tuple with |z_j| <= bound and dropping repeats, including where
        theta // 2 reaches o // 2 at an even kernel order o."""
        params = GenParams(order_pool=(2, 4, 6, 8, 12))
        capped = 0
        for seed in range(40):
            for theta in (2, 3, 8, 16, 33):
                try:
                    inst = generate_instance(seed, theta=theta, params=params)
                except ValueError:
                    continue  # over the class bound
                found = representative_set(inst)
                if found is None:
                    continue
                h0, reps = found
                ker, inject = kernel(inst.restriction)
                gens = [inject(ker.generator(j)) for j in range(ker.rank)]
                bounds = [
                    theta // 2 if o == 0 else min(theta // 2, o // 2)
                    for o in ker.orders
                ]
                capped += any(o and 2 * b == o for o, b in zip(ker.orders, bounds))
                expected, seen = [], set()
                for zs in itertools.product(*(range(-b, b + 1) for b in bounds)):
                    rep = h0
                    for z, gen in zip(zs, gens):
                        rep = rep + z * gen
                    if rep not in seen:
                        seen.add(rep)
                        expected.append(rep)
                assert reps == tuple(expected)
        assert capped >= 30  # the even-order cap is exercised

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


def mixed_ground_instance(rng):
    """Two classes over each point of windows of Z + Z/n and Z/m + Z, with
    the restriction's image inside the A window.  The finite summands act
    by translation by theta; the Z summands' tables are the identity
    placeholder."""
    n, m, theta = rng.choice((2, 3, 4)), rng.choice((2, 4, 6)), rng.choice((2, 3, 5))
    gx, ga = FgAbGroup((0, n)), FgAbGroup((m, 0))
    step = m // math.gcd(m, n)
    restriction = GroupHom(
        gx, ga, [[rng.randrange(m), step * rng.randrange(m)], [rng.randint(-2, 2), 0]]
    )
    x_points = [gx.element((k, c)) for k in range(-2, 3) for c in range(n)]
    a_points = [ga.element((u, v)) for v in range(-4, 5) for u in range(m)]
    x_index = {p: i for i, p in enumerate(x_points)}
    a_index = {p: i for i, p in enumerate(a_points)}
    x_classes = tuple(range(2 * len(x_points)))
    a_classes = tuple(range(2 * len(a_points)))
    proj_x = {g: x_points[g // 2] for g in x_classes}
    proj_a = {a: a_points[a // 2] for a in a_classes}
    x_shift, a_shift = theta * gx.generator(1), theta * ga.generator(0)
    return ExtensionInstance(
        gx=gx, ga=ga, restriction=restriction, target_ground=proj_a[0], theta=theta,
        x_classes=x_classes, a_classes=a_classes, proj_x=proj_x, proj_a=proj_a,
        restrict_class={
            g: 2 * a_index[restriction(proj_x[g])] + rng.randrange(2)
            for g in x_classes
        },
        target_class=0,
        act_x={g: (g, 2 * x_index[proj_x[g] + x_shift] + g % 2) for g in x_classes},
        act_a={a: (2 * a_index[proj_a[a] + a_shift] + a % 2, a) for a in a_classes},
    )


def boxed_square_and_naturality(inst):
    """The square and projection-naturality violations, computed on boxed
    group elements: the reference for validate_instance's plain-int checks."""
    found = [
        ("square", g) for g in inst.x_classes
        if inst.proj_a[inst.restrict_class[g]] != inst.restriction(inst.proj_x[g])
    ]
    for side, ids, act, proj, group in (
        ("x", inst.x_classes, inst.act_x, inst.proj_x, inst.gx),
        ("a", inst.a_classes, inst.act_a, inst.proj_a, inst.ga),
    ):
        for j, order in enumerate(group.orders):
            if order:
                shift = inst.theta * group.generator(j)
                found += [
                    ("projection_naturality", side, j, g) for g in ids
                    if proj[act[g][j]] != proj[g] + shift
                ]
    return found


class TestValidateParity:
    @staticmethod
    def corrupt(inst, rng):
        def element(group):
            return group.element(
                [rng.randrange(q) if q else rng.randint(-3, 3) for q in group.orders]
            )

        kind = rng.randrange(5)
        if kind == 0:
            return dataclasses.replace(inst, proj_x={
                **inst.proj_x, rng.choice(inst.x_classes): element(inst.gx)})
        if kind == 1:
            return dataclasses.replace(inst, proj_a={
                **inst.proj_a, rng.choice(inst.a_classes[1:]): element(inst.ga)})
        if kind == 2:
            g = rng.choice(inst.x_classes)
            row = (inst.act_x[g][0], rng.choice(inst.x_classes))
            return dataclasses.replace(inst, act_x={**inst.act_x, g: row})
        if kind == 3:
            return dataclasses.replace(inst, restrict_class={
                **inst.restrict_class,
                rng.choice(inst.x_classes): rng.choice(inst.a_classes)})
        return dataclasses.replace(inst, theta=rng.randint(1, 9))

    def test_matches_boxed_reference(self):
        kinds = set()
        for seed in range(150):
            rng = random.Random(seed)
            inst = mixed_ground_instance(rng)
            for _ in range(rng.randint(0, 3)):
                inst = self.corrupt(inst, rng)
            violations = validate_instance(inst).violations
            plain = [v for v in violations
                     if v[0] in ("square", "projection_naturality")]
            assert plain == boxed_square_and_naturality(inst)
            kinds.update(v[0] for v in plain)
        assert kinds == {"square", "projection_naturality"}

    def test_uncorrupted_mixed_instances_pass_both_checks(self):
        for seed in range(20):
            inst = mixed_ground_instance(random.Random(seed))
            assert boxed_square_and_naturality(inst) == []
            assert not [v for v in validate_instance(inst).violations
                        if v[0] in ("square", "projection_naturality")]

    def test_generated_corruptions_match(self):
        for seed in range(60):
            rng = random.Random(f"finite/{seed}")
            try:
                inst = generate_instance(seed, params=GenParams(max_classes=256))
            except ValueError:  # too many classes for this test
                continue
            g = rng.choice(inst.x_classes)
            inst = dataclasses.replace(inst, proj_x={
                **inst.proj_x, g: inst.gx.element_at(rng.randrange(inst.gx.size)),
            })
            plain = [v for v in validate_instance(inst).violations
                     if v[0] in ("square", "projection_naturality")]
            assert plain == boxed_square_and_naturality(inst)


def boxed_generate_instance(seed, theta=None, desired=None, params=GenParams()):
    """The generator as it was written on boxed group elements, one
    element_at, index_of and addition per class: the reference for
    generate_instance's index tables."""
    rng = random.Random(seed)
    if theta is None:
        theta = rng.randint(2, 16)
    if theta < 1:
        raise ValueError("theta must be positive")
    if desired not in (None, "YES", "NO"):
        raise ValueError("desired must be YES, NO or None")
    gx = FgAbGroup(
        [rng.choice(params.order_pool) for _ in range(rng.randint(1, params.max_rank))]
    )
    ga = FgAbGroup(
        [rng.choice(params.order_pool) for _ in range(rng.randint(1, params.max_rank))]
    )
    fx = FgAbGroup([rng.choice(params.fiber_pool)] if rng.random() < 0.8 else [])
    theta_divisors = [d for d in range(2, theta + 1) if theta % d == 0]
    fa = FgAbGroup(
        [rng.choice(theta_divisors)] if theta_divisors and rng.random() < 0.8 else []
    )
    restriction = GroupHom(gx, ga, _random_hom_matrix(rng, gx, ga))
    rho = GroupHom(fx, fa, _random_hom_matrix(rng, fx, fa))
    eta = GroupHom(gx, fa, _random_hom_matrix(rng, gx, fa))
    n_x = gx.size * fx.size
    n_a = ga.size * fa.size
    if n_x > params.max_classes or n_a > params.max_classes:
        raise ValueError(
            f"instance would have {max(n_x, n_a)} classes, "
            f"bound is {params.max_classes}"
        )

    f_x, f_a = fx.size, fa.size
    shifts_x = [theta * gx.generator(j) for j in range(gx.rank)]
    shifts_a = [theta * ga.generator(j) for j in range(ga.rank)]
    proj_x, proj_a, restrict_class, act_x, act_a = {}, {}, {}, {}, {}
    for i in range(n_x):
        h_idx, u_idx = divmod(i, f_x)
        h, u = gx.element_at(h_idx), fx.element_at(u_idx)
        proj_x[i] = h
        restrict_class[i] = (
            ga.index_of(restriction(h)) * f_a + fa.index_of(rho(u) + eta(h))
        )
        act_x[i] = tuple(
            gx.index_of(h + shift) * f_x + fx.index_of(u) for shift in shifts_x
        )
    for i in range(n_a):
        a_idx, v_idx = divmod(i, f_a)
        a = ga.element_at(a_idx)
        proj_a[i] = a
        act_a[i] = tuple(ga.index_of(a + shift) * f_a + v_idx for shift in shifts_a)

    reachable = sorted(set(restrict_class.values()))
    target_class = None
    if desired == "YES":
        target_class = rng.choice(reachable)
    elif desired == "NO":
        unreachable = sorted(set(range(n_a)) - set(reachable))
        if unreachable:
            image = {restriction(h) for h in gx.elements()}
            hard = [i for i in unreachable if ga.element_at(i // fa.size) in image]
            target_class = rng.choice(hard or unreachable)
    if target_class is None:
        target_class = rng.randrange(n_a)
    return ExtensionInstance(
        gx=gx, ga=ga, restriction=restriction, target_ground=proj_a[target_class],
        theta=theta, x_classes=tuple(range(n_x)), a_classes=tuple(range(n_a)),
        proj_x=proj_x, proj_a=proj_a, restrict_class=restrict_class,
        target_class=target_class, act_x=act_x, act_a=act_a,
    )


def _dumped(generate, *args, **kwargs):
    """The instance as dump_instance writes it (its canonical bytes are a
    function of this), or the refusal message."""
    try:
        return dump_instance(generate(*args, **kwargs))
    except ValueError as exc:
        return f"refused: {exc}"


class TestGeneratorParity:
    """generate_instance builds the boxed reference's instances, byte for
    byte, and refuses with its messages; the digest of the canonical bytes
    pins the output itself.  The reference costs about 15 us per class,
    so the sweep stops at seed 59 to keep this test near a second."""

    CALLS = [
        ((seed,), {"desired": desired, "theta": theta})
        for seed in range(60)
        for desired in ("YES", "NO", None)
        for theta in (None, 2, 6)
    ] + [  # the benchmark's shapes: one order per pool, exact class counts
        ((seed,), {"theta": 2, "desired": desired, "params": GenParams(
            max_rank=3, order_pool=(order,), fiber_pool=(2,),
            max_classes=order**2 * 2)})
        for order in (9, 16, 27)
        for seed in range(8)
        for desired in ("YES", "NO")
    ]

    def test_matches_boxed_reference(self):
        digest = hashlib.sha256()
        refused = 0
        for args, kwargs in self.CALLS:
            got = _dumped(generate_instance, *args, **kwargs)
            assert got == _dumped(boxed_generate_instance, *args, **kwargs)
            refused += isinstance(got, str)
            digest.update((got if isinstance(got, str) else canonical_json(got)).encode())
        assert 0 < refused < len(self.CALLS) // 2
        assert digest.hexdigest()[:16] == "156d62255e2a5f6e"


class TestThetaDivisors:
    """The divisors of theta come from its factorization, not from a loop
    up to theta, so the draws and the instances stay as they were."""

    def test_matches_divisor_loop_reference(self):
        # the boxed reference still lists divisors with range(2, theta + 1)
        for theta in range(2, 65):
            for seed in range(4):
                assert _dumped(generate_instance, seed, theta=theta) == _dumped(
                    boxed_generate_instance, seed, theta=theta
                ), (theta, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_huge_theta_bounded(self, seed):
        started = time.perf_counter()
        try:
            generate_instance(seed, theta=10**12)
        except ValueError as exc:
            assert "classes, bound is" in str(exc)
        assert time.perf_counter() - started < 2.0
