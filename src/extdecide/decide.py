"""Decision procedure over explicit lifted-extension data.

An instance packages the commuting square of the problem: two finitely
generated abelian groups of ground classes (over the big complex X and
the subcomplex A), the restriction homomorphism between them, finite sets
of lift classes over each side with their projections to the ground
groups, a distinguished class to hit on the A side, and translation
actions of the ground groups at a fixed scale Theta.

`decide` answers whether some lift class over X restricts to the
distinguished class.  It only ever scans the fibers over a finite set of
coset representatives: solving the restriction for the ground target
gives a base point, the kernel gives the directions, and representatives
within Theta/2 of the base point in each kernel coordinate cover the
whole solution coset up to Theta-multiples, which the action axioms make
invisible to the answer.  `brute_force` is the independent oracle that
scans everything.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .abelian import FgAbGroup, GroupElement, GroupHom, kernel, solve

__all__ = [
    "ExtensionInstance",
    "Verdict",
    "InstanceReport",
    "InvalidInstanceError",
    "OracleUnavailableError",
    "GenParams",
    "validate_instance",
    "representative_set",
    "decide",
    "brute_force",
    "generate_instance",
]


class InvalidInstanceError(ValueError):
    """Instance data breaks a structural precondition."""


class OracleUnavailableError(ValueError):
    """The exhaustive oracle cannot run on this instance."""


@dataclass(frozen=True, eq=False)
class ExtensionInstance:
    """Explicit finite data of one extension question.

    gx, ga: ground class groups over X and A.
    restriction: homomorphism gx -> ga restricting ground classes.
    target_ground: the element of ga the solution must restrict to.
    theta: the scale of the translation actions.
    x_classes, a_classes: identifiers of the lift classes on each side.
    proj_x, proj_a: identifier -> ground element projections.
    restrict_class: identifier -> identifier restriction of lift classes.
    target_class: the identifier in a_classes to hit.
    act_x, act_a: identifier -> tuple of identifiers, one entry per ground
    group generator g_j, recording the translation by theta * g_j.
    Acting by an arbitrary ground element extends generator-wise.

    Entries for generators of infinite-order summands are placeholders
    (identity is the convention): translation by theta along a Z summand
    leaves any finite window of classes, so no finite table can be
    semantically faithful there, and validation does not audit them.
    """

    gx: FgAbGroup
    ga: FgAbGroup
    restriction: GroupHom
    target_ground: GroupElement
    theta: int
    x_classes: tuple
    a_classes: tuple
    proj_x: dict
    proj_a: dict
    restrict_class: dict
    target_class: object
    act_x: dict
    act_a: dict


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision run.

    witness satisfies restrict_class[witness] == target_class whenever the
    answer is YES.  base_solution is the ground coset base point that was
    used (None when the ground equation had no solution), rep_count the
    number of representatives that were scanned.
    """

    answer: str
    witness: object = None
    base_solution: GroupElement = None
    rep_count: int = 0


@dataclass(frozen=True)
class InstanceReport:
    checks: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _generator_tables(ids, act):
    """Per-generator dict tables id -> id, from the stored tuples."""
    if not ids:
        return []
    rank = len(next(iter(act.values()))) if act else 0
    return [{g: act[g][j] for g in ids} for j in range(rank)]


def _cycles(table, ids):
    """Where each id sits on a cycle of the map table: id -> (cycle,
    position in it).  Ids that never return to themselves are absent.

    Each id is visited once, so the cost is O(|ids|) whatever the orders
    of the ground group are.
    """
    where = {}
    walk_of = {}
    for start in ids:
        path = []
        g = start
        while g not in walk_of:
            walk_of[g] = start
            path.append(g)
            g = table[g]
        if walk_of[g] == start:  # this walk closed a new cycle at g
            cycle = path[path.index(g):]
            for pos, h in enumerate(cycle):
                where[h] = (cycle, pos)
    return where


def _act_by_element(cycles, start, elem):
    """Apply the generator actions coordinate-wise for a ground element.

    cycles[j] is the _cycles map of generator j's table, which must be a
    bijection on every coordinate where elem is non-zero; the coordinate
    only indexes into the cycle, so the cost does not grow with it.
    Coordinates on infinite summands must be zero; their tables are
    placeholders the caller is expected to have screened out.
    """
    g = start
    for j, (n, order) in enumerate(zip(elem.coords, elem.group.orders)):
        if order == 0:
            if n:
                raise InvalidInstanceError(
                    "cannot act along an infinite-order generator"
                )
            continue
        if n:
            cycle, pos = cycles[j][g]
            g = cycle[(pos + n) % len(cycle)]
    return g


def _structural_violations(inst):
    out = []
    xs, as_ = set(inst.x_classes), set(inst.a_classes)
    if len(xs) != len(inst.x_classes):
        out.append(("duplicate_ids", "x"))
    if len(as_) != len(inst.a_classes):
        out.append(("duplicate_ids", "a"))
    if inst.theta < 1:
        out.append(("bad_theta", inst.theta))
    if inst.target_class not in as_:
        out.append(("unknown_target_class", inst.target_class))
    if inst.target_ground.group != inst.ga:
        out.append(("target_ground_group", None))
    if inst.restriction.source != inst.gx or inst.restriction.target != inst.ga:
        out.append(("restriction_groups", None))
    for name, table, keys, check in (
        ("proj_x", inst.proj_x, xs, lambda v: getattr(v, "group", None) == inst.gx),
        ("proj_a", inst.proj_a, as_, lambda v: getattr(v, "group", None) == inst.ga),
        ("restrict_class", inst.restrict_class, xs, lambda v: v in as_),
    ):
        if set(table) != keys:
            out.append(("table_domain", name))
            continue
        for k, v in table.items():
            if not check(v):
                out.append(("table_value", name, k))
    for name, act, keys, rank, universe in (
        ("act_x", inst.act_x, xs, inst.gx.rank, xs),
        ("act_a", inst.act_a, as_, inst.ga.rank, as_),
    ):
        if set(act) != keys:
            out.append(("table_domain", name))
            continue
        for k, row in act.items():
            if len(row) != rank:
                out.append(("act_arity", name, k))
            elif any(v not in universe for v in row):
                out.append(("table_value", name, k))
    return out


def validate_instance(inst: ExtensionInstance) -> InstanceReport:
    """Exhaustive audit of every instance invariant.

    Structure first (domains, arities, group membership); then the
    distinguished class projects to the ground target, the square
    commutes everywhere, and both stored actions really are actions of
    their ground groups compatible with the projections and with the
    restriction.  Generator-level checks (orders, bijectivity,
    commutation) are sufficient: acting by an arbitrary element is
    defined generator-wise, so additivity follows.

    Generators of infinite-order summands are exempt: their tables are
    placeholders by convention and carry no checkable semantics over a
    finite class set.
    """
    violations = list(_structural_violations(inst))
    checks = 1
    if violations:
        return InstanceReport(checks=checks, violations=tuple(violations))

    if inst.proj_a[inst.target_class] != inst.target_ground:
        violations.append(("target_projection", inst.target_class))
    checks += 1

    for g in inst.x_classes:
        checks += 1
        if inst.proj_a[inst.restrict_class[g]] != inst.restriction(inst.proj_x[g]):
            violations.append(("square", g))

    sides = (
        ("x", inst.x_classes, inst.act_x, inst.proj_x, inst.gx),
        ("a", inst.a_classes, inst.act_a, inst.proj_a, inst.ga),
    )
    side_tables = {}
    side_cycles = {}
    for side, ids, act, proj, group in sides:
        tables = _generator_tables(ids, act)
        cycles = side_cycles[side] = [None] * group.rank
        side_tables[side] = tables
        for j in range(group.rank):
            order = group.orders[j]
            if order == 0:
                continue  # placeholder table, see the class docstring
            tab = tables[j]
            where = cycles[j] = _cycles(tab, ids)
            checks += 1
            if len(where) != len(ids):  # a bijection has no tails
                violations.append(("not_bijective", side, j))
            gen = group.generator(j)
            shift = inst.theta * gen
            for g in ids:
                checks += 1
                if proj[tab[g]] != proj[g] + shift:
                    violations.append(("projection_naturality", side, j, g))
            for g in ids:
                checks += 1
                # g comes back after `order` steps iff its cycle length
                # divides the order
                if g not in where or order % len(where[g][0]):
                    violations.append(("generator_order", side, j, g))
            for jj in range(j + 1, group.rank):
                if group.orders[jj] == 0:
                    continue
                for g in ids:
                    checks += 1
                    if tables[jj][tab[g]] != tab[tables[jj][g]]:
                        violations.append(("generators_commute", side, j, jj, g))

    a_usable = not any(
        v[0] == "not_bijective" and v[1] == "a" for v in violations
    )
    if a_usable:
        for j in range(inst.gx.rank):
            if inst.gx.orders[j] == 0:
                continue
            image = inst.restriction(inst.gx.generator(j))
            if any(
                n and order == 0
                for n, order in zip(image.coords, inst.ga.orders)
            ):
                continue  # would have to walk a placeholder table
            for g in inst.x_classes:
                checks += 1
                expected = _act_by_element(
                    side_cycles["a"], inst.restrict_class[g], image
                )
                if inst.restrict_class[side_tables["x"][j][g]] != expected:
                    violations.append(("restriction_naturality", j, g))

    return InstanceReport(checks=checks, violations=tuple(violations))


def representative_set(inst: ExtensionInstance):
    """Base point and representatives of the ground solution coset.

    Returns None when the restriction never reaches the ground target.
    Otherwise returns (h0, reps) where h0 solves the restriction and reps
    walks h0 + sum z_j * k_j over the kernel generators k_j with
    |z_j| <= theta // 2 (capped for finite kernel orders so every residue
    still appears), deduplicated, in odometer order.  Every element of
    h0 + kernel then splits as rep + theta * (kernel element).
    """
    h0 = solve(inst.restriction, inst.target_ground)
    if h0 is None:
        return None
    ker, inject = kernel(inst.restriction)
    gens = [inject(ker.generator(j)) for j in range(ker.rank)]
    half = inst.theta // 2
    ranges = []
    for order in ker.orders:
        bound = half if order == 0 else min(half, order // 2)
        ranges.append(range(-bound, bound + 1))
    reps = []
    seen = set()
    for zs in itertools.product(*ranges):
        rep = h0
        for z, gen in zip(zs, gens):
            rep = rep + z * gen
        if rep not in seen:
            seen.add(rep)
            reps.append(rep)
    return h0, tuple(reps)


def _fibers_of_proj_x(inst):
    fibers = {}
    for g in sorted(inst.x_classes):
        fibers.setdefault(inst.proj_x[g], []).append(g)
    return fibers


def decide(inst: ExtensionInstance) -> Verdict:
    """YES iff the distinguished class is hit over some representative.

    The structural checks and the target projection check of
    validate_instance run first and raise on breach; run
    validate_instance for the full audit.  The scan order is
    deterministic: representatives in generation order, identifiers in
    ascending order within each fiber, first hit wins.
    """
    breach = _structural_violations(inst)
    if breach:
        raise InvalidInstanceError(f"malformed instance: {breach[0]}")
    if inst.proj_a[inst.target_class] != inst.target_ground:
        raise InvalidInstanceError(
            "distinguished class does not project to the ground target"
        )
    found = representative_set(inst)
    if found is None:
        return Verdict(answer="NO", rep_count=0)
    h0, reps = found
    fibers = _fibers_of_proj_x(inst)
    for rep in reps:
        for g in fibers.get(rep, ()):
            if inst.restrict_class[g] == inst.target_class:
                return Verdict(
                    answer="YES", witness=g, base_solution=h0, rep_count=len(reps)
                )
    return Verdict(answer="NO", base_solution=h0, rep_count=len(reps))


def brute_force(inst: ExtensionInstance) -> Verdict:
    """Exhaustive oracle: scan every lift class over X in ascending order.

    Only defined when the ground group over X is finite; refuses
    otherwise, since the instance is then only a window onto the classes.
    """
    if not inst.gx.is_finite:
        raise OracleUnavailableError(
            "brute force needs a finite ground group over X"
        )
    for g in sorted(inst.x_classes):
        if inst.restrict_class[g] == inst.target_class:
            return Verdict(answer="YES", witness=g)
    return Verdict(answer="NO")


@dataclass(frozen=True)
class GenParams:
    """Bounds for the instance generator.

    orders for gx/ga are drawn from order_pool, auxiliary fiber orders for
    the X side from fiber_pool, and for the A side from the divisors of
    theta (so translation by theta is invisible on the fibers and the
    action axioms hold identically).
    """

    max_rank: int = 2
    order_pool: tuple = (2, 3, 4, 8)
    fiber_pool: tuple = (2, 3, 4)
    max_classes: int = 4096


def generate_instance(
    seed: int,
    theta: int = None,
    desired: str = None,
    params: GenParams = GenParams(),
) -> ExtensionInstance:
    """Seeded random instance in split form; always validates cleanly.

    Lift classes over X are pairs (ground element, fiber element) with
    the projection forgetting the fiber; restriction acts by the ground
    restriction on the first coordinate and by a random affine map on
    the second.  desired ("YES" or "NO") steers the answer and is a best
    effort hint, not a guarantee.
    """
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
    fx = FgAbGroup(
        [rng.choice(params.fiber_pool)] if rng.random() < 0.8 else []
    )
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

    def x_pair(i):
        h, u = divmod(i, fx.size)
        return gx.element_at(h), fx.element_at(u)

    def a_id(a_elem, v_elem):
        return ga.index_of(a_elem) * fa.size + fa.index_of(v_elem)

    x_classes = tuple(range(n_x))
    a_classes = tuple(range(n_a))
    proj_x = {}
    proj_a = {}
    restrict_class = {}
    act_x = {}
    act_a = {}
    for i in x_classes:
        h, u = x_pair(i)
        proj_x[i] = h
        restrict_class[i] = a_id(restriction(h), rho(u) + eta(h))
        act_x[i] = tuple(
            gx.index_of(h + theta * gx.generator(j)) * fx.size + fx.index_of(u)
            for j in range(gx.rank)
        )
    for i in a_classes:
        a_idx, v_idx = divmod(i, fa.size)
        a = ga.element_at(a_idx)
        proj_a[i] = a
        act_a[i] = tuple(
            ga.index_of(a + theta * ga.generator(j)) * fa.size + v_idx
            for j in range(ga.rank)
        )

    target_class = _steer_target(rng, desired, gx, ga, fa, restriction,
                                 restrict_class)
    return ExtensionInstance(
        gx=gx,
        ga=ga,
        restriction=restriction,
        target_ground=proj_a[target_class],
        theta=theta,
        x_classes=x_classes,
        a_classes=a_classes,
        proj_x=proj_x,
        proj_a=proj_a,
        restrict_class=restrict_class,
        target_class=target_class,
        act_x=act_x,
        act_a=act_a,
    )


def _steer_target(rng, desired, gx, ga, fa, restriction, restrict_class):
    reachable = sorted(set(restrict_class.values()))
    if desired == "YES":
        return rng.choice(reachable)
    if desired == "NO":
        unreachable = sorted(set(range(ga.size * fa.size)) - set(reachable))
        if unreachable:
            # prefer a target whose ground part is reachable, so the scan
            # actually has fibers to walk before answering NO
            image = {restriction(h) for h in gx.elements()}
            hard = [i for i in unreachable if ga.element_at(i // fa.size) in image]
            return rng.choice(hard or unreachable)
    return rng.randrange(ga.size * fa.size)


def _random_hom_matrix(rng, src, tgt):
    rows = []
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
        rows.append(row)
    return rows
