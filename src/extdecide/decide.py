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
import operator
import random
from dataclasses import dataclass

from ._primes import factorize
from .abelian import FgAbGroup, GroupElement, GroupHom, kernel, solve
from .diffcalc import AuditReport

_group_of = operator.attrgetter("group")

__all__ = [
    "ExtensionInstance",
    "Verdict",
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

    Construction (dataclasses.replace included) checks the structure and
    raises InvalidInstanceError on the first breach: distinct
    identifiers, theta >= 1, target_class an a-class, target_ground in
    ga, restriction from gx to ga, every table keyed by exactly its
    classes, projections into the right ground group, restrictions onto
    a-classes, and action rows of one class per ground generator.  The
    axioms are validate_instance's to audit.
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

    def __post_init__(self):
        xs, as_ = set(self.x_classes), set(self.a_classes)
        gx, ga = self.gx, self.ga
        for ok, what in (
            (len(xs) == len(self.x_classes), "duplicate x-class identifiers"),
            (len(as_) == len(self.a_classes), "duplicate a-class identifiers"),
            (self.theta >= 1, "theta must be >= 1"),
            (self.target_class in as_, "target_class is not an a-class"),
            (self.target_ground.group == ga, "target_ground is not in ga"),
            (self.restriction.source == gx and self.restriction.target == ga,
             "restriction does not map gx to ga"),
        ):
            if not ok:
                raise InvalidInstanceError(f"malformed instance: {what}")

        def elements_of(group):  # list.count matches the group by identity first
            return lambda vs: (list(map(type, vs)).count(GroupElement) == len(vs)
                               == list(map(_group_of, vs)).count(group))

        def rows_in(ids, rank):
            return lambda rows: (list(map(len, rows)).count(rank) == len(rows) and all(
                ids.issuperset(map(operator.itemgetter(j), rows)) for j in range(rank)))

        for name, table, keys, fit in (
            ("proj_x", self.proj_x, xs, elements_of(gx)),
            ("proj_a", self.proj_a, as_, elements_of(ga)),
            ("restrict_class", self.restrict_class, xs, as_.issuperset),
            ("act_x", self.act_x, xs, rows_in(xs, gx.rank)),
            ("act_a", self.act_a, as_, rows_in(as_, ga.rank)),
        ):
            if table.keys() != keys:
                raise InvalidInstanceError(
                    f"malformed instance: {name} is not keyed by its classes"
                )
            if not fit(table.values()):  # walk only to name the first breach
                key = next(k for k, v in table.items() if not fit((v,)))
                raise InvalidInstanceError(
                    f"malformed instance: {name}[{key!r}] is out of range"
                )


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
    placeholders the caller screens out.
    """
    g = start
    for j, n in enumerate(elem.coords):
        if n:
            cycle, pos = cycles[j][g]
            g = cycle[(pos + n) % len(cycle)]
    return g


def validate_instance(inst: ExtensionInstance) -> AuditReport:
    """Exhaustive audit of every instance axiom.

    The structure was checked when the instance was built, and counts as
    the first check.  The audit checks that the distinguished class
    projects to the ground target, the square commutes everywhere, and
    both stored actions really are actions of their ground groups
    compatible with the projections and with the restriction.
    Generator-level checks (orders, bijectivity, commutation) are
    sufficient: acting by an arbitrary element is defined generator-wise,
    so additivity follows.

    Generators of infinite-order summands are exempt: their tables are
    placeholders by convention and carry no checkable semantics over a
    finite class set.

    Per-class checks compare plain ints: projections are read as coordinate
    tuples once, the square maps each distinct tuple through the matrix
    once, and naturality shifts coordinate j by theta mod its order.
    """
    violations = []
    checks = 1
    if inst.proj_a[inst.target_class] != inst.target_ground:
        violations.append(("target_projection", inst.target_class))
    checks += 1

    coords_x = {g: e.coords for g, e in inst.proj_x.items()}
    coords_a = {g: e.coords for g, e in inst.proj_a.items()}
    image = {c: inst.restriction.apply(c) for c in set(coords_x.values())}
    for g in inst.x_classes:
        checks += 1
        if coords_a[inst.restrict_class[g]] != image[coords_x[g]]:
            violations.append(("square", g))

    sides = (
        ("x", inst.x_classes, inst.act_x, coords_x, inst.gx),
        ("a", inst.a_classes, inst.act_a, coords_a, inst.ga),
    )
    side_tables = {}
    side_cycles = {}
    for side, ids, act, coords, group in sides:
        tables = [{g: act[g][j] for g in ids} for j in range(group.rank)]
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
            for g in ids:
                checks += 1
                c, d = coords[g], coords[tab[g]]
                if d != c[:j] + ((c[j] + inst.theta) % order,) + c[j + 1:]:
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

    return AuditReport(checks=checks, violations=tuple(violations))


def representative_set(inst: ExtensionInstance):
    """Base point and representatives of the ground solution coset.

    Returns None when the restriction never reaches the ground target.
    Otherwise returns (h0, reps) where h0 solves the restriction and reps
    walks h0 + sum z_j * k_j over the kernel generators k_j in odometer
    order, with |z_j| <= theta // 2, capped for a finite kernel order o
    at o // 2 so every residue still appears.  The inclusion of the
    kernel is injective, so two tuples meet only when they agree modulo
    every kernel order; that happens only for z_j = -o/2 and z_j = o/2 at
    an even o, whose range therefore stops at o/2 - 1, and no
    representative repeats.  Every element of h0 + kernel then splits as
    rep + theta * (kernel element).
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
        stop = bound if order and 2 * bound == order else bound + 1
        ranges.append(range(-bound, stop))
    reps = []
    for zs in itertools.product(*ranges):
        rep = h0
        for z, gen in zip(zs, gens):
            rep = rep + z * gen
        reps.append(rep)
    return h0, tuple(reps)


def _fibers_of_proj_x(inst):
    fibers = {}
    for g in sorted(inst.x_classes):
        fibers.setdefault(inst.proj_x[g], []).append(g)
    return fibers


def decide(inst: ExtensionInstance) -> Verdict:
    """YES iff the distinguished class is hit over some representative.

    The instance's structure was checked when it was built; the target
    projection check of validate_instance runs first and raises on
    breach.  Run validate_instance for the full axiom audit.  The scan
    order is deterministic: representatives in generation order,
    identifiers in ascending order within each fiber, first hit wins.
    """
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

    The class count is checked before any map is drawn.  Tables are
    built on plain ints: each ground group is enumerated once (one
    GroupElement per ground element, shared across its fiber), each map
    is applied once per ground or fiber element, and the actions are
    index arithmetic.  The draws and their order are fixed, so a seed
    always gives the same instance, byte for byte.
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
    theta_divisors = _divisors(theta)[1:]
    fa = FgAbGroup(
        [rng.choice(theta_divisors)] if theta_divisors and rng.random() < 0.8 else []
    )
    # 64 summands of order >= 2 give 2^64 classes or more, multiplied out or not
    n_x, n_a = (g.size * f.size if g.rank + f.rank < 64 else 2**64
                for g, f in ((gx, fx), (ga, fa)))
    if n_x > params.max_classes or n_a > params.max_classes:
        n = max(n_x, n_a)
        raise ValueError(f"instance would have {n if n < 2**64 else '2^64 or more'} "
                         f"classes, bound is {params.max_classes}")

    restriction = GroupHom(gx, ga, _random_hom_matrix(rng, gx, ga))
    rho = GroupHom(fx, fa, _random_hom_matrix(rng, fx, fa))
    eta = GroupHom(gx, fa, _random_hom_matrix(rng, gx, fa))

    ground_x, ground_a, fiber_x = (
        list(itertools.product(*map(range, g.orders))) for g in (gx, ga, fx)
    )
    where_a = {c: i for i, c in enumerate(ground_a)}
    images = [where_a[restriction.apply(c)] for c in ground_x]
    # fa has at most one summand: an element's index is its coordinate (0
    # with none), and adding in fa adds indices mod fa.size
    etas = [sum(eta.apply(c)) for c in ground_x]
    rhos = [sum(rho.apply(u)) for u in fiber_x]
    restrict_class = dict(enumerate(
        image * fa.size + (r + e) % fa.size
        for image, e in zip(images, etas) for r in rhos
    ))
    proj_x, act_x = _split_tables(gx, ground_x, fx.size, theta)
    proj_a, act_a = _split_tables(ga, ground_a, fa.size, theta)
    target_class = _steer_target(rng, desired, n_a, fa.size, set(images),
                                 restrict_class)
    return ExtensionInstance(
        gx=gx, ga=ga, restriction=restriction, target_ground=proj_a[target_class],
        theta=theta, x_classes=tuple(range(n_x)), a_classes=tuple(range(n_a)),
        proj_x=proj_x, proj_a=proj_a, restrict_class=restrict_class,
        target_class=target_class, act_x=act_x, act_a=act_a,
    )


def _divisors(n: int) -> list:
    """The divisors of n >= 1, ascending, from its prime factorization."""
    divisors = [1]
    for p, e in factorize(n).items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return sorted(divisors)


def _split_tables(group, ground, fiber, theta):
    """Projections and action rows of the classes h * fiber + u over the
    ground coordinate tuples h.  Translating by theta * g_j moves
    coordinate j to (c_j + theta) % o_j, so the class index moves by the
    difference times that coordinate's stride."""
    n = len(ground) * fiber
    boxed = [GroupElement(group, c) for c in ground]
    columns = []
    stride = n
    for j, order in enumerate(group.orders):
        stride //= order
        moves = [((c[j] + theta) % order - c[j]) * stride for c in ground]
        columns.append([i + moves[i // fiber] for i in range(n)])
    return (dict(enumerate(e for e in boxed for _ in range(fiber))),
            dict(enumerate(zip(*columns) if columns else [()] * n)))


def _steer_target(rng, desired, n_a, fiber, images, restrict_class):
    reachable = sorted(set(restrict_class.values()))
    if desired == "YES":
        return rng.choice(reachable)
    if desired == "NO":
        unreachable = sorted(set(range(n_a)) - set(reachable))
        if unreachable:
            # prefer a target whose ground part is reachable (its index is
            # in images), so the scan has fibers to walk before answering NO
            hard = [i for i in unreachable if i // fiber in images]
            return rng.choice(hard or unreachable)
    return rng.randrange(n_a)


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
