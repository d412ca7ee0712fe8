"""Finite towers of prime-power fiber extensions with a lifted action.

A tower starts from a finite abelian ground group and attaches layers.
Layer i has a prime-power modulus q and an arbitrary table kappa over the
previous stage; the new stage consists of pairs (x, c) with c in Z/q^2
constrained by c = kappa(x) mod q.  Every stage is a plain finite set:
the reduction Z/q^2 -> Z/q classifies the fiber coordinate, and the
canonical-representative section lifts values back, so every construction
below is total and can be checked exhaustively.

build_ladder equips the stages with an action of the ground group at
scales Theta_i: the ground acts on itself by addition (Theta_0 = 1), and
each layer transports the action of the stage below through a
difference-operator correction of its kappa table, multiplying the scale
by the operator's theta.  The advertised guarantees (right zero,
projection equivariance, fiber compatibility, scale divisibility) are
audited by verify_ladder over every stage and every pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from sympy import factorint

from .abelian import FgAbGroup
from .diffcalc import (
    ActionAlgebra,
    GValuedMap,
    build_diff_operator,
    evaluate_diagonal,
    iterated_table,
)

__all__ = [
    "Layer",
    "TowerModel",
    "ActionLadder",
    "LadderReport",
    "build_ladder",
    "stage_act",
    "enumerate_lifts",
    "verify_ladder",
    "random_tower",
]


def _prime_power(q: int):
    """(p, e) with q = p^e, or None if q is not a prime power >= 2."""
    if q < 2:
        return None
    fac = factorint(q)
    if len(fac) != 1:
        return None
    ((p, e),) = fac.items()
    return int(p), int(e)


@dataclass(frozen=True)
class Layer:
    """One fiber extension: modulus q (a prime power) and the constraint
    table kappa over the stage below, with values in [0, q)."""

    q: int
    kappa: tuple

    def __post_init__(self):
        if _prime_power(self.q) is None:
            raise ValueError(f"layer modulus {self.q} is not a prime power")
        object.__setattr__(self, "kappa", tuple(int(v) for v in self.kappa))
        for v in self.kappa:
            if not 0 <= v < self.q:
                raise ValueError(f"kappa value {v} outside Z/{self.q}")


class TowerModel:
    """Ground group plus layers, with stage carriers enumerated.

    Carrier elements are integer indices.  Stage 0 indexes the ground
    group's odometer enumeration; at stage i >= 1 the element with index
    parent*q + t denotes the pair (parent, kappa(parent) + q*t), so the
    carrier of stage i has exactly |carrier(i-1)| * q_i elements.
    """

    def __init__(self, ground: FgAbGroup, layers=()):
        if not ground.is_finite:
            raise ValueError("ground group must be finite")
        self.ground = ground
        self.layers = tuple(layers)
        self.ground_elements = list(ground.elements())
        self.ground_zero = 0  # odometer order puts the zero element first
        sizes = [len(self.ground_elements)]
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, Layer):
                raise TypeError("layers must be Layer instances")
            if len(layer.kappa) != sizes[-1]:
                raise ValueError(
                    f"layer {i} kappa has {len(layer.kappa)} entries, "
                    f"stage below has {sizes[-1]} elements"
                )
            sizes.append(sizes[-1] * layer.q)
        self.sizes = tuple(sizes)
        n = len(self.ground_elements)
        self.add_table = tuple(
            tuple(
                ground.index_of(self.ground_elements[x] + self.ground_elements[y])
                for y in range(n)
            )
            for x in range(n)
        )

    @property
    def depth(self) -> int:
        return len(self.layers)

    def size(self, stage: int) -> int:
        return self.sizes[stage]

    def parent(self, stage: int, idx: int) -> int:
        if stage < 1:
            raise ValueError("stage 0 has no parent stage")
        return idx // self.layers[stage - 1].q

    def fiber_value(self, stage: int, idx: int) -> int:
        """The c coordinate in Z/q^2 of a stage >= 1 element."""
        layer = self.layers[stage - 1]
        parent, t = divmod(idx, layer.q)
        return layer.kappa[parent] + layer.q * t

    def index_of_pair(self, stage: int, parent: int, c: int) -> int:
        layer = self.layers[stage - 1]
        off = c - layer.kappa[parent]
        if not 0 <= c < layer.q**2 or off % layer.q:
            raise ValueError(
                f"fiber value {c} incompatible with kappa at stage {stage}"
            )
        return parent * layer.q + off // layer.q

    def carriers(self):
        """Structured stage carriers: stage 0 lists ground elements, stage
        i >= 1 lists (parent element, c) pairs, in index order."""
        out = [list(self.ground_elements)]
        for stage in range(1, self.depth + 1):
            prev = out[-1]
            layer = self.layers[stage - 1]
            out.append(
                [
                    (prev[idx // layer.q], self.fiber_value(stage, idx))
                    for idx in range(self.size(stage))
                ]
            )
        return out


@dataclass(frozen=True, eq=False)
class ActionLadder:
    """Per-layer data of the lifted action.

    thetas[i] is the cumulative scale Theta_{i+1} at which stage i+1 acts;
    twists[i][x][y] is the fiber correction in Z/q^2 added when the ground
    element y acts on a stage-i point over x.  One-step action tables are
    derived from the twists on demand, so the twists are the single source
    of truth.
    """

    tower: TowerModel
    ops: tuple
    thetas: tuple
    twists: tuple

    @property
    def common_theta(self) -> int:
        return self.thetas[-1] if self.thetas else 1

    def stage_theta(self, stage: int) -> int:
        return 1 if stage == 0 else self.thetas[stage - 1]

    @cached_property
    def step_tables(self):
        """table[s][x][y] = one application of the stage-s action (at its
        own scale Theta_s).  Raises if a twist breaks fiber membership;
        use verify_ladder for a tolerant audit."""
        return [
            memo[1] for memo in _build_step_tables(self.tower, self, violations=None)
        ]


def _step_ratio(scale: int, base: int) -> int:
    """Iterations from one scale to a larger multiple; 1 when the chain is
    broken (the divisibility audit reports that separately)."""
    if base >= 1 and scale >= base and scale % base == 0:
        return scale // base
    return 1


def _lift_stage(tower: TowerModel, stage: int, proj_step, twist, violations):
    """One-step table of `stage` (at its own scale), given the one-step
    table of the stage below raised to the layer's scale ratio.

    An element (x, c) moves to (proj_step[x][y], c + twist[x][y]).  With
    violations=None a twist that breaks fiber membership raises; with a
    list, each breach is recorded and encoded tolerantly so an audit can
    continue.
    """
    layer = tower.layers[stage - 1]
    q, kappa = layer.q, layer.kappa
    qq = q * q
    rows = []
    for idx in range(tower.size(stage)):
        parent, t = divmod(idx, q)
        c = kappa[parent] + q * t
        proj_row, twist_row = proj_step[parent], twist[parent]
        row = []
        for y, parent2 in enumerate(proj_row):
            off = (c + twist_row[y]) % qq - kappa[parent2]
            if off % q:
                if violations is None:
                    raise ValueError(
                        f"twist at stage {stage} breaks fiber membership "
                        f"(x={parent}, y={y})"
                    )
                violations.append(("fiber", stage, idx, y))
            row.append(parent2 * q + (off % qq) // q)
        rows.append(tuple(row))
    return tuple(rows)


def _build_step_tables(tower: TowerModel, ladder: ActionLadder, violations):
    """Bottom-up one-step tables, re-derived from the twists alone.

    Returns one power memo per stage, holding the stage's one-step table
    under 1 and every power of it built so far, for iterated_table.
    """
    memos = [{1: tower.add_table}]
    for stage in range(1, tower.depth + 1):
        ratio = _step_ratio(ladder.thetas[stage - 1], ladder.stage_theta(stage - 1))
        step = _lift_stage(
            tower,
            stage,
            iterated_table(memos[-1], ratio),
            ladder.twists[stage - 1],
            violations,
        )
        memos.append({1: step})
    return memos


def build_ladder(tower: TowerModel, min_order: int = 2) -> ActionLadder:
    """Lift the ground group's translation action through every layer.

    At each layer the stage below already carries an action at scale
    Theta_prev; the layer's reduction operator, evaluated diagonally on
    its kappa table over that action, gives a value w with
    kappa(x acted at theta*Theta_prev) - kappa(x) = w in Z/q.  The twist
    stores w's canonical representative in Z/q^2 (vanishing at y = 0), so
    adding it to the fiber coordinate keeps the membership constraint
    while the base point moves at the new scale Theta = theta * Theta_prev.
    """
    ops = []
    thetas = []
    twists = []
    step = tower.add_table
    prev_theta = 1
    for stage in range(1, tower.depth + 1):
        layer = tower.layers[stage - 1]
        p, m = _prime_power(layer.q)
        op = build_diff_operator(p, m, min_order)
        algebra = ActionAlgebra(step, tower.ground_zero)
        target = FgAbGroup((layer.q,))
        kmap = GValuedMap(
            algebra, target, [target.element((v,)) for v in layer.kappa]
        )
        theta_total = op.theta * prev_theta
        n_ground = tower.size(0)
        twist = tuple(
            tuple(
                evaluate_diagonal(op, kmap, x, y).coords[0]
                for y in range(n_ground)
            )
            for x in range(tower.size(stage - 1))
        )
        ops.append(op)
        thetas.append(theta_total)
        twists.append(twist)
        # one-step table of the new stage, for the next layer's algebra
        step = _lift_stage(
            tower, stage, algebra.iterated(op.theta), twist, violations=None
        )
        prev_theta = theta_total
    return ActionLadder(
        tower=tower, ops=tuple(ops), thetas=tuple(thetas), twists=tuple(twists)
    )


def stage_act(
    tower: TowerModel,
    ladder: ActionLadder,
    stage: int,
    x: int,
    y: int,
    at_theta: int,
) -> int:
    """Act with ground element y on stage point x, at scale at_theta.

    at_theta must be a positive multiple of the stage's own scale; the
    action is derived by iterating the one-step action.
    """
    base = ladder.stage_theta(stage)
    if at_theta < 1 or at_theta % base:
        raise ValueError(
            f"scale {at_theta} is not a positive multiple of stage scale {base}"
        )
    table = ladder.step_tables[stage]
    for _ in range(at_theta // base):
        x = table[x][y]
    return x


def enumerate_lifts(tower: TowerModel, labels, assignment, stage: int):
    """All maps into stage `stage` projecting to `assignment` one stage
    below.

    labels is the finite domain (any hashable values, order fixed by the
    given sequence); assignment maps each label to a stage-1 parent index.
    Each label can be lifted to exactly q points of the fiber over its
    parent, so the result lists q^len(labels) maps, in odometer order.
    """
    if not 1 <= stage <= tower.depth:
        raise ValueError(f"stage must be in 1..{tower.depth}")
    labels = list(labels)
    q = tower.layers[stage - 1].q
    fibers = [range(assignment[w] * q, assignment[w] * q + q) for w in labels]
    return [
        dict(zip(labels, choice)) for choice in itertools.product(*fibers)
    ]


@dataclass(frozen=True)
class LadderReport:
    checks: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_ladder(tower: TowerModel, ladder: ActionLadder) -> LadderReport:
    """Exhaustive audit over every stage and every (point, ground) pair.

    Checks: the scale chain divides (each stage scale divides the next and
    the common one); twists vanish at y = 0; acting keeps the fiber
    constraint (the single-step check with real teeth); the right zero
    fixes every point at the stage scale and at the common scale; and
    projecting commutes with acting at both scales.  Violations are
    reported, never raised, so corrupted ladders can be audited.
    """
    violations = []
    checks = 0

    prev = 1
    for i, th in enumerate(ladder.thetas):
        checks += 1
        if th % prev:
            violations.append(("divisibility", i + 1, th, prev))
        prev = th
    theta = ladder.common_theta
    for i, th in enumerate(ladder.thetas):
        checks += 1
        if theta % th:
            violations.append(("divides_common", i + 1, th, theta))

    zero = tower.ground_zero
    for stage in range(1, tower.depth + 1):
        twist = ladder.twists[stage - 1]
        for x in range(tower.size(stage - 1)):
            checks += 1
            if twist[x][zero] != 0:
                violations.append(("twist_at_zero", stage, x))

    memos = _build_step_tables(tower, ladder, violations)
    checks += sum(
        tower.size(s) * tower.size(0) for s in range(1, tower.depth + 1)
    )

    at_common = [
        iterated_table(memos[s], _step_ratio(theta, ladder.stage_theta(s)))
        for s in range(tower.depth + 1)
    ]

    for stage in range(tower.depth + 1):
        one = memos[stage][1]
        full = at_common[stage]
        for x in range(tower.size(stage)):
            checks += 2
            if one[x][zero] != x:
                violations.append(("right_zero", stage, x))
            if full[x][zero] != x:
                violations.append(("right_zero_common", stage, x))
        if stage == 0:
            continue
        q = tower.layers[stage - 1].q
        proj_step = iterated_table(
            memos[stage - 1],
            _step_ratio(ladder.stage_theta(stage), ladder.stage_theta(stage - 1)),
        )
        for x in range(tower.size(stage)):
            for y in range(tower.size(0)):
                checks += 2
                if one[x][y] // q != proj_step[x // q][y]:
                    violations.append(("equivariance", stage, x, y))
                if full[x][y] // q != at_common[stage - 1][x // q][y]:
                    violations.append(("equivariance_common", stage, x, y))

    return LadderReport(checks=checks, violations=tuple(violations))


def random_tower(rng, qs=(2, 3, 4, 8, 9), max_layers: int = 2) -> TowerModel:
    """Random small tower: ground of size <= 4, 1..max_layers layers with
    moduli drawn from qs and uniformly random kappa tables."""
    ground = FgAbGroup(rng.choice([(2,), (3,), (4,), (2, 2)]))
    size = ground.size
    layers = []
    for _ in range(rng.randint(1, max_layers)):
        q = rng.choice(qs)
        layers.append(Layer(q=q, kappa=[rng.randrange(q) for _ in range(size)]))
        size *= q
    return TowerModel(ground, layers)
