"""Finite towers of prime-power fiber extensions with a lifted action.

A tower starts from a finite abelian ground group and attaches layers.
Layer i has a prime-power modulus q and an arbitrary table kappa over the
previous stage; the new stage consists of pairs (p, c) with c in Z/q^2
constrained by c = kappa(p) mod q, the point p*q + t for c = kappa(p) + q*t.
Every stage is a plain finite set, so every construction below is total
and can be checked exhaustively.

build_ladder equips the stages with an action of the ground group at
scales Theta_i: the ground acts on itself by addition (Theta_0 = 1), and
each layer transports the action of the stage below through a
difference-operator correction w (the twist) of its kappa table,
multiplying the scale by the operator's theta.  Each stage s >= 1 is a
principal fibration over the stage below, so its action is a skew
product: the point (p, t) moves under y to (P[p][y], t + delta[p][y] mod
q), where P is the stage below's action at the scale ratio and
delta[p][y] = floor((kappa[p] + w[p][y] - kappa[P[p][y]]) / q) mod q does
not depend on t.  Stages are stored as delta, q times smaller than their
full tables, which are expanded only on demand.  verify_ladder audits the
advertised guarantees (right zero, projection equivariance, fiber
compatibility, scale divisibility) over every stage and every pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from ._primes import prime_power
from .abelian import FgAbGroup
from .diffcalc import AuditReport, _diagonal_sums, build_diff_operator, iterated_table

__all__ = [
    "Layer", "TowerModel", "ActionLadder", "build_ladder", "stage_act",
    "enumerate_lifts", "verify_ladder", "random_tower",
]


# Largest size(stage) x size(0) of any stage, the size of its one-step
# action table; decision-instance tables share the cap (see fileformat).
_MAX_TABLE_ENTRIES = 200_000


def _check_stage_size(stage: int, size: int, ground_size: int):
    if size * ground_size > _MAX_TABLE_ENTRIES:
        raise ValueError(
            f"stage {stage} too large: size(stage) x size(0) exceeds "
            f"{_MAX_TABLE_ENTRIES}"
        )


@dataclass(frozen=True)
class Layer:
    """One fiber extension: modulus q (a prime power) and the constraint
    table kappa over the stage below, with values in [0, q)."""

    q: int
    kappa: tuple

    def __post_init__(self):
        if prime_power(self.q) is None:
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
    carrier of stage i has exactly |carrier(i-1)| * q_i elements.  Every
    stage's size times the ground's is at most _MAX_TABLE_ENTRIES.
    """

    def __init__(self, ground: FgAbGroup, layers=()):
        if not ground.is_finite:
            raise ValueError("ground group must be finite")
        self.ground = ground
        self.layers = tuple(layers)
        sizes = [ground.size]
        _check_stage_size(0, sizes[0], sizes[0])
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, Layer):
                raise TypeError("layers must be Layer instances")
            if len(layer.kappa) != sizes[-1]:
                raise ValueError(
                    f"layer {i} kappa has {len(layer.kappa)} entries, "
                    f"stage below has {sizes[-1]} elements"
                )
            sizes.append(sizes[-1] * layer.q)
            _check_stage_size(i + 1, sizes[-1], sizes[0])
        self.sizes = tuple(sizes)
        self.ground_elements = list(ground.elements())
        self.ground_zero = 0  # odometer order puts the zero element first
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
    element y acts on a stage-i point over x.  The twists are the single
    source of truth: each stage's action is re-derived from them in skew
    form, and a full table is expanded only for step_tables or stage_act.
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
    def _step_memos(self):
        """Per-stage power memos, shared by stage_act and step_tables."""
        return _lift_stages(self.tower, self, violations=None)

    @cached_property
    def step_tables(self):
        """table[s][x][y] = one application of the stage-s action (at its
        own scale Theta_s).  Raises if a twist breaks fiber membership;
        use verify_ladder for a tolerant audit."""
        return [memo.table(1) for memo in self._step_memos]


def _step_ratio(scale: int, base: int) -> int:
    """Iterations from one scale to a larger multiple; 1 when the chain is
    broken (the divisibility audit reports that separately)."""
    if base >= 1 and scale >= base and scale % base == 0:
        return scale // base
    return 1


class _GroundStage:
    """Powers of the ground's translation table, by doubling."""

    def __init__(self, tower: TowerModel):
        self.full = {1: tower.add_table}

    def table(self, n: int):
        return iterated_table(self.full, n)


class _SkewStage:
    """Powers of the action of a stage s >= 1, in skew form.

    The n-th power is (P^n, delta^n), P^n being the stage below's table at
    ratio * n; delta^(a+b)[p][y] = delta^a[p][y] + delta^b[P^a[p][y]][y]
    mod q.  Full tables are expanded on demand.
    """

    def __init__(self, below, ratio: int, q: int, delta):
        self.below, self.ratio, self.q = below, ratio, q
        self.shifts, self.full = {1: delta}, {}

    def proj(self, n: int):
        return self.below.table(self.ratio * n)

    def shift(self, n: int):
        if n not in self.shifts:
            a = 1 if n % 2 else n // 2
            first, second, q = self.shift(a), self.shift(n - a), self.q
            self.shifts[n] = tuple(
                tuple((d + second[v][y]) % q for y, (v, d) in enumerate(zip(pr, dr)))
                for pr, dr in zip(self.proj(a), first)
            )
        return self.shifts[n]

    def table(self, n: int):
        if n not in self.full:
            # the fiber over v twice over, so that each rotation is a slice
            q, proj, rows = self.q, self.proj(n), []
            fibers = [tuple(range(v * q, v * q + q)) * 2 for v in range(len(proj))]
            for pr, dr in zip(proj, self.shift(n)):
                rows += zip(*[fibers[v][d:d + q] for v, d in zip(pr, dr)])
            self.full[n] = tuple(rows)
        return self.full[n]

    def fixes_zero(self, n: int, zero: int) -> list:
        """Per parent p: whether the zero fixes the q points over p."""
        rows = zip(self.proj(n), self.shift(n))
        return [pr[zero] == p and dr[zero] == 0 for p, (pr, dr) in enumerate(rows)]


def _lift_stage(tower: TowerModel, stage: int, proj_step, twist, violations):
    """The size(stage - 1) x size(0) table delta of `stage` (see the module
    docstring), given the stage below's one-step table P at the scale
    ratio.  Acting keeps the fiber iff q divides kappa[p] + w -
    kappa[P[p][y]], whatever t is; delta also encodes a breach.  With
    violations=None a breach raises, else it is listed per point over p.
    """
    layer = tower.layers[stage - 1]
    q, kappa = layer.q, layer.kappa
    rows = []
    for p, (proj_row, twist_row) in enumerate(zip(proj_step, twist)):
        shifts = [kappa[p] + w - kappa[p2] for p2, w in zip(proj_row, twist_row)]
        bad = [y for y, v in enumerate(shifts) if v % q]
        if bad:
            if violations is None:
                raise ValueError(f"twist at stage {stage} breaks fiber membership "
                                 f"(x={p}, y={bad[0]})")
            violations += (("fiber", stage, x, y) for x in range(p * q, p * q + q)
                           for y in bad)
        rows.append(tuple(v // q % q for v in shifts))
    return tuple(rows)


def _lift_stages(tower: TowerModel, ladder: ActionLadder, violations):
    """Bottom-up power memos of every stage, from the twists alone."""
    stages = [_GroundStage(tower)]
    for stage, layer in enumerate(tower.layers, 1):
        ratio = _step_ratio(ladder.thetas[stage - 1], ladder.stage_theta(stage - 1))
        proj, twist = stages[-1].table(ratio), ladder.twists[stage - 1]
        delta = _lift_stage(tower, stage, proj, twist, violations)
        stages.append(_SkewStage(stages[-1], ratio, layer.q, delta))
    return stages


def build_ladder(tower: TowerModel, min_order: int = 2) -> ActionLadder:
    """Lift the ground group's translation action through every layer.

    At each layer the stage below already carries an action at scale
    Theta_prev; the layer's reduction operator, evaluated diagonally on
    its kappa table over that action, gives a value w with
    kappa(x acted at theta*Theta_prev) - kappa(x) = w in Z/q.  The twist
    stores w's canonical representative in Z/q^2 (vanishing at y = 0), so
    adding it to the fiber coordinate keeps the membership constraint
    while the base point moves at the new scale Theta = theta * Theta_prev.
    Full tables are expanded only for the powers the diagonal sums walk,
    so never for the top stage.
    """
    ops, thetas, twists = [], [], []
    below = _GroundStage(tower)
    for stage, layer in enumerate(tower.layers, 1):
        op = build_diff_operator(*prime_power(layer.q), min_order)
        walked = {n: below.table(n) for n in (1, *(stride for _, stride in op.terms))}
        columns = [
            _diagonal_sums(op, walked, layer.kappa, y) for y in range(tower.size(0))
        ]
        twist = tuple(tuple(w % layer.q for w in row) for row in zip(*columns))
        ops.append(op)
        thetas.append(op.theta * (thetas[-1] if thetas else 1))
        twists.append(twist)
        delta = _lift_stage(tower, stage, below.table(op.theta), twist, violations=None)
        below = _SkewStage(below, op.theta, layer.q, delta)
    return ActionLadder(
        tower=tower, ops=tuple(ops), thetas=tuple(thetas), twists=tuple(twists)
    )


def stage_act(
    tower: TowerModel, ladder: ActionLadder, stage: int, x: int, y: int, at_theta: int
) -> int:
    """Act with ground element y on stage point x, at scale at_theta.

    at_theta must be a positive multiple of the stage's own scale; the
    action is the one-step action iterated at_theta / Theta_stage times,
    read from the ladder's per-stage power memo.
    """
    base = ladder.stage_theta(stage)
    if at_theta < 1 or at_theta % base:
        raise ValueError(
            f"scale {at_theta} is not a positive multiple of stage scale {base}"
        )
    return ladder._step_memos[stage].table(at_theta // base)[x][y]


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


def verify_ladder(tower: TowerModel, ladder: ActionLadder) -> AuditReport:
    """Exhaustive audit over every stage and every (point, ground) pair.

    Checks: the scale chain divides (each stage scale divides the next and
    the common one); twists vanish at y = 0; acting keeps the fiber
    constraint (the single-step check with real teeth); the right zero
    fixes every point at the stage scale and at the common scale; and
    projecting commutes with acting at both scales.  Violations are
    reported, never raised, so corrupted ladders can be audited.

    In skew form the fiber and right-zero checks are decided per parent
    and reported per point; common-scale equivariance compares P-parts,
    where a broken scale chain shows.  The ground's right zero and
    stage-scale equivariance hold by construction and are still counted.
    """
    violations = []
    thetas, theta, zero = ladder.thetas, ladder.common_theta, tower.ground_zero
    checks = 2 * len(thetas) + sum(tower.sizes[:-1]) + 2 * tower.size(0)
    for i, (prev, th) in enumerate(zip((1, *thetas), thetas), 1):
        if th % prev:
            violations.append(("divisibility", i, th, prev))
    for i, th in enumerate(thetas, 1):
        if theta % th:
            violations.append(("divides_common", i, th, theta))
    for stage in range(1, tower.depth + 1):
        violations += (("twist_at_zero", stage, x) for x in range(tower.size(stage - 1))
                       if ladder.twists[stage - 1][x][zero] != 0)

    stages = _lift_stages(tower, ladder, violations)
    for stage, (below, memo) in enumerate(zip(stages, stages[1:]), 1):
        size, q = tower.size(stage), memo.q
        n = _step_ratio(theta, ladder.stage_theta(stage))
        one, full = memo.fixes_zero(1, zero), memo.fixes_zero(n, zero)
        for x in range(size):
            if not one[x // q]:
                violations.append(("right_zero", stage, x))
            if not full[x // q]:
                violations.append(("right_zero_common", stage, x))
        # right zero, fiber, stage-scale and common-scale equivariance
        checks += 2 * size + 3 * size * tower.size(0)
        want = below.table(_step_ratio(theta, ladder.stage_theta(stage - 1)))
        for p, (row, want_row) in enumerate(zip(memo.proj(n), want)):
            ys = [y for y, (a, b) in enumerate(zip(row, want_row)) if a != b]
            violations += (("equivariance_common", stage, x, y)
                           for x in range(p * q, p * q + q) for y in ys)
    return AuditReport(checks=checks, violations=tuple(violations))


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
