"""Golden digests of the tower layer's public outputs.

Each digest is SHA-256 over, per ladder: the canonical ladder export, the
verify_ladder checks and violations, the step tables (or the ValueError
they raise) and sampled stage_act results (or their errors).  The ladders
are built from seeded random towers and a few small shapes, intact and
corrupted: twists shifted off the fiber grid, twists replaced by arbitrary
(negative and huge) integers, twists non-zero at y = 0, broken scale
chains and arbitrary scales.  A change to how stages are stored or
iterated must leave every digest as it is.
"""

import dataclasses
import hashlib
import random

from extdecide.abelian import FgAbGroup
from extdecide.fileformat import canonical_json, dump_ladder
from extdecide.tower import (
    Layer,
    TowerModel,
    build_ladder,
    random_tower,
    stage_act,
    verify_ladder,
)

SHAPES = (
    ((4,), ()),
    ((2,), (2,)),
    ((3,), (3,)),
    ((2, 2), (2, 3)),
    ((5,), (25,)),
    ((2,), (4, 8)),
    ((3,), (9, 2, 4)),
    ((2, 2), (9, 4, 8)),
)


def _towers():
    """Seeded random towers of up to three layers, then the small shapes
    with kappa drawn from one seeded stream."""
    towers = [random_tower(random.Random(seed), max_layers=3) for seed in range(100)]
    rng = random.Random("shapes")
    for ground, moduli in SHAPES:
        size, layers = FgAbGroup(ground).size, []
        for q in moduli:
            layers.append(Layer(q=q, kappa=[rng.randrange(q) for _ in range(size)]))
            size *= q
        towers.append(TowerModel(FgAbGroup(ground), layers))
    return towers


def _set_twist(ladder, stage, x, y, value):
    twist = [list(row) for row in ladder.twists[stage - 1]]
    twist[x][y] = value(twist[x][y])
    twists = list(ladder.twists)
    twists[stage - 1] = tuple(tuple(row) for row in twist)
    return dataclasses.replace(ladder, twists=tuple(twists))


def _corrupted(kind, tower, ladder, rng):
    stage = rng.randint(1, tower.depth)
    q = tower.layers[stage - 1].q
    x = rng.randrange(tower.size(stage - 1))
    y = rng.randrange(1, tower.size(0))
    if kind == "off_fiber":
        return _set_twist(ladder, stage, x, y, lambda w: w + 1)
    if kind == "arbitrary_twist":
        for value in (-7, 10**30 + 3, rng.randint(-10**6, 10**6)):
            x, y = rng.randrange(tower.size(stage - 1)), rng.randrange(tower.size(0))
            ladder = _set_twist(ladder, stage, x, y, lambda w, v=value: v)
        return ladder
    if kind == "twist_at_zero":  # once on the grid, once off it
        ladder = _set_twist(ladder, stage, x, 0, lambda w: w + q)
        return _set_twist(ladder, stage, (x + 1) % tower.size(stage - 1), 0,
                          lambda w: w + 1)
    if kind == "broken_theta":
        thetas = list(ladder.thetas)
        thetas[stage - 1] += 1
        return dataclasses.replace(ladder, thetas=tuple(thetas))
    assert kind == "arbitrary_theta"
    thetas = [rng.choice((1, 2, 3, 6, 7, 12, 2**40)) for _ in ladder.thetas]
    return dataclasses.replace(ladder, thetas=tuple(thetas))


def _outputs(tower, ladder, rng):
    """The public outputs of one ladder, as text, and whether it audits
    clean."""
    report = verify_ladder(tower, ladder)
    parts = [canonical_json(dump_ladder(ladder)), repr((report.checks, report.violations))]
    try:
        parts.append(repr(ladder.step_tables))
    except ValueError as exc:
        parts.append(f"ValueError: {exc}")
    for stage in range(tower.depth + 1):
        base = ladder.stage_theta(stage)
        for _ in range(4):
            x, y = rng.randrange(tower.size(stage)), rng.randrange(tower.size(0))
            for at in (base, rng.randint(2, 5) * base, ladder.common_theta):
                try:
                    parts.append(repr(stage_act(tower, ladder, stage, x, y, at)))
                except ValueError as exc:
                    parts.append(f"ValueError: {exc}")
    return "\n".join(parts), report.ok


def _digests():
    digests, failing = {}, {}
    for i, tower in enumerate(_towers()):
        ladder = build_ladder(tower, min_order=2 + i % 2)
        rng = random.Random(i)
        kinds = ["intact"]
        if tower.depth:
            kinds.append(("off_fiber", "arbitrary_twist", "twist_at_zero",
                          "broken_theta", "arbitrary_theta")[i % 5])
        for kind in kinds:
            case = ladder if kind == "intact" else _corrupted(kind, tower, ladder, rng)
            text, ok = _outputs(tower, case, rng)
            digests.setdefault(kind, hashlib.sha256()).update(text.encode())
            failing[kind] = failing.get(kind, 0) + (not ok)
    return {kind: h.hexdigest()[:16] for kind, h in digests.items()}, failing


# computed on the full-table implementation, before stages were stored
# in skew form
GOLDEN = {
    "intact": "1625e424f2064425",
    "off_fiber": "74e84cddf55f6574",
    "arbitrary_twist": "cb84b8e88ad9e605",
    "twist_at_zero": "9cc17f5e5c3af8a2",
    "broken_theta": "bf4ca8ad1d9e9627",
    "arbitrary_theta": "1037c884e61ba377",
}


def test_tower_outputs_match_golden_digests():
    digests, failing = _digests()
    assert failing["intact"] == 0
    assert failing["off_fiber"] and failing["arbitrary_twist"]
    assert failing["twist_at_zero"] and failing["broken_theta"]
    assert digests == GOLDEN


def test_full_tables_stay_lazy():
    # build_ladder and verify_ladder never fill the ladder's full-table caches
    for seed in range(10):
        tower = random_tower(random.Random(seed), max_layers=3)
        ladder = build_ladder(tower)
        assert verify_ladder(tower, ladder).ok
        assert "step_tables" not in ladder.__dict__
        assert "_step_memos" not in ladder.__dict__
