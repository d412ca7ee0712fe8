"""Tour of the finite tower model and its lifted action.

A tower stacks prime-power fiber extensions over a finite abelian ground
group: layer i contributes pairs (x, c) with c in Z/q^2 pinned to an
arbitrary table kappa modulo q.  The ground group translates itself;
build_ladder pushes that translation up through every layer at a growing
scale Theta_i, correcting the fiber coordinate with a difference-operator
evaluation of kappa so that everything stays inside the tower.
"""

import random

from extdecide import (
    FgAbGroup,
    Layer,
    TowerModel,
    build_ladder,
    enumerate_lifts,
    random_tower,
    stage_act,
    verify_ladder,
)

print("== A two-layer tower over Z/2 ==")
rng = random.Random(12)
ground = FgAbGroup((2,))
layer1 = Layer(q=2, kappa=[rng.randrange(2) for _ in range(2)])
layer2 = Layer(q=3, kappa=[rng.randrange(3) for _ in range(4)])
tower = TowerModel(ground, [layer1, layer2])
print(f"  stage sizes: {list(tower.sizes)}  (each layer multiplies by its q)")
print(f"  layer tables: kappa1 = {list(layer1.kappa)}, kappa2 = {list(layer2.kappa)}")
print()

print("== Lifting the translation action ==")
ladder = build_ladder(tower, min_order=2)
print(f"  per-layer operators: "
      f"{[(op.q, op.order, op.theta) for op in ladder.ops]}  (q, order, theta)")
print(f"  cumulative scales Theta_i: {list(ladder.thetas)}, "
      f"common Theta = {ladder.common_theta}")
x = 5
y = 1
moved = stage_act(tower, ladder, 2, x, y, ladder.common_theta)
print(f"  acting on top-stage point {x} by ground element {y} at the common "
      f"scale gives {moved}")
print(f"  the right zero fixes it: "
      f"{stage_act(tower, ladder, 2, x, 0, ladder.common_theta) == x}")
print()

print("== The audit: exhaustive over every stage and pair ==")
report = verify_ladder(tower, ladder)
print(f"  {report.checks} checks, {len(report.violations)} violations")
print()

print("== One hundred random towers ==")
clean = 0
for seed in range(100):
    t = random_tower(random.Random(seed))
    if verify_ladder(t, build_ladder(t)).ok:
        clean += 1
print(f"  {clean}/100 towers verified clean")
print()

print("== Lift enumeration through the fibers ==")
labels = ["u", "v"]
assignment = {"u": 0, "v": 1}
first = enumerate_lifts(tower, labels, assignment, 1)
print(f"  two points into the q=2 layer: {len(first)} lifts")
total = sum(len(enumerate_lifts(tower, labels, lift, 2)) for lift in first)
print(f"  continuing through the q=3 layer: {total} lifts in total "
      f"(= 2^2 * 3^2)")
