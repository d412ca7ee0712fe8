"""Seeded inputs and timed jobs of the four benchmark workloads.

A workload is a round: a fixed list of job slots that a run repeats whole.
Each slot fixes the shape of its input (group orders and ranks, tower
layers, window depth, map size), and the seed fills in the values (kappa
tables, operation tables, matrices, class placements) through
random.Random and the program's own generators, constructors and writers.
Two seeds therefore time the same amount of work on different data, which
keeps the spread between seeds small.

Jobs call the program through module attributes looked up at call time, so
a tracer that replaces those attributes sees every call.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from extdecide import abelian as AB
from extdecide import diffcalc as DC
from extdecide import fileformat as FF
from extdecide import tower as TW

import checks

DE = sys.modules["extdecide.decide"]  # the package rebinds `decide` to the function

# The benchmark's own parse step; a tracer wraps this name.
parse_json = json.loads

MIN_ORDER = 2


def spread(plateaus):
    """One round's slot order: each plateau's slots spaced evenly over the
    round, so that the jobs which decide the median and the tail are timed
    at many moments of a run rather than in one burst, which a passing
    change in the machine's speed would move as a whole.  Each plateau
    starts at its own phase, so that no two crowd the same place."""
    phase = [(g + 1) / (len(plateaus) + 1) for g in range(len(plateaus))]
    placed = sorted(((k + phase[g]) / len(group), g, k)
                    for g, group in enumerate(plateaus)
                    for k in range(len(group)))
    return tuple(plateaus[g][k] for _, g, k in placed)


# --- tower_audit ----------------------------------------------------------------

# (ground orders, layer moduli): 2-4 layers, grounds of 2-16 elements, top
# stages of about 10^3 to 10^4 points.  The ROADMAP baseline is (4, 4) with
# q = 8, 9, 4.  Below the three costliest towers sit several of nearly equal
# cost (80-100 ms here), so the tail, ten samples below the top, does not
# jump between two slots of very different cost when repeats reorder.
TOWER_SHAPES = (
    ((2,), (27, 25)),
    ((3,), (16, 27)),
    ((5,), (8, 27)),
    ((2,), (8, 8, 16)),
    ((4,), (25, 16)),
    ((4,), (4, 4, 4, 4)),
    ((2, 2), (9, 4, 8)),
    ((3,), (9, 9, 9)),
    ((3, 3), (8, 16)),
    ((2, 2), (4, 4, 4, 4)),
    ((2,), (4, 9, 5, 8)),
    ((8,), (9, 25)),
    ((2, 2, 2), (9, 25)),
    ((9,), (16, 16)),
    ((2, 4), (27, 9)),
    ((3,), (4, 5, 9, 8)),
    ((3, 3), (27, 16)),
    ((16,), (5, 27)),
    ((2, 8), (25, 27)),
    ((4, 4), (8, 9, 4)),
    ((16,), (27, 25)),
    ((2, 2), (8, 27)),
)
OPERATOR_GRID = tuple((p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3, 4))
ALGEBRA_SIZE = 12
TOWER_SAMPLES = 24      # sampled (x, y) per stage
CONGRUENCE_SAMPLES = 8  # sampled (x, y) per operator


@dataclass(eq=False)
class TowerJob:
    label: str
    ground: tuple
    moduli: tuple
    kappas: list
    samples: list
    tower: object
    kind: str = "tower"

    def run(self):
        ladder = TW.build_ladder(self.tower, min_order=MIN_ORDER)
        report = TW.verify_ladder(self.tower, ladder)
        text = FF.canonical_json(FF.dump_ladder(ladder))
        return ladder, report, text

    def check(self, out):
        checks.check_tower(self, out, MIN_ORDER)


@dataclass(eq=False)
class OperatorJob:
    label: str
    p: int
    m: int
    table: list
    zero: int
    values: list         # the map as ints mod q, for the checker
    elements: tuple      # the same map as GroupElements, for the program
    samples: list
    kind: str = "operator"

    def run(self):
        algebra = DC.ActionAlgebra(self.table, self.zero)
        f = DC.GValuedMap(algebra, self.elements[0].group, self.elements)
        op = DC.build_diff_operator(self.p, self.m, MIN_ORDER)
        return op, DC.check_congruence(op, f)

    def check(self, out):
        checks.check_operator(self, out, MIN_ORDER)


def tower_audit(seed):
    jobs = []
    for i, (ground, moduli) in enumerate(TOWER_SHAPES):
        rng = random.Random(f"tower/{seed}/{i}")
        size = math.prod(ground)
        sizes, kappas = [size], []
        for q in moduli:
            kappas.append([rng.randrange(q) for _ in range(size)])
            size *= q
            sizes.append(size)
        layers = [TW.Layer(q=q, kappa=k) for q, k in zip(moduli, kappas)]
        tower = TW.TowerModel(AB.FgAbGroup(ground), layers)
        samples = [
            (s, rng.randrange(sizes[s]), rng.randrange(sizes[0]))
            for s in range(1, len(sizes)) for _ in range(TOWER_SAMPLES)
        ]
        jobs.append(TowerJob(f"tower{ground}{moduli}", ground, moduli,
                             kappas, samples, tower))
    n = ALGEBRA_SIZE
    for p, m in OPERATOR_GRID:
        rng = random.Random(f"operator/{seed}/{p}/{m}")
        zero = rng.randrange(n)
        table = [[x if y == zero else rng.randrange(n) for y in range(n)]
                 for x in range(n)]
        algebra = DC.ActionAlgebra(table, zero)
        f = DC.random_map(rng, algebra, AB.FgAbGroup((p**m,)))
        samples = [(rng.randrange(n), rng.randrange(n))
                   for _ in range(CONGRUENCE_SAMPLES)]
        jobs.append(OperatorJob(f"operator p={p} m={m}", p, m, table, zero,
                                [e.coords[0] for e in f.table], f.table,
                                samples))
    return jobs


# --- decide_finite ---------------------------------------------------------------

# (summand order, rank over X, X fiber order, desired): the x side has
# exactly order^rank * fiber classes, from 20 up to 27^2 * 25 = 18,225.
# Every fiber is smaller than its order, so a draw of higher rank on either
# side exceeds max_classes and is refused before any table is built.  With
# theta 2 the a side has at most 2 * order^rank classes; below PIN_A_BELOW
# x-classes, where refusing a built draw costs little, the a side must also
# have rank 1, so it stays a small share of the work that the seed does
# not change.
#
# The slots are grouped in cost plateaus, cheapest first: groups of slots
# of nearly one cost with clear gaps between groups.  A job costs about
# 50 us per x-class at rank 2, less at rank 1 and more at rank 3.  With 7
# rounds the 105 timed jobs put the median in the middle of the 35 jobs of
# the 363-405-class plateau (as many slots below it as above) and the tail
# (ten jobs above it, seven of them the largest) in the middle of the 7
# jobs of 16^2 * 14, a 0.2 s job whose cost moves with the machine's
# speed no more than the median's does.  See `spread` for the order
# within a round.
FINITE_PLATEAUS = (
    ((5, 1, 4, "YES"), (4, 2, 3, "NO"), (3, 3, 2, "YES"), (9, 1, 8, "NO"),
     (16, 1, 9, "YES")),
    ((8, 2, 6, "NO"), (9, 2, 5, "YES"), (10, 2, 4, "NO"), (11, 2, 3, "YES"),
     (9, 2, 5, "NO")),
    ((12, 2, 11, "YES"), (13, 2, 9, "NO"), (14, 2, 8, "YES")),
    ((16, 2, 14, "NO"),),
    ((27, 2, 25, "YES"),),
)
FINITE_SLOTS = spread(FINITE_PLATEAUS)
PIN_A_BELOW = 4000
FINITE_THETA = 2


@dataclass(eq=False)
class FiniteJob:
    label: str
    raw: bytes
    kind: str = "finite"
    facts: object = None

    def run(self):
        inst = FF.load_instance(parse_json(self.raw))
        report = DE.validate_instance(inst)
        verdict = DE.decide(inst)
        return inst, report, verdict, DE.brute_force(inst)

    def check(self, out):
        if self.facts is None:
            self.facts = checks.finite_expectations(self.raw)
        checks.check_finite(self.facts, self.raw, out, canonical_bytes)


def _first_instance(rng, theta, desired, params, accept=lambda inst: True):
    """The first generate_instance output, over generator seeds drawn from
    rng, that fits params.max_classes and that accept takes."""
    while True:
        try:
            inst = DE.generate_instance(rng.randrange(2**32), theta=theta,
                                        desired=desired, params=params)
        except ValueError:
            continue
        if accept(inst):
            return inst


def _generated(seed, slot):
    """A slot's instance, with exactly the slot's number of x-classes."""
    order, rank, fiber, desired = slot
    size = order**rank * fiber
    params = DE.GenParams(max_rank=3, order_pool=(order,), fiber_pool=(fiber,),
                          max_classes=size)
    return _first_instance(
        random.Random(f"finite/{seed}/{slot}"), FINITE_THETA, desired, params,
        lambda inst: len(inst.x_classes) == size
        and (size >= PIN_A_BELOW or inst.ga.rank == 1),
    )


def trivial_a_instance():
    """Z/2 -> 0 with a Z/2 fiber on each side; fixed, not seeded.  Today
    `decide` raises in `solve` on every such instance, so these jobs count
    as failed until that fault is mended."""
    gx, ga = AB.FgAbGroup((2,)), AB.FgAbGroup(())
    xs = (0, 1, 2, 3)
    return DE.ExtensionInstance(
        gx=gx, ga=ga, restriction=AB.GroupHom(gx, ga, []),
        target_ground=ga.zero(), theta=2, x_classes=xs, a_classes=(0, 1),
        proj_x={g: gx.element((g // 2,)) for g in xs},
        proj_a={0: ga.zero(), 1: ga.zero()},
        restrict_class={g: g % 2 for g in xs}, target_class=1,
        act_x={g: (g,) for g in xs}, act_a={0: (), 1: ()},
    )


def canonical_bytes(inst):
    return FF.canonical_json(FF.dump_instance(inst)).encode()


def decide_finite(seed):
    jobs = [
        FiniteJob(f"finite {slot[0]}^{slot[1]}x{slot[2]} {slot[3]}",
                  canonical_bytes(_generated(seed, slot)))
        for slot in FINITE_SLOTS
    ]
    jobs.append(FiniteJob("finite trivial A", canonical_bytes(trivial_a_instance())))
    return jobs


# --- decide_window -----------------------------------------------------------------

# Deep windows: ("deep", (kernel rank k, theta, finite summand order or 0,
# desired)); wide maps: ("wide", (source rank, target rank)), entries up to
# 2^64, theta 2.  A deep job's cost is set by its box of representatives,
# which the seed does not change.  The slots are grouped in cost plateaus,
# cheapest first (times from a 2-core machine).  With 3 rounds the 57 jobs
# put the median in the middle of the 15 jobs of the 0.2 s plateau (as many
# slots below it as above) and the tail (ten jobs above it, six of them
# the two on top) in the middle of the 9 jobs of the 0.7 s plateau.
WINDOW_PLATEAUS = (
    (("deep", (1, 50, 0, "YES")), ("deep", (1, 1000, 0, "NO")),
     ("deep", (1, 2000, 2, "YES")), ("deep", (2, 20, 4, "NO")),
     ("deep", (2, 40, 0, "YES")), ("deep", (3, 6, 2, "NO")),
     ("wide", (8, 4))),                                     # up to 0.1 s
    (("deep", (1, 20000, 0, "YES")), ("deep", (1, 21000, 0, "NO")),
     ("deep", (2, 100, 0, "YES")), ("deep", (2, 106, 0, "NO")),
     ("deep", (3, 18, 0, "YES"))),                          # about 0.2 s
    (("deep", (1, 40000, 0, "YES")), ("wide", (10, 5))),    # 0.25-0.35 s
    (("deep", (2, 200, 0, "YES")), ("deep", (2, 200, 0, "NO")),
     ("deep", (3, 28, 0, "YES"))),                          # about 0.7 s
    (("deep", (1, 100000, 0, "NO")), ("wide", (16, 8))),    # 1.1 s, 2.5 s
)
WINDOW_SLOTS = spread(WINDOW_PLATEAUS)
WINDOW_POINTS = 40


@dataclass(eq=False)
class WindowJob:
    label: str
    raw: bytes
    kind: str            # "deep" or "wide"
    answer: str
    witness: object
    rep_count: int
    facts: object = None

    def run(self):
        inst = FF.load_instance(parse_json(self.raw))
        report = DE.validate_instance(inst)
        return inst, report, DE.decide(inst)

    def check(self, out):
        if self.facts is None:
            self.facts = checks.InstanceFacts(self.raw)
        checks.check_window(self, self.facts, out)


def _deep(seed, slot):
    """Z^k (+ Z/o) -> Z/n_1 + ... + Z/n_k, identity on the Z summands and
    zero on Z/o, so the kernel is n_1 Z + ... + n_k Z (+ Z/o).  The target
    is 0, so the window is centred on 0; the only class that can hit the
    target inside it sits over 0, and a NO instance at rank 1 also has a
    decoy just outside the window."""
    k, theta, o, desired = slot
    rng = random.Random(f"deep/{seed}/{slot}")
    mods = [rng.randint(3, 7) for _ in range(k)]
    fin = (o,) if o else ()
    gx = AB.FgAbGroup(fin + (0,) * k)
    ga = AB.FgAbGroup(mods)
    matrix = [[0] * len(fin) + [int(i == j) for j in range(k)] for i in range(k)]
    restriction = AB.GroupHom(gx, ga, matrix)
    half = theta // 2
    points = {(0,) * k}
    while len(points) < WINDOW_POINTS:
        points.add(tuple(rng.randint(-theta, theta) for _ in range(k)))
    decoy = None
    if desired == "NO" and k == 1:
        decoy = ((half + 1) * mods[0] * rng.choice((-1, 1)),)
        points.add(decoy)
    us = range(o) if o else (0,)
    cells = sorted((u, z) for z in points for u in us)
    ids = tuple(range(len(cells)))
    a_ids = tuple(range(2 * ga.size))
    target_class = 1  # ground 0, fiber 1
    proj_x, restrict = {}, {}
    witness = None
    for g, (u, z) in zip(ids, cells):
        point = gx.element(((u,) if o else ()) + z)
        image = restriction(point)
        on_coset = image.is_zero
        if on_coset:
            hit = (desired == "YES" and u == 0 and not any(z)) or z == decoy
        else:
            hit = rng.random() < 0.5
        if hit and on_coset and desired == "YES":
            witness = g
        proj_x[g] = point
        restrict[g] = 2 * ga.index_of(image) + int(hit)
    inst = DE.ExtensionInstance(
        gx=gx, ga=ga, restriction=restriction, target_ground=ga.zero(),
        theta=theta, x_classes=ids, a_classes=a_ids, proj_x=proj_x,
        proj_a={a: ga.element_at(a // 2) for a in a_ids},
        restrict_class=restrict, target_class=target_class,
        act_x={g: (g,) * gx.rank for g in ids},
        act_a={
            a: tuple(
                2 * ga.index_of(ga.element_at(a // 2) + theta * ga.generator(j)) + a % 2
                for j in range(k)
            )
            for a in a_ids
        },
    )
    rep_count = checks.box_size(theta, ([o] if o else []) + [0] * k)
    return WindowJob(f"deep k={k} theta={theta} o={o} {desired}",
                     canonical_bytes(inst), "deep", desired, witness, rep_count)


def _wide(seed, slot):
    """Z^s -> Z^t with entries up to 2^64 and a target that has a known
    small solution.  Classes over that solution restrict to a decoy class
    beside the target, so the answer is NO by construction."""
    s, t = slot
    rng = random.Random(f"wide/{seed}/{slot}")
    gx, ga = AB.FgAbGroup((0,) * s), AB.FgAbGroup((0,) * t)
    bound = 2**64
    matrix = [[rng.randint(-bound, bound) for _ in range(s)] for _ in range(t)]
    restriction = AB.GroupHom(gx, ga, matrix)
    solution = gx.element([rng.randint(-5, 5) for _ in range(s)])
    target = restriction(solution)
    points = [solution] + [
        gx.element([rng.randint(-5, 5) for _ in range(s)])
        for _ in range(WINDOW_POINTS - 1)
    ]
    ids = tuple(range(len(points)))
    # a-class 0 is the decoy and 1 the target, both over the target ground
    proj_a = {0: target, 1: target}
    restrict = {}
    for g, point in zip(ids, points):
        image = restriction(point)
        if image == target:
            restrict[g] = 0
        else:
            restrict[g] = len(proj_a)
            proj_a[len(proj_a)] = image
    a_ids = tuple(proj_a)
    inst = DE.ExtensionInstance(
        gx=gx, ga=ga, restriction=restriction, target_ground=target, theta=2,
        x_classes=ids, a_classes=a_ids, proj_x=dict(zip(ids, points)),
        proj_a=proj_a, restrict_class=restrict, target_class=1,
        act_x={g: (g,) * s for g in ids}, act_a={a: (a,) * t for a in a_ids},
    )
    rep_count = checks.box_size(2, [0] * (s - checks.rational_rank(matrix)))
    return WindowJob(f"wide {s}->{t}", canonical_bytes(inst), "wide", "NO",
                     None, rep_count)


def decide_window(seed):
    build = {"deep": _deep, "wide": _wide}
    return [build[kind](seed, slot) for kind, slot in WINDOW_SLOTS]


# --- cli_cold -------------------------------------------------------------------------

@dataclass(eq=False)
class CliJob:
    """One fresh `python -m extdecide` process."""

    label: str
    name: str            # metric suffix: diff_build, diff_check, ...
    command: str         # the report's expected `command`
    argv: list
    expect: object
    env: dict = field(repr=False, default=None)
    cwd: str = None
    kind: str = "cli"

    def run(self):
        """Spawn, wait, and return (exit code, stdout, peak RSS in KiB)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "extdecide", *self.argv, "--json-only"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            cwd=self.cwd, env=self.env,
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    def check(self, out):
        code, stdout, _ = out
        checks.check_cli(self, code, stdout, load_and_validate)


def load_and_validate(path):
    inst = FF.load_instance(json.loads(Path(path).read_bytes()))
    report = DE.validate_instance(inst)
    checks.require(report.ok, f"{path} does not validate")


def program_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def cli_cold(seed, workdir, root):
    """Small inputs written with the program's own writers, then one job per
    command; a round runs the five in a fixed order."""
    rng = random.Random(f"cli/{seed}")
    work = Path(workdir)
    env = program_env(root)

    p, m = rng.choice(((2, 2), (3, 2), (5, 1), (2, 3)))
    op_q = rng.choice((4, 8, 9, 25))
    op_p, op_m = checks.prime_power(op_q)
    (work / "op.json").write_text(
        FF.canonical_json(FF.dump_operator(DC.build_diff_operator(op_p, op_m, 2)))
    )

    ground, moduli = (4,), (8, 9)
    size, layers = 4, []
    for q in moduli:
        layers.append(TW.Layer(q=q, kappa=[rng.randrange(q) for _ in range(size)]))
        size *= q
    (work / "tower.json").write_text(
        FF.canonical_json(FF.dump_tower(TW.TowerModel(AB.FgAbGroup(ground), layers)))
    )

    desired = rng.choice(("YES", "NO"))
    params = DE.GenParams(max_rank=2, order_pool=(4,), fiber_pool=(2,),
                          max_classes=64)
    inst = _first_instance(rng, 6, desired, params)
    raw = canonical_bytes(inst)
    (work / "inst.json").write_bytes(raw)
    answer = "YES" if checks.InstanceFacts(raw).hits else "NO"

    gen_params = DE.GenParams(max_rank=2, max_classes=256)
    gen_seed = rng.randrange(10**6)
    while not _fits(gen_seed, gen_params):
        gen_seed = rng.randrange(10**6)
    specs = [
        ("diff_build", "diff build",
         ["diff", "build", "--p", str(p), "--m", str(m), "--l0", "2"],
         (p, m) + checks.operator_shape(p**m, 2)),
        ("diff_check", "diff check",
         ["diff", "check", "--operator", str(work / "op.json"), "--trials", "20",
          "--seed", str(rng.randrange(1000))], None),
        ("tower_verify", "tower verify",
         ["tower", "verify", str(work / "tower.json")],
         checks.stage_thetas(moduli, 2)),
        ("decide", "decide", ["decide", str(work / "inst.json"), "--oracle"],
         answer),
        ("gen", "gen",
         ["gen", "--out", str(work / "gen.json"), "--seed", str(gen_seed),
          "--max-classes", "256"], str(work / "gen.json")),
    ]
    return [CliJob(f"cli {name}", name, command, argv, expect, env=env,
                   cwd=str(root))
            for name, command, argv, expect in specs]


def _fits(seed, params):
    """Whether `gen --seed seed` stays within the --max-classes it is given."""
    try:
        DE.generate_instance(seed, params=params)
    except ValueError:
        return False
    return True


