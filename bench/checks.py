"""Output checks made apart from the program.

Each checker receives a job's inputs, as the benchmark built them, and the
program's outputs, and raises CheckError on the first mismatch.  The
expected values come from plain integer arithmetic here: odometer indexing
of ground groups, iteration of operation tables, subgroup enumeration and
fraction-free elimination.  No checker trusts an intermediate result of the
program that it is checking; the only program calls here are the ones an
issue names as checks (the instance round trip and loading the file that
`gen` wrote).
"""

from __future__ import annotations

import json
import math


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


# --- integers and finite abelian groups -------------------------------------

def prime_power(q):
    """(p, m) with q = p^m, by trial division; None when q is not one."""
    if q < 2:
        return None
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


def operator_shape(q, min_order):
    """(order, theta) of the reduction operator for modulus q = p^m: the
    order is the least p^m0 >= min_order with m0 >= 1, theta p^(m0+m-1)."""
    p, m = prime_power(q)
    m0 = 1
    while p**m0 < min_order:
        m0 += 1
    return p**m0, p ** (m0 + m - 1)


def stage_thetas(moduli, min_order):
    """Theta_1, Theta_2, ...: running products of the layers' operator
    thetas p^(m0+m-1)."""
    out, total = [], 1
    for q in moduli:
        total *= operator_shape(q, min_order)[1]
        out.append(total)
    return out


def coords_of(orders, index):
    """Odometer coordinates (last fastest) of an element index."""
    out = [0] * len(orders)
    for i in range(len(orders) - 1, -1, -1):
        index, out[i] = divmod(index, orders[i])
    return out


def index_of(orders, coords):
    idx = 0
    for c, q in zip(coords, orders):
        idx = idx * q + c % q
    return idx


def apply_matrix(matrix, vector, orders):
    """matrix * vector, reduced mod the target orders (0 meaning Z)."""
    out = []
    for row, q in zip(matrix, orders):
        v = sum(a * b for a, b in zip(row, vector))
        out.append(v % q if q else v)
    return out


def _p_part_ranks(elements, orders, p):
    """Partition of the p-primary part of a finite subgroup, as a list of
    exponents e (one cyclic factor Z/p^e each), from the counts of
    elements killed by p, p^2, ..."""
    def killed(k):
        return sum(
            1 for x in elements
            if all((k * c) % q == 0 for c, q in zip(x, orders))
        )

    counts = [1]
    size = len(elements)
    p_part = 1
    while size % (p_part * p) == 0:
        p_part *= p
    k = p
    while counts[-1] < p_part:
        counts.append(killed(k))
        k *= p
    at_least = [round(math.log(b // a, p)) for a, b in zip(counts, counts[1:])]
    exps = []
    for e, n in enumerate(at_least, start=1):
        nxt = at_least[e] if e < len(at_least) else 0
        exps += [e] * (n - nxt)
    return exps


def invariant_factors(elements, orders):
    """Invariant factors d1 | d2 | ... (all > 1) of a finite subgroup of
    Z/o_1 + ... + Z/o_r given by the full list of its elements."""
    size = len(elements)
    primes = []
    n, p = size, 2
    while n > 1:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    per_prime = [sorted(_p_part_ranks(elements, orders, p), reverse=True)
                 for p in primes]
    width = max((len(e) for e in per_prime), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, exps in zip(primes, per_prime):
            if i < len(exps):
                d *= p ** exps[i]
        factors.append(d)
    return sorted(factors)


def box_size(theta, kernel_orders):
    """Number of distinct window representatives: 2*(theta//2)+1 per Z
    summand, min(2*min(theta//2, o//2)+1, o) per Z/o summand."""
    half = theta // 2
    size = 1
    for o in kernel_orders:
        size *= 2 * half + 1 if o == 0 else min(2 * min(half, o // 2) + 1, o)
    return size


def rational_rank(matrix):
    """Rank over Q by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            rows[i] = [
                (rows[rank][col] * rows[i][j] - rows[i][col] * rows[rank][j]) // prev
                for j in range(ncols)
            ]
        prev = rows[rank][col]
        rank += 1
    return rank


# --- tower_audit -------------------------------------------------------------

class OwnLadder:
    """The lifted action re-derived from an exported ladder with the
    benchmark's own arithmetic.  step(s, x, y) applies ground element y
    once to stage-s point x at the stage's scale, memoised, and raises
    CheckError when the result leaves the fiber that kappa prescribes."""

    def __init__(self, ground, moduli, kappas, thetas, twists):
        self.ground = ground
        self.moduli = moduli
        self.kappas = kappas
        self.thetas = (1,) + tuple(thetas)
        self.twists = twists
        self.memo = {}

    def ground_step(self, x, y, times=1):
        cx = coords_of(self.ground, x)
        cy = coords_of(self.ground, y)
        return index_of(self.ground, [a + times * b for a, b in zip(cx, cy)])

    def step(self, s, x, y):
        if s == 0:
            return self.ground_step(x, y)
        key = (s, x, y)
        if key in self.memo:
            return self.memo[key]
        q = self.moduli[s - 1]
        kappa = self.kappas[s - 1]
        parent, t = divmod(x, q)
        c = kappa[parent] + q * t
        parent2 = parent
        for _ in range(self.thetas[s] // self.thetas[s - 1]):
            parent2 = self.step(s - 1, parent2, y)
        twist = self.twists[s - 1][parent][y]
        require(0 <= twist < q, f"stage {s}: twist {twist} outside [0, {q})")
        c2 = (c + twist) % (q * q)
        require((c2 - kappa[parent2]) % q == 0,
                f"stage {s}: acting by y={y} on x={x} leaves the kappa fiber")
        out = parent2 * q + ((c2 - kappa[parent2]) % (q * q)) // q
        self.memo[key] = out
        return out

    def to_ground(self, s, x):
        for stage in range(s, 0, -1):
            x //= self.moduli[stage - 1]
        return x


def check_tower(spec, out, min_order=2):
    """spec: ground orders, moduli, kappa lists and the sampled (stage, x, y)
    triples; out: (ladder, verify report, canonical ladder export)."""
    _, report, text = out
    require(report.checks > 0 and not report.violations,
            f"verify_ladder reported {len(report.violations)} violations")
    export = json.loads(text)
    require(export.get("kind") == "ladder", "ladder export has the wrong kind")
    thetas = [int(t) for t in export["thetas"]]
    expected = stage_thetas(spec.moduli, min_order)
    require(thetas == expected, f"thetas {thetas} != own formula {expected}")
    require(int(export["common_theta"]) == expected[-1], "common_theta is wrong")
    twists = [[[int(v) for v in row] for row in layer["twist"]]
              for layer in export["layers"]]
    for s, layer in enumerate(twists, start=1):
        require(all(row[0] == 0 for row in layer),
                f"stage {s}: twist is not 0 at y = 0")
    own = OwnLadder(spec.ground, spec.moduli, spec.kappas, thetas, twists)
    for s, x, y in spec.samples:
        x2 = own.step(s, x, y)
        moved = own.ground_step(own.to_ground(s, x), y, times=own.thetas[s])
        require(own.to_ground(s, x2) == moved,
                f"stage {s}: acting on x={x} by y={y} does not project to "
                f"the ground translation by Theta_{s}*y")


def check_operator(spec, out, min_order=2):
    """spec: p, m, the algebra table, its zero, the map values (ints mod q)
    and sampled (x, y) pairs; out: (operator, congruence report)."""
    op, report = out
    q = spec.p**spec.m
    size = len(spec.table) * len(spec.table[0])
    require(not report.violations and report.checks == size,
            f"check_congruence: {len(report.violations)} violations, "
            f"{report.checks} of {size} pairs")
    order, theta = operator_shape(q, min_order)
    require((op.p, op.m, op.order, op.theta) == (spec.p, spec.m, order, theta),
            "operator shape differs from the documented formula")
    require(all(0 < c < q and s >= 1 for c, s in op.terms),
            "operator terms are not canonical")
    binom = [math.comb(order, k) for k in range(order + 1)]
    reach = max([theta] + [s * order for _, s in op.terms])
    for x, y in spec.samples:
        walk = [x]
        for _ in range(reach):
            walk.append(spec.table[walk[-1]][y])
        value = 0
        for coeff, stride in op.terms:
            for k in range(order + 1):
                sign = -1 if (order - k) % 2 else 1
                value += coeff * sign * binom[k] * spec.values[walk[stride * k]]
        residual = spec.values[walk[theta]] - spec.values[x] - value
        require(residual % q == 0,
                f"congruence fails at x={x}, y={y} mod {q}")


# --- decide workloads ----------------------------------------------------------

class InstanceFacts:
    """What the benchmark reads from an instance file by itself."""

    def __init__(self, raw: bytes):
        data = json.loads(raw)
        self.gx = [int(q) for q in data["groups"]["ground_x"]]
        self.ga = [int(q) for q in data["groups"]["ground_a"]]
        self.matrix = [[int(v) for v in row]
                       for row in data["homs"]["restriction"]]
        self.theta = int(data["scalars"]["theta"])
        self.target_ground = [int(c) for c in data["elements"]["target_ground"]]
        self.target_image = [c % q if q else c
                             for c, q in zip(self.target_ground, self.ga)]
        self.target = str(data["distinguished"]["target_class"])
        tables = data["tables"]
        self.restrict = {k: str(v) for k, v in tables["restrict"].items()}
        self.proj_x = {k: [int(c) for c in v]
                       for k, v in tables["proj_x"].items()}
        self.hits = [k for k, v in self.restrict.items() if v == self.target]

    def over_solution(self, coords):
        return apply_matrix(self.matrix, coords, self.ga) == self.target_image


def finite_expectations(raw: bytes):
    """Expected answer (any class restricting to the target), and the box
    size from the invariant factors of the restriction's kernel, found by
    enumerating the ground group over X; no representatives at all when
    the ground equation has no solution."""
    facts = InstanceFacts(raw)
    zero = [0] * len(facts.ga)
    kernel, solvable = [], False
    for idx in range(math.prod(facts.gx)):
        x = coords_of(facts.gx, idx)
        image = apply_matrix(facts.matrix, x, facts.ga)
        if image == zero:
            kernel.append(x)
        solvable = solvable or image == facts.target_image
    facts.answer = "YES" if facts.hits else "NO"
    facts.rep_count = (box_size(facts.theta, invariant_factors(kernel, facts.gx))
                       if solvable else 0)
    return facts


def _check_verdict(facts, verdict, answer, rep_count):
    require(verdict.answer == answer,
            f"decide answered {verdict.answer}, expected {answer}")
    require(verdict.rep_count == rep_count,
            f"rep_count {verdict.rep_count} != box size {rep_count}")
    if verdict.base_solution is not None:
        require(facts.over_solution(list(verdict.base_solution.coords)),
                "base_solution does not solve the ground equation")
    if answer == "YES":
        w = str(verdict.witness)
        require(facts.restrict.get(w) == facts.target,
                f"witness {w} does not restrict to the target class")
        require(facts.over_solution(facts.proj_x[w]),
                f"witness {w} does not project onto a ground solution")


def check_finite(facts, raw, out, roundtrip):
    """out: (instance, validation report, decide verdict, oracle verdict);
    roundtrip(instance) gives the canonical bytes of the re-dumped
    instance."""
    inst, report, verdict, oracle = out
    require(report.ok, f"validation found {len(report.violations)} violations")
    _check_verdict(facts, verdict, facts.answer, facts.rep_count)
    require(oracle.answer == facts.answer,
            f"brute_force answered {oracle.answer}, expected {facts.answer}")
    require(roundtrip(inst) == raw, "dump(load(raw)) is not byte-identical")


def check_window(spec, facts, out):
    """spec carries the answer, witness and box size fixed by the
    construction; wide-map instances are also re-checked class by class."""
    _, report, verdict = out
    require(report.ok, f"validation found {len(report.violations)} violations")
    _check_verdict(facts, verdict, spec.answer, spec.rep_count)
    if spec.answer == "YES":
        require(str(verdict.witness) == str(spec.witness),
                f"witness {verdict.witness}, construction fixes {spec.witness}")
    if spec.kind == "wide":
        for g, coords in facts.proj_x.items():
            if facts.over_solution(coords):
                require(facts.restrict[g] != facts.target,
                        f"class {g} over a solution hits the target")


# --- cli_cold -------------------------------------------------------------------

def parse_report(stdout: bytes):
    """The single JSON report a CLI process printed, or CheckError."""
    text = stdout.decode("utf-8")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not exactly one JSON report: {exc}") from None
    require(isinstance(report, dict), "report is not a JSON object")
    return report


def check_cli(spec, returncode, stdout, load_and_validate):
    """spec: the command, its expected report `command` and the facts the
    result must show; load_and_validate(path) checks a written instance."""
    require(returncode == 0, f"{spec.name}: exit code {returncode}")
    report = parse_report(stdout)
    require(report.get("command") == spec.command,
            f"report command {report.get('command')!r} != {spec.command!r}")
    result = report.get("result") or {}
    if spec.name == "diff_build":
        op = result["operator"]
        require((op["p"], op["m"], op["order"], op["theta"]) == spec.expect,
                "diff build: operator shape differs from the formula")
    elif spec.name in ("diff_check", "tower_verify"):
        require(result.get("violations_total") == 0,
                f"{spec.name}: violations_total is {result.get('violations_total')}")
        if spec.name == "tower_verify":
            require([int(t) for t in result["thetas"]] == spec.expect,
                    "tower verify: thetas differ from the formula")
    elif spec.name == "decide":
        verdict = result.get("verdict") or {}
        require(verdict.get("answer") == spec.expect,
                f"decide answered {verdict.get('answer')}, expected {spec.expect}")
        require(result.get("oracle_agrees") is True, "oracle disagrees")
        require(result["validation"]["violations_total"] == 0,
                "decide: validation violations")
    elif spec.name == "gen":
        require(result.get("path") == spec.expect, "gen wrote another path")
        load_and_validate(spec.expect)
