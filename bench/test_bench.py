"""Self-tests of the benchmark: the tail statistic, the benchmark's own
arithmetic, and that every checker rejects a corrupted output.

    python3 -m pytest -q bench/test_bench.py

These sit outside the tier-1 `testpaths`, so the program's test suite does
not collect them.
"""

import dataclasses
import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


# --- statistics --------------------------------------------------------------

def test_tail_has_exactly_ten_samples_above():
    values = list(range(1, 41))
    random.Random(0).shuffle(values)
    assert run.tail(values) == 30
    assert run.tail(list(range(11))) == 0
    assert run.tail([5.0] * 20 + [9.0] * 10) == 5.0


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_rounds_time_at_least_forty_jobs():
    sizes = {"tower_audit": len(W.TOWER_SHAPES) + len(W.OPERATOR_GRID),
             "decide_finite": len(W.FINITE_SLOTS),   # the failing slot is extra
             "decide_window": len(W.WINDOW_SLOTS),
             "cli_cold": 5}
    for workload, size in sizes.items():
        assert run.rounds_for(workload, run.REFERENCE_SECONDS) * size >= 40
        assert run.rounds_for(workload, 4 * run.REFERENCE_SECONDS) == \
            4 * run.ROUNDS[workload]


@pytest.mark.parametrize("workload, plateaus", [
    ("decide_finite", W.FINITE_PLATEAUS), ("decide_window", W.WINDOW_PLATEAUS)])
def test_plateaus_centre_the_median_and_the_tail(workload, plateaus):
    """With every job of a plateau at one cost and the plateaus ascending,
    the median job and the job with ten above it each have as many jobs of
    their own plateau below them as above."""
    rounds = run.ROUNDS[workload]
    spans, start = [], 0
    for group in plateaus:
        spans.append((start, start + rounds * len(group)))
        start += rounds * len(group)
    assert start % 2 == 1                       # the median is one job
    for index in (start // 2, start - 11):
        lo, hi = next(span for span in spans if span[0] <= index < span[1])
        assert index - lo == hi - 1 - index


def test_spread_keeps_every_slot_and_spaces_each_plateau():
    for plateaus in (W.FINITE_PLATEAUS, W.WINDOW_PLATEAUS):
        order = W.spread(plateaus)
        assert sorted(map(repr, order)) == sorted(repr(s) for g in plateaus for s in g)
        for group in plateaus:
            where = [order.index(slot) for slot in group]
            assert where == sorted(where)
            gaps = [b - a for a, b in zip(where, where[1:])]
            assert not gaps or max(gaps) - min(gaps) <= 2


def test_process_age_is_this_process():
    age = run.process_age()
    assert age is None or 0 < age < time.monotonic()


# --- the benchmark's own arithmetic -------------------------------------------

def test_prime_power_and_operator_shape():
    assert checks.prime_power(27) == (3, 3)
    assert checks.prime_power(12) is None
    assert checks.prime_power(7) == (7, 1)
    assert checks.operator_shape(8, 2) == (2, 8)
    assert checks.operator_shape(8, 4) == (4, 16)


def _subgroup(orders, gens):
    seen, frontier = {(0,) * len(orders)}, [(0,) * len(orders)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % q for a, b, q in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return [list(x) for x in seen]


def test_invariant_factors():
    assert checks.invariant_factors(_subgroup((6, 4), [(1, 0), (0, 1)]), (6, 4)) == [2, 12]
    assert checks.invariant_factors(_subgroup((8, 8), [(2, 0), (0, 4)]), (8, 8)) == [2, 4]
    assert checks.invariant_factors([[0, 0]], (3, 3)) == []


def test_box_size_and_rank():
    assert checks.box_size(200, [0, 0]) == 201 ** 2
    assert checks.box_size(8, [4]) == 4     # -2..2 covers Z/4 with one repeat
    assert checks.box_size(2, [9]) == 3
    assert checks.rational_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert checks.rational_rank([[0, 1], [1, 0]]) == 2


# --- checkers reject corrupted outputs -----------------------------------------

def _finite_job(answer):
    slot = (9, 2, 8, answer)
    return W.FiniteJob("test", W.canonical_bytes(W._generated(5, slot)))


@pytest.mark.parametrize("answer", ["YES", "NO"])
def test_finite_checker_accepts_then_rejects(answer):
    job = _finite_job(answer)
    inst, report, verdict, oracle = out = job.run()
    job.check(out)
    flipped = dataclasses.replace(verdict, answer="NO" if verdict.answer == "YES" else "YES")
    with pytest.raises(checks.CheckError):
        job.check((inst, report, flipped, oracle))
    wrong_count = dataclasses.replace(verdict, rep_count=verdict.rep_count + 1)
    with pytest.raises(checks.CheckError):
        job.check((inst, report, wrong_count, oracle))


def test_window_checker_rejects_flip_and_count():
    for job in (W._deep(3, (2, 20, 4, "YES")), W._wide(3, (8, 4))):
        inst, report, verdict = out = job.run()
        job.check(out)
        flipped = dataclasses.replace(
            verdict, answer="NO" if verdict.answer == "YES" else "YES")
        with pytest.raises(checks.CheckError):
            job.check((inst, report, flipped))
        with pytest.raises(checks.CheckError):
            job.check((inst, report, dataclasses.replace(
                verdict, rep_count=verdict.rep_count - 1)))


def test_tower_checker_rejects_one_changed_twist_entry():
    job = W.tower_audit(2)[W.TOWER_SHAPES.index(((2, 2), (9, 4, 8)))]
    ladder, report, text = out = job.run()
    job.check(out)
    s, x, y = next(t for t in job.samples if t[2] != 0)
    q = job.moduli[s - 1]
    export = json.loads(text)
    row = export["layers"][s - 1]["twist"][x // q]
    row[y] = (row[y] + 1) % q
    with pytest.raises(checks.CheckError):
        job.check((ladder, report, json.dumps(export)))


def test_operator_checker_rejects_a_changed_coefficient():
    job = next(j for j in W.tower_audit(2) if j.kind == "operator" and j.p == 3 and j.m == 2)
    op, report = out = job.run()
    job.check(out)
    terms = ((op.terms[0][0] % (op.q - 1)) + 1,) + op.terms[0][1:]
    bad = dataclasses.replace(op, terms=(terms,) + op.terms[1:])
    with pytest.raises(checks.CheckError):
        job.check((bad, report))


def test_cli_checker_rejects_a_wrong_answer(tmp_path):
    job = next(j for j in W.cli_cold(4, tmp_path, BENCH.parent) if j.name == "decide")
    good = {"command": "decide", "result": {
        "verdict": {"answer": job.expect}, "oracle_agrees": True,
        "validation": {"violations_total": 0}}}
    job.check((0, json.dumps(good).encode(), 0))
    bad = json.loads(json.dumps(good))
    bad["result"]["verdict"]["answer"] = "NO" if job.expect == "YES" else "YES"
    with pytest.raises(checks.CheckError):
        job.check((0, json.dumps(bad).encode(), 0))
    with pytest.raises(checks.CheckError):
        job.check((1, json.dumps(good).encode(), 0))
    with pytest.raises(checks.CheckError):
        job.check((0, (json.dumps(good) * 2).encode(), 0))
