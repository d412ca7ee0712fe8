"""Per-layer tracing from the benchmark's own files.

The tracer replaces module attributes with wrappers that record one span
per call (name, start, end, parent span) into flat in-memory arrays, plus
integer counters read from the objects the calls return.  Nothing under
src/ changes; a name that a later version of the program no longer has is
registered anyway and reports 0.  Spans are written out once, when the run
ends.  End-to-end figures never come from a traced run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name); the first five are the attributes the
# program itself calls through, the rest are the benchmark's own calls.
WRAPPED = (
    ("extdecide.decide", "solve", "abelian.solve"),
    ("extdecide.decide", "kernel", "abelian.kernel"),
    ("extdecide.decide", "representative_set", "decide.representative_set"),
    ("extdecide.tower", "evaluate_diagonal", "diffcalc.evaluate_diagonal"),
    ("extdecide.tower", "build_diff_operator", "diffcalc.build_diff_operator"),
    ("extdecide.diffcalc", "evaluate_diagonal", "diffcalc.evaluate_diagonal"),
    ("extdecide.diffcalc", "build_diff_operator", "diffcalc.build_diff_operator"),
    ("extdecide.diffcalc", "check_congruence", "diffcalc.check_congruence"),
    ("extdecide.tower", "build_ladder", "tower.build_ladder"),
    ("extdecide.tower", "verify_ladder", "tower.verify_ladder"),
    ("extdecide.decide", "generate_instance", "decide.generate_instance"),
    ("extdecide.decide", "validate_instance", "decide.validate_instance"),
    ("extdecide.decide", "decide", "decide.decide"),
    ("extdecide.decide", "brute_force", "decide.brute_force"),
    ("workloads", "parse_json", "fileformat.parse"),
    ("extdecide.fileformat", "load_instance", "fileformat.load"),
    ("extdecide.fileformat", "load_tower", "fileformat.load"),
    ("extdecide.fileformat", "load_operator", "fileformat.load"),
    ("extdecide.fileformat", "dump_instance", "fileformat.dump"),
    ("extdecide.fileformat", "dump_tower", "fileformat.dump"),
    ("extdecide.fileformat", "dump_operator", "fileformat.dump"),
    ("extdecide.fileformat", "dump_ladder", "fileformat.dump"),
    ("extdecide.fileformat", "canonical_json", "fileformat.dump"),
)

# per-layer metric -> unit
PER_LAYER = {
    "abelian.kernel_s": "s",
    "abelian.solve_s": "s",
    "abelian.calls": "count",
    "abelian.max_entry_bits": "bits",
    "diffcalc.evaluate_diagonal_calls": "count",
    "diffcalc.evaluate_diagonal_s": "s",
    "diffcalc.check_congruence_s": "s",
    "diffcalc.congruence_pairs": "count",
    "tower.build_ladder_s": "s",
    "tower.build_ladder_self_s": "s",
    "tower.verify_ladder_s": "s",
    "tower.verify_checks": "count",
    "tower.stage_pairs": "count",
    "decide.generate_s": "s",
    "decide.validate_s": "s",
    "decide.validate_checks": "count",
    "decide.representative_set_s": "s",
    "decide.decide_s": "s",
    "decide.reps_scanned": "count",
    "decide.brute_force_s": "s",
    "fileformat.parse_s": "s",
    "fileformat.load_s": "s",
    "fileformat.dump_s": "s",
    "fileformat.input_bytes": "B",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.handler_s": "s",
    "cli.diff_build_s": "s",
    "cli.diff_check_s": "s",
    "cli.tower_verify_s": "s",
    "cli.decide_s": "s",
    "cli.gen_s": "s",
}


def _entry_bits(values):
    return max((abs(int(v)).bit_length() for v in values), default=0)


def _after_kernel(tracer, args, result):
    _, inject = result
    tracer.bits = max(tracer.bits, _entry_bits(v for row in inject.matrix for v in row))


def _after_solve(tracer, args, result):
    if result is not None:
        tracer.bits = max(tracer.bits, _entry_bits(result.coords))


def _count(key, read):
    def after(tracer, args, result):
        tracer.counts[key] += read(args, result)
    return after


AFTER = {
    "abelian.kernel": _after_kernel,
    "abelian.solve": _after_solve,
    "diffcalc.check_congruence": _count("congruence_pairs", lambda a, r: r.checks),
    "tower.verify_ladder": _count("verify_checks", lambda a, r: r.checks),
    "tower.build_ladder": _count(
        "stage_pairs",
        lambda a, r: sum(s * r.tower.sizes[0] for s in r.tower.sizes[1:]),
    ),
    "decide.validate_instance": _count("validate_checks", lambda a, r: r.checks),
    "decide.decide": _count("reps_scanned", lambda a, r: r.rep_count),
    "fileformat.parse": _count("input_bytes", lambda a, r: len(a[0])),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []
        self._paused = False
        self._restore = []
        self.counts = Counter()
        self.bits = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made while paused (the output checks) are not recorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def install(self):
        for module_name, attr, name in WRAPPED:
            self._id(name)
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, name, AFTER.get(name)))
            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, original, name, after):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # --- reading the spans back ---

    def layer_metrics(self, cli=None):
        """Every per-layer metric; `cli` holds the cli.* figures measured
        from child processes."""
        n_names = len(self.names)
        total = [0] * n_names
        calls = [0] * n_names
        children = [0] * len(self.span_name)
        for i, (nid, parent) in enumerate(zip(self.span_name, self.span_parent)):
            dur = self.span_end[i] - self.span_start[i]
            calls[nid] += 1
            if parent >= 0:
                children[parent] += dur
            # a span nested in one of the same name (dump_ladder calling
            # dump_operator) is already inside its parent's time
            if parent < 0 or self.span_name[parent] != nid:
                total[nid] += dur
        self_time = [0] * n_names
        for i, nid in enumerate(self.span_name):
            self_time[nid] += self.span_end[i] - self.span_start[i] - children[i]

        def secs(name, table=total):
            nid = self._ids.get(name)
            return table[nid] / 1e9 if nid is not None else 0.0

        def count(name):
            nid = self._ids.get(name)
            return calls[nid] if nid is not None else 0

        c = self.counts
        values = {
            "abelian.kernel_s": secs("abelian.kernel"),
            "abelian.solve_s": secs("abelian.solve"),
            "abelian.calls": count("abelian.kernel") + count("abelian.solve"),
            "abelian.max_entry_bits": self.bits,
            "diffcalc.evaluate_diagonal_calls": count("diffcalc.evaluate_diagonal"),
            "diffcalc.evaluate_diagonal_s": secs("diffcalc.evaluate_diagonal"),
            "diffcalc.check_congruence_s": secs("diffcalc.check_congruence"),
            "diffcalc.congruence_pairs": c["congruence_pairs"],
            "tower.build_ladder_s": secs("tower.build_ladder"),
            "tower.build_ladder_self_s": secs("tower.build_ladder", self_time),
            "tower.verify_ladder_s": secs("tower.verify_ladder"),
            "tower.verify_checks": c["verify_checks"],
            "tower.stage_pairs": c["stage_pairs"],
            "decide.generate_s": secs("decide.generate_instance"),
            "decide.validate_s": secs("decide.validate_instance"),
            "decide.validate_checks": c["validate_checks"],
            "decide.representative_set_s": secs("decide.representative_set"),
            "decide.decide_s": secs("decide.decide"),
            "decide.reps_scanned": c["reps_scanned"],
            "decide.brute_force_s": secs("decide.brute_force"),
            "fileformat.parse_s": secs("fileformat.parse"),
            "fileformat.load_s": secs("fileformat.load"),
            "fileformat.dump_s": secs("fileformat.dump"),
            "fileformat.input_bytes": c["input_bytes"],
        }
        for name in PER_LAYER:
            if name.startswith("cli."):
                values[name] = (cli or {}).get(name, 0.0)
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER.items()}

    def write(self, path, meta):
        """All spans as JSON: names, then [name, parent, start_ns, end_ns]
        rows with times relative to the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0
        rows = zip(self.span_name, self.span_parent,
                   (s - t0 for s in self.span_start),
                   (e - t0 for e in self.span_end))
        with open(path, "w") as fh:
            json.dump({**meta, "names": self.names,
                       "spans": [list(r) for r in rows]}, fh,
                      separators=(",", ":"))
