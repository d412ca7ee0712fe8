import json
import math
import re
import time

import pytest

from extdecide import cli, diffcalc
from extdecide.cli import main
from extdecide.fileformat import canonical_json, digest, dump_instance, dump_tower
from extdecide.decide import generate_instance
from extdecide.tower import random_tower
import random


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


class TestDiffBuild:
    def test_worked_example(self, capsys):
        code, report, err = run(
            capsys, "diff", "build", "--p", "2", "--m", "2", "--l0", "4"
        )
        assert code == 0
        op = report["result"]["operator"]
        assert op["order"] == 4 and op["theta"] == 8
        assert op["terms"] == [[1, 2], [2, 1]]
        assert "theta 8" in err

    def test_base_case(self, capsys):
        code, report, _ = run(
            capsys, "diff", "build", "--p", "5", "--m", "1", "--l0", "1"
        )
        assert code == 0
        assert report["result"]["operator"]["terms"] == [[1, 1]]
        assert report["result"]["operator"]["theta"] == 5

    def test_non_prime_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diff", "build", "--p", "6", "--m", "1", "--l0", "1"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "op.json"
        code, report, _ = run(
            capsys, "diff", "build", "--p", "3", "--m", "2", "--l0", "2",
            "--out", str(out), "--quiet",
        )
        assert code == 0
        assert json.loads(out.read_text())["kind"] == "diff_operator"


class TestDiffCheck:
    def test_built_operator_clean(self, capsys):
        code, report, _ = run(
            capsys, "diff", "check", "--p", "2", "--m", "2", "--l0", "4",
            "--trials", "50", "--seed", "7",
        )
        assert code == 0
        assert report["result"]["violations_total"] == 0
        assert report["seed"] == 7
        assert report["counters"]["checks"] > 0

    def test_corrupted_file_detected(self, capsys, tmp_path):
        out = tmp_path / "op.json"
        run(capsys, "diff", "build", "--p", "2", "--m", "2", "--l0", "4",
            "--out", str(out), "--quiet")
        data = json.loads(out.read_text())
        data["terms"] = [[1, 2], [3, 1]]
        out.write_text(canonical_json(data))
        code, report, _ = run(
            capsys, "diff", "check", "--operator", str(out), "--trials", "100"
        )
        assert code == 1
        assert report["result"]["violations_total"] > 0
        assert report["input_digest"].startswith("sha256:")

    @pytest.mark.parametrize("field, value", [("m", -1), ("theta", 0)])
    def test_out_of_range_operator_field_exits_2(
        self, capsys, tmp_path, field, value
    ):
        out = tmp_path / "op.json"
        run(capsys, "diff", "build", "--p", "2", "--m", "2", "--l0", "4",
            "--out", str(out), "--quiet")
        data = json.loads(out.read_text())
        data[field] = value
        out.write_text(canonical_json(data))
        code, report, _ = run(
            capsys, "diff", "check", "--operator", str(out), "--trials", "5"
        )
        assert code == 2
        assert f"{field} must be >= 1" in report["error"]
        assert report["input_digest"] == digest(out.read_bytes())

    def test_zero_trials_warns(self, capsys):
        code, report, err = run(
            capsys, "diff", "check", "--p", "2", "--m", "1", "--l0", "1",
            "--trials", "0",
        )
        assert code == 0
        assert report["counters"]["checks"] == 0
        assert report["warnings"]
        assert "warning" in err

    def test_missing_operator_args_exit_2(self, capsys):
        code, report, _ = run(capsys, "diff", "check", "--trials", "1")
        assert code == 2
        assert "error" in report


class TestTowerVerify:
    def test_random_tower_clean(self, capsys, tmp_path):
        tower = random_tower(random.Random(5))
        path = tmp_path / "tower.json"
        path.write_text(canonical_json(dump_tower(tower)))
        code, report, _ = run(capsys, "tower", "verify", str(path))
        assert code == 0
        assert report["result"]["violations_total"] == 0
        assert report["result"]["thetas"]

    def test_ladder_export(self, capsys, tmp_path):
        tower = random_tower(random.Random(6))
        path = tmp_path / "tower.json"
        path.write_text(canonical_json(dump_tower(tower)))
        out = tmp_path / "ladder.json"
        code, report, _ = run(
            capsys, "tower", "verify", str(path), "--dump-ladder", str(out)
        )
        assert code == 0
        assert json.loads(out.read_text())["kind"] == "ladder"

    def test_non_prime_power_exits_2(self, capsys, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(
            canonical_json(
                {"format_version": "1", "kind": "tower", "ground": [2],
                 "layers": [{"q": 6, "kappa": {}}]}
            )
        )
        code, report, _ = run(capsys, "tower", "verify", str(path))
        assert code == 2
        assert "prime power" in report["error"]

    def test_semiprime_modulus_exits_2_quickly(self, capsys, tmp_path):
        from test_tower import SEMIPRIME

        path = tmp_path / "semi.json"
        path.write_text(
            canonical_json(
                {"format_version": "1", "kind": "tower", "ground": [2],
                 "layers": [{"q": str(SEMIPRIME), "kappa": {}}]}
            )
        )
        started = time.perf_counter()
        code, report, _ = run(capsys, "tower", "verify", str(path))
        assert time.perf_counter() - started < 2.0
        assert code == 2
        # any q past the stage cap fails it, prime power or not, and the
        # cap comes before the prime-power test
        assert "too large" in report["error"]

    @pytest.mark.parametrize(
        "ground, layers",
        [
            ([4], [{"q": str(2**61), "kappa": {}}]),
            ([4], [{"q": 8, "kappa": {}}] * 8),
            ([100000], []),
        ],
        ids=["modulus_2_61", "eight_layers_of_8", "ground_100000"],
    )
    def test_oversized_stage_exits_2_quickly(self, capsys, tmp_path, ground, layers):
        path = tmp_path / "big.json"
        path.write_text(
            canonical_json(
                {"format_version": "1", "kind": "tower", "ground": ground,
                 "layers": layers}
            )
        )
        started = time.perf_counter()
        code, report, _ = run(capsys, "tower", "verify", str(path))
        assert time.perf_counter() - started < 2.0
        assert code == 2
        assert "too large" in report["error"]

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code, report, _ = run(capsys, "tower", "verify", str(tmp_path / "no.json"))
        assert code == 2

    def test_garbage_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text("{not json")
        code, report, _ = run(capsys, "tower", "verify", str(path))
        assert code == 2


class TestDecideCommand:
    def write_instance(self, tmp_path, seed, **kwargs):
        inst = generate_instance(seed, **kwargs)
        path = tmp_path / f"inst{seed}.json"
        path.write_text(canonical_json(dump_instance(inst)))
        return inst, path

    def test_yes_instance_with_oracle(self, capsys, tmp_path):
        inst, path = self.write_instance(tmp_path, 3, desired="YES")
        code, report, err = run(capsys, "decide", str(path), "--oracle")
        assert code == 0
        verdict = report["result"]["verdict"]
        assert verdict["answer"] == "YES"
        assert report["result"]["oracle_agrees"] is True
        assert inst.restrict_class[verdict["witness"]] == inst.target_class

    def test_no_instances(self, capsys, tmp_path):
        for seed in range(6):
            _, path = self.write_instance(tmp_path, seed, desired="NO")
            code, report, _ = run(capsys, "decide", str(path), "--oracle")
            assert code == 0
            assert report["result"]["oracle_agrees"] is True

    def test_invalid_instance_exits_1(self, capsys, tmp_path):
        inst, path = self.write_instance(tmp_path, 9)
        data = json.loads(path.read_text())
        # break the square: point one restriction entry somewhere else
        key = next(iter(data["tables"]["restrict"]))
        ids = data["classes"]["a"]
        current = data["tables"]["restrict"][key]
        data["tables"]["restrict"][key] = next(i for i in ids if i != current)
        path.write_text(canonical_json(data))
        code, report, _ = run(capsys, "decide", str(path))
        assert code == 1
        assert report["result"]["validation"]["violations_total"] > 0

    def test_same_file_same_verdict(self, capsys, tmp_path):
        _, path = self.write_instance(tmp_path, 14, desired="YES")
        _, first, _ = run(capsys, "decide", str(path))
        _, second, _ = run(capsys, "decide", str(path))
        assert first["result"] == second["result"]
        assert first["input_digest"] == second["input_digest"]

    def test_infinite_ground_oracle_exits_3(self, capsys, tmp_path):
        from test_decide import infinite_ground_instance

        inst = infinite_ground_instance()
        path = tmp_path / "inf.json"
        path.write_text(canonical_json(dump_instance(inst)))
        code, report, _ = run(capsys, "decide", str(path), "--oracle")
        assert code == 3
        assert report["warnings"]
        code, report, _ = run(capsys, "decide", str(path))
        assert code == 0
        assert report["result"]["verdict"]["answer"] == "YES"


    def test_no_x_classes_with_oracle(self, capsys, tmp_path):
        data = dump_instance(generate_instance(9))
        data["classes"]["x"] = []
        data["tables"]["proj_x"] = {}
        data["tables"]["restrict"] = {}
        data["tables"]["act_x"] = [{} for _ in data["tables"]["act_x"]]
        path = tmp_path / "empty.json"
        path.write_text(canonical_json(data))
        code, report, _ = run(capsys, "decide", str(path), "--oracle")
        assert code == 0
        assert report["result"]["oracle_agrees"] is True
        assert report["result"]["verdict"]["answer"] == "NO"

    def test_one_structural_pass_per_run(self, capsys, tmp_path, monkeypatch):
        from extdecide.decide import ExtensionInstance

        calls = []
        check = ExtensionInstance.__post_init__

        def counted(inst):
            calls.append(inst)
            check(inst)

        monkeypatch.setattr(ExtensionInstance, "__post_init__", counted)
        _, path = self.write_instance(tmp_path, 3, desired="YES")
        calls.clear()
        code, _, _ = run(capsys, "decide", str(path))
        assert code == 0
        assert len(calls) == 1


def _no_small_factor(digits):
    """The least n >= 10^(digits-1) + 1 with no prime factor below 1000."""
    small = [p for p in range(2, 1000) if all(p % d for d in range(2, p))]
    n = 10 ** (digits - 1) + 1
    while any(n % p == 0 for p in small):
        n += 2
    return n


def _tower_text(q):
    return canonical_json(
        {"format_version": "1", "kind": "tower", "ground": [2],
         "layers": [{"q": q, "kappa": {}}]}
    )


def _instance_text(coord):
    data = dump_instance(generate_instance(9))
    data["tables"]["proj_x"]["1"][0] = coord
    return canonical_json(data)


def _dense_breach_text():
    data = dump_instance(generate_instance(0))
    del data["tables"]["proj_x"]["15"]
    return canonical_json(data)


def _theta_0_text():
    data = dump_instance(generate_instance(0))
    data["scalars"]["theta"] = 0
    return canonical_json(data)


LONG = "1" * 5000
OP_ORDER_1E9 = canonical_json(
    {"format_version": "1", "kind": "diff_operator", "p": 2, "m": 2,
     "order": 1000000000, "theta": 8, "terms": [[1, 2], [2, 1]]}
)

# (id, file text or None, argv with {} for the file path, expected error part)
HOSTILE = [
    ("build_l0_1e9", None, ["diff", "build", "--p", "2", "--m", "1", "--l0", "1000000000"], "order"),
    ("build_m_1e5", None, ["diff", "build", "--p", "2", "--m", "100000", "--l0", "2"], "modulus"),
    ("check_m_1e5", None, ["diff", "check", "--p", "2", "--m", "100000", "--l0", "2"], "modulus"),
    ("operator_order_1e9", OP_ORDER_1E9, ["diff", "check", "--operator", "{}"], "order"),
    ("tower_q_49999", _tower_text(49999), ["tower", "verify", "{}"], "order"),
    ("tower_l0_1e9", _tower_text(2), ["tower", "verify", "{}", "--l0", "1000000000"], "order"),
    ("tower_q_long_string", _tower_text(LONG), ["tower", "verify", "{}"], "too many digits"),
    ("tower_q_long_literal", _tower_text(0).replace('"q": 0', '"q": ' + LONG),
     ["tower", "verify", "{}"], "4300"),
    ("tower_q_4000_digits", _tower_text(str(_no_small_factor(4000))),
     ["tower", "verify", "{}"], "too large"),
    ("coord_long_string", _instance_text(LONG), ["decide", "{}"], "too many digits"),
    ("coord_long_literal", _instance_text(LONG).replace('"' + LONG + '"', LONG),
     ["decide", "{}"], "4300"),
    ("proj_x_missing_entry", _dense_breach_text(), ["decide", "{}"], "missing entries"),
    ("theta_0", _theta_0_text(), ["decide", "{}"], "malformed instance"),
]


class TestHostileInputs:
    """Each ends within 2 s with one report, exit 2 and an error that
    repeats none of the input's digits."""

    @pytest.mark.parametrize(
        "text, argv, part", [h[1:] for h in HOSTILE], ids=[h[0] for h in HOSTILE]
    )
    def test_exits_2_quickly(self, capsys, tmp_path, text, argv, part):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        argv = [a.replace("{}", str(path)) for a in argv]
        started = time.perf_counter()
        code, report, _ = run(capsys, *argv)
        assert time.perf_counter() - started < 2.0
        assert code == 2
        assert part in report["error"]
        assert "1111111111" not in report["error"]


class TestGen:
    def test_reproducible_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--seed", "11", "--theta", "8", "--out", str(a))
        run(capsys, "gen", "--seed", "11", "--theta", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_generated_file_decides(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        code, report, _ = run(
            capsys, "gen", "--seed", "21", "--out", str(path), "--desired", "YES"
        )
        assert code == 0
        code, report, _ = run(capsys, "decide", str(path), "--oracle")
        assert code == 0

    def test_oversize_params_exit_2(self, capsys, tmp_path):
        code, report, _ = run(
            capsys, "gen", "--seed", "0", "--out", str(tmp_path / "x.json"),
            "--max-classes", "2",
        )
        assert code == 2
        assert "bound" in report["error"]

    def test_sweep_validates(self, capsys, tmp_path):
        for seed in range(10):
            path = tmp_path / f"g{seed}.json"
            code, _, _ = run(capsys, "gen", "--seed", str(seed), "--out", str(path))
            assert code == 0
            code, _, _ = run(capsys, "decide", str(path))
            assert code == 0


class TestOutputContract:
    def test_report_shape(self, capsys):
        code, report, err = run(
            capsys, "diff", "build", "--p", "2", "--m", "1", "--l0", "2"
        )
        assert report["command"] == "diff build"
        assert set(report) >= {
            "format_version", "command", "input_digest", "seed",
            "result", "counters", "warnings",
        }

    def test_quiet_suppresses_summary(self, capsys):
        code, report, err = run(
            capsys, "diff", "build", "--p", "2", "--m", "1", "--l0", "2", "--quiet"
        )
        assert err == ""

    def test_json_only_silences_stderr(self, capsys):
        code, report, err = run(
            capsys, "diff", "check", "--p", "2", "--m", "1", "--l0", "1",
            "--trials", "0", "--json-only",
        )
        assert err == ""

    def test_parse_serialize_idempotent_on_fixture(self, capsys, tmp_path):
        from extdecide.fileformat import load_instance

        path = tmp_path / "inst.json"
        run(capsys, "gen", "--seed", "33", "--out", str(path), "--quiet")
        text = path.read_text()
        once = canonical_json(dump_instance(load_instance(json.loads(text))))
        assert once == text
        twice = canonical_json(dump_instance(load_instance(json.loads(once))))
        assert twice == once

    def test_oversized_modulus_gives_one_report(self, capsys, tmp_path):
        # q = 2^1000000: its decimal form exceeds Python's int-to-str limit
        out = tmp_path / "op.json"
        out.write_text(
            '{"format_version": "1", "kind": "diff_operator", "m": 1000000, '
            '"order": 4, "p": 2, "terms": [[1, 2], [2, 1]], "theta": 8}'
        )
        code, report, _ = run(
            capsys, "diff", "check", "--operator", str(out), "--trials", "1"
        )
        assert code in (0, 1, 2, 3, 4)
        assert "error" in report and report["result"] is None
        assert report["input_digest"] == digest(out.read_bytes())

    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        def broken(args, report):
            report["result"] = {"partial": 1}
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_diff_build", broken)
        code, report, err = run(
            capsys, "diff", "build", "--p", "2", "--m", "1", "--l0", "2"
        )
        assert code == 4
        assert report["error"] == "RuntimeError: boom"
        assert report["result"] is None
        assert "internal error" in err


class TestBoundedWork:
    """Inputs whose cost the program must bound before doing the work:
    each ends within 2 s with exactly one report and exit 2."""

    @staticmethod
    def timed(capsys, *argv):
        started = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert out.count('"command"') == 1  # exactly one report
        return code, json.loads(out), elapsed

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, report, elapsed = self.timed(capsys, "decide", str(path))
        assert elapsed < 2.0
        assert code == 2
        assert "recursion" in report["error"]

    def test_huge_prime_skips_the_primality_test(self, capsys, monkeypatch):
        p = 2**2203 - 1  # a Mersenne prime of 664 digits
        tested = []
        for module in (cli, diffcalc):
            real = module.is_prime
            monkeypatch.setattr(
                module, "is_prime", lambda n, real=real: tested.append(n) or real(n)
            )
        code, report, elapsed = self.timed(
            capsys, "diff", "build", "--p", str(p), "--m", "1", "--l0", "2"
        )
        assert elapsed < 2.0
        assert code == 2
        assert report["error"] == "modulus p^m must be <= 65536"
        assert p not in tested

    def test_oversized_algebra_exits_2(self, capsys):
        code, report, elapsed = self.timed(
            capsys, "diff", "check", "--p", "2", "--m", "1", "--l0", "2",
            "--max-s", "3000", "--max-t", "3000", "--trials", "3",
        )
        assert elapsed < 2.0
        assert code == 2
        assert report["error"] == (
            f"--max-s times --max-t must be <= {cli.MAX_ALGEBRA_ENTRIES}"
        )

    def test_largest_algebra_runs(self, capsys):
        side = math.isqrt(cli.MAX_ALGEBRA_ENTRIES)
        code, report, _ = self.timed(
            capsys, "diff", "check", "--p", "2", "--m", "1", "--l0", "2",
            "--max-s", str(side), "--max-t", str(side), "--trials", "1",
        )
        assert code == 0
        assert report["result"]["violations_total"] == 0


def rejected(capsys, *argv):
    """Exit code, the one report and seconds taken by a run that argparse
    or a handler rejects."""
    started = time.perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert out.count('"command"') == 1  # exactly one report
    report = json.loads(out)
    assert not re.search(r"\d{21}", report["error"])  # no long number echoed
    return code, report, elapsed


# (id, gen arguments, expected error part)
GEN_PROBES = [
    ("max_rank_1e5", ["--max-rank", "100000"], "--max-classes times --max-rank"),
    ("max_rank_1e5_two_classes", ["--max-rank", "100000", "--max-classes", "2"],
     "bound"),
    ("classes_times_rank", ["--max-classes", "100000", "--max-rank", "3"],
     "--max-classes times --max-rank"),
    ("theta_1e12", ["--theta", str(10**12)], "--theta"),
    ("rank_3000_class_count", ["--max-rank", "3000", "--max-classes", "66"], "bound"),
]


class TestGenBounds:
    """gen's work is bounded by its arguments: each probe ends within 2 s
    with one report and exit 2."""

    @pytest.mark.parametrize(
        "args, part", [p[1:] for p in GEN_PROBES], ids=[p[0] for p in GEN_PROBES]
    )
    def test_probe_exits_2_quickly(self, capsys, tmp_path, args, part):
        out = tmp_path / "g.json"
        code, report, elapsed = rejected(capsys, "gen", "--out", str(out), *args)
        assert elapsed < 2.0
        assert code == 2
        assert report["command"] == "gen"
        assert part in report["error"]
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--max-classes", "256"], ["--max-classes", "100000", "--max-rank", "2"],
    ], ids=["max_classes_256", "at_the_cap"])
    def test_bounded_params_run(self, capsys, tmp_path, args):
        out = tmp_path / "g.json"
        code, report, _ = run(capsys, "gen", "--seed", "5", "--out", str(out), *args)
        assert code == 0
        assert report["result"]["digest"] == digest(out.read_bytes())


# (id, argv, expected command, expected error part)
PARSER_PROBES = [
    ("non_prime_p", ["diff", "build", "--p", "6", "--m", "1", "--l0", "1"],
     "diff build", "argument --p"),
    ("p_5000_digits", ["diff", "build", "--p", LONG, "--m", "1", "--l0", "2"],
     "diff build", "argument --p"),
    ("max_s_not_a_number",
     ["diff", "check", "--p", "2", "--m", "1", "--l0", "2", "--max-s", "abc"],
     "diff check", "argument --max-s"),
    ("seed_5000_digits", ["gen", "--out", "x.json", "--seed", LONG], "gen",
     "argument --seed"),
    ("decide_without_file", ["decide"], "decide", "file"),
    ("no_subcommand", ["diff"], None, "subcommand"),
    ("unknown_command", ["bogus"], None, "argument command"),
]


class TestParserRejections:
    """Arguments argparse rejects still end in one JSON report and exit 2."""

    @pytest.mark.parametrize(
        "argv, command, part", [p[1:] for p in PARSER_PROBES],
        ids=[p[0] for p in PARSER_PROBES],
    )
    def test_one_report(self, capsys, argv, command, part):
        code, report, elapsed = rejected(capsys, *argv)
        assert elapsed < 2.0
        assert code == 2
        assert report["command"] == command
        assert part in report["error"]
        assert report["result"] is None

    def test_help_exits_0_without_report(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--max-classes" in out and '"command"' not in out
