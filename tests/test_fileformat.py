import json
import random

import pytest

from extdecide.abelian import FgAbGroup
from extdecide.decide import generate_instance, validate_instance
from extdecide.diffcalc import build_diff_operator
from extdecide.fileformat import (
    FileFormatError,
    canonical_json,
    dump_instance,
    dump_ladder,
    dump_operator,
    dump_tower,
    load_instance,
    load_operator,
    load_tower,
)
from extdecide.tower import Layer, TowerModel, build_ladder, random_tower


class TestOperatorFiles:
    def test_roundtrip(self):
        op = build_diff_operator(3, 2, 2)
        assert load_operator(dump_operator(op)) == op

    def test_serialize_is_canonical(self):
        op = build_diff_operator(2, 3, 1)
        text = canonical_json(dump_operator(op))
        again = canonical_json(dump_operator(load_operator(json.loads(text))))
        assert text == again

    def test_bad_kind(self):
        data = dump_operator(build_diff_operator(2, 1, 1))
        data["kind"] = "tower"
        with pytest.raises(FileFormatError, match=r"\$\.kind"):
            load_operator(data)

    def test_bad_term_shape(self):
        data = dump_operator(build_diff_operator(2, 1, 1))
        data["terms"] = [[1]]
        with pytest.raises(FileFormatError, match=r"terms\[0\]"):
            load_operator(data)

    def test_corrupted_coefficient_still_loads(self):
        # a structurally valid but mathematically wrong operator must load;
        # only `diff check` can tell it is wrong
        data = dump_operator(build_diff_operator(2, 2, 4))
        data["terms"] = [[1, 2], [3, 1]]
        op = load_operator(data)
        assert op.terms == ((1, 2), (3, 1))


class TestTowerFiles:
    def test_roundtrip(self):
        rng = random.Random(6)
        tower = random_tower(rng)
        data = dump_tower(tower)
        loaded = load_tower(data)
        assert loaded.ground == tower.ground
        assert loaded.layers == tower.layers
        assert canonical_json(dump_tower(loaded)) == canonical_json(data)

    def test_kappa_sparse_default(self):
        tower = TowerModel(FgAbGroup((2,)), [Layer(q=2, kappa=[0, 1])])
        data = dump_tower(tower)
        assert data["layers"][0]["kappa"] == {"1": 1}
        assert load_tower(data).layers[0].kappa == (0, 1)

    def test_non_prime_power_rejected(self):
        data = {
            "format_version": "1",
            "kind": "tower",
            "ground": [2],
            "layers": [{"q": 6, "kappa": {}}],
        }
        with pytest.raises(FileFormatError, match="prime power"):
            load_tower(data)

    def test_kappa_index_out_of_range(self):
        data = {
            "format_version": "1",
            "kind": "tower",
            "ground": [2],
            "layers": [{"q": 2, "kappa": {"7": 1}}],
        }
        with pytest.raises(FileFormatError, match="out of range"):
            load_tower(data)

    def test_infinite_ground_rejected(self):
        data = {"format_version": "1", "kind": "tower", "ground": [0], "layers": []}
        with pytest.raises(FileFormatError, match="finite"):
            load_tower(data)

    def test_ladder_export_shape(self):
        rng = random.Random(8)
        tower = random_tower(rng)
        ladder = build_ladder(tower)
        data = dump_ladder(ladder)
        assert data["kind"] == "ladder"
        assert len(data["layers"]) == tower.depth
        assert data["thetas"] == list(ladder.thetas)


def _rename_x_classes(data):
    """Rename x-class i to "c<i>", so that 0, the sparse action default,
    names no x-class."""
    tables = data["tables"]
    data["classes"]["x"] = [f"c{g}" for g in data["classes"]["x"]]
    for key in ("proj_x", "restrict"):
        tables[key] = {f"c{g}": v for g, v in tables[key].items()}
    tables["act_x"] = [
        {f"c{g}": f"c{v}" for g, v in t.items()} for t in tables["act_x"]
    ]


class TestInstanceFiles:
    @pytest.mark.parametrize("seed", range(15))
    def test_roundtrip_and_validity(self, seed):
        inst = generate_instance(seed)
        data = dump_instance(inst)
        loaded = load_instance(data)
        assert validate_instance(loaded).ok
        assert loaded.theta == inst.theta
        assert loaded.restrict_class == inst.restrict_class
        assert loaded.proj_x == inst.proj_x
        assert loaded.act_x == inst.act_x
        assert loaded.target_class == inst.target_class
        assert canonical_json(dump_instance(loaded)) == canonical_json(data)

    def test_sparse_action_default(self):
        inst = generate_instance(4, theta=4)
        data = dump_instance(inst)
        # entries mapping to identifier 0 are omitted
        for j, table in enumerate(data["tables"]["act_x"]):
            for g in inst.x_classes:
                assert table.get(str(g), 0) == inst.act_x[g][j]

    def test_projections_are_dense(self):
        data = dump_instance(generate_instance(0))
        assert any(data["tables"]["proj_x"]["15"])
        del data["tables"]["proj_x"]["15"]
        with pytest.raises(FileFormatError, match=r"\$\.tables\.proj_x: missing"):
            load_instance(data)
        data = dump_instance(generate_instance(0))
        del data["tables"]["proj_a"]["0"]
        with pytest.raises(FileFormatError, match=r"\$\.tables\.proj_a: missing"):
            load_instance(data)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["scalars"].update(theta=0),
            lambda d: d["distinguished"].update(target_class="nowhere"),
            lambda d: _rename_x_classes(d),
        ],
        ids=["theta_0", "unknown_target_class", "sparse_default_not_an_id"],
    )
    def test_structural_fault_is_a_format_error(self, edit):
        data = dump_instance(generate_instance(0))
        edit(data)
        with pytest.raises(FileFormatError, match=r"^\$: malformed instance"):
            load_instance(data)

    @pytest.mark.parametrize(
        "value", ["1" * 5000, "-" + "1" * 5000], ids=["positive", "negative"]
    )
    def test_overlong_integer_string(self, value):
        data = dump_instance(generate_instance(2))
        data["tables"]["proj_x"]["0"][0] = value
        with pytest.raises(FileFormatError, match="too many digits") as info:
            load_instance(data)
        assert "1" * 50 not in str(info.value)

    def test_position_annotated_error(self):
        data = dump_instance(generate_instance(2))
        data["tables"]["restrict"]["999999"] = 0
        with pytest.raises(FileFormatError, match=r"\$\.tables\.restrict\.999999"):
            load_instance(data)

    def test_unknown_version(self):
        data = dump_instance(generate_instance(2))
        data["format_version"] = "99"
        with pytest.raises(FileFormatError, match="version"):
            load_instance(data)

    def test_big_integers_as_strings(self):
        big = 2**80
        gx = FgAbGroup((0,))
        inst = generate_instance(1, theta=2)
        import dataclasses

        shifted = dataclasses.replace(
            inst,
            gx=gx,
            restriction=type(inst.restriction)(
                gx, inst.ga, [[0]] * inst.ga.rank
            ),
            x_classes=(0,),
            proj_x={0: gx.element((big,))},
            restrict_class={0: inst.target_class},
            act_x={0: (0,)},
            target_ground=inst.proj_a[inst.target_class],
        )
        data = dump_instance(shifted)
        assert data["tables"]["proj_x"]["0"] == [str(big)]
        loaded = load_instance(data)
        assert loaded.proj_x[0].coords == (big,)


def _load_bytes(data):
    return canonical_json(dump_instance(load_instance(data)))


def _load_error(data):
    with pytest.raises(FileFormatError) as info:
        load_instance(data)
    return str(info.value)


class TestLoaderSpellings:
    """Table keys written as str(id) and identifier values written as the
    id map through one dict; every other spelling is decoded in full and
    gives the instance, or the error, that full decoding gives."""

    def test_zero_padded_keys(self):
        data = dump_instance(generate_instance(9))
        tables = data["tables"]
        for key in ("proj_x", "restrict"):
            tables[key]["007"] = tables[key].pop("7")
        tables["act_x"][0]["007"] = tables["act_x"][0].pop("7", 0)
        data["classes"]["x"][7] = "007"
        assert _load_bytes(data) == canonical_json(dump_instance(generate_instance(9)))

    def test_string_identifiers(self):
        inst = generate_instance(9)
        data = dump_instance(inst)
        tables = data["tables"]
        data["classes"]["a"] = [f"a{g}" for g in inst.a_classes]
        data["distinguished"]["target_class"] = f"a{inst.target_class}"
        tables["proj_a"] = {f"a{g}": v for g, v in tables["proj_a"].items()}
        tables["restrict"] = {g: f"a{v}" for g, v in tables["restrict"].items()}
        tables["act_a"] = [
            {f"a{g}": f"a{v}" for g, v in table.items()} for table in tables["act_a"]
        ]
        # omitted entries default to 0, which now names no a-class
        assert _load_error(data).startswith("$: malformed instance: act_a[")
        tables["act_a"] = [
            {f"a{g}": f"a{inst.act_a[g][j]}" for g in inst.a_classes}
            for j in range(inst.ga.rank)
        ]
        loaded = load_instance(data)
        assert loaded.a_classes == tuple(f"a{g}" for g in inst.a_classes)
        assert loaded.restrict_class == {
            g: f"a{v}" for g, v in inst.restrict_class.items()
        }
        assert loaded.act_a == {
            f"a{g}": tuple(f"a{v}" for v in row) for g, row in inst.act_a.items()
        }
        assert validate_instance(loaded) == validate_instance(inst)

    def test_int_values_written_as_strings(self):
        data = dump_instance(generate_instance(9))
        restrict = data["tables"]["restrict"]
        restrict["3"] = str(restrict["3"])
        restrict["4"] = "00" + str(restrict["4"])
        assert _load_bytes(data) == canonical_json(dump_instance(generate_instance(9)))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t["restrict"].update({"3": True}),
             "$.tables.restrict.3: booleans are not identifiers"),
            (lambda t: t["act_x"][0].update({"3": False}),
             "$.tables.act_x[0].3: booleans are not identifiers"),
            (lambda t: t["restrict"].update({"3": 1.0}),
             "$.tables.restrict.3: identifiers must be integers or strings"),
            (lambda t: t["restrict"].update({"999": True}),
             "$.tables.restrict.999: booleans are not identifiers"),
            (lambda t: t["restrict"].update({"999": 0}),
             "$.tables.restrict.999: unknown identifier"),
            (lambda t: t["restrict"].update({"3": 999}),
             "$.tables.restrict.3: unknown identifier"),
            (lambda t: t["restrict"].update({"3": "nowhere"}),
             "$.tables.restrict.3: unknown identifier"),
            (lambda t: t["act_x"][1].update({"0999": 0}),
             "$.tables.act_x[1].0999: unknown identifier"),
            (lambda t: t["act_a"][0].update({"2": -1}),
             "$.tables.act_a[0].2: unknown identifier"),
            (lambda t: t["proj_x"].update({"999": [0, 0]}),
             "$.tables.proj_x.999: unknown identifier"),
            (lambda t: t["proj_x"].update({"3": [0, 0, 0]}),
             "$.tables.proj_x.3: expected 2 coordinates, got 3"),
            (lambda t: t["proj_x"].update({"3": [0]}),
             "$.tables.proj_x.3: expected 2 coordinates, got 1"),
        ],
        ids=["bool_value", "bool_act_value", "float_value", "unknown_key_bool",
             "unknown_key", "unknown_value", "unknown_string_value",
             "unknown_act_key", "unknown_act_value", "unknown_proj_key",
             "long_row", "short_row"],
    )
    def test_error_messages(self, edit, message):
        data = dump_instance(generate_instance(9))
        assert generate_instance(9).gx.rank == 2
        edit(data["tables"])
        assert _load_error(data) == message

    def test_boolean_class_identifier(self):
        data = dump_instance(generate_instance(9))
        data["classes"]["x"][2] = True
        assert _load_error(data) == "$.classes.x[2]: booleans are not identifiers"

    def test_big_coordinates_as_strings(self):
        data = dump_instance(generate_instance(9))
        orders = generate_instance(9).gx.orders
        row = data["tables"]["proj_x"]["5"]
        big = [str(c + 2**60 * q) for c, q in zip(row, orders)]
        data["tables"]["proj_x"]["5"] = big
        assert _load_bytes(data) == canonical_json(dump_instance(generate_instance(9)))
        data["tables"]["proj_x"]["5"] = [int(c) for c in big]
        assert _load_bytes(data) == canonical_json(dump_instance(generate_instance(9)))

    def test_sparse_default_fills_missing_entries(self):
        inst = generate_instance(4, theta=4)
        data = dump_instance(inst)
        assert any(0 in row for row in inst.act_x.values())
        loaded = load_instance(data)
        assert loaded.act_x == inst.act_x and loaded.act_a == inst.act_a


class TestErrorPathsWrapOnce:
    """A coordinate's error carries its JSON path once."""

    LONG = "1" * 5000

    def test_projection_coordinate(self):
        data = dump_instance(generate_instance(9))
        data["tables"]["proj_x"]["1"][0] = self.LONG
        assert _load_error(data) == "$.tables.proj_x.1[0]: integer has too many digits"

    def test_target_ground_coordinate(self):
        data = dump_instance(generate_instance(9))
        data["elements"]["target_ground"][0] = self.LONG
        assert _load_error(data) == (
            "$.elements.target_ground[0]: integer has too many digits"
        )

    def test_restriction_entry(self):
        data = dump_instance(generate_instance(9))
        data["homs"]["restriction"][0][0] = self.LONG
        assert _load_error(data) == (
            "$.homs.restriction[0][0]: integer has too many digits"
        )

    def test_ground_order(self):
        data = dump_instance(generate_instance(9))
        data["groups"]["ground_x"][0] = True
        assert _load_error(data) == (
            "$.groups.ground_x[0]: expected an integer, got a boolean"
        )

    def test_projection_row_not_an_array(self):
        data = dump_instance(generate_instance(9))
        data["tables"]["proj_a"]["0"] = 3
        assert _load_error(data) == "$.tables.proj_a.0: expected an array"
