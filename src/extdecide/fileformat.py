"""JSON file formats for operators, towers and decision instances.

Every file is a single JSON object with a format_version field.  Integers
whose magnitude exceeds 2^53 - 1 are serialized as decimal strings so
that consumers with double-precision JSON parsers cannot truncate them;
the loaders accept both forms everywhere an integer is expected.

Serialization is canonical (sorted keys, two-space indent, trailing
newline), so parse -> serialize is byte-stable and fixtures diff cleanly.
Structural errors are reported with the JSON path of the offending value.

Sparse tables: kappa tables and the per-generator action tables omit
entries whose value is 0; a missing key means 0.  The projection and
restriction tables of an instance are dense: each class has an entry.
Identifiers may be integers or non-numeric strings (a string of digits
would collide with the integer it spells, so it is rejected).
"""

from __future__ import annotations

import hashlib
import json

from .abelian import FgAbGroup, GroupHom
from .decide import ExtensionInstance, InvalidInstanceError
from .diffcalc import DiffOperator
from .tower import (
    _MAX_TABLE_ENTRIES,
    ActionLadder,
    Layer,
    TowerModel,
    _check_stage_size,
)

__all__ = [
    "FORMAT_VERSION",
    "FileFormatError",
    "canonical_json",
    "digest",
    "dump_operator",
    "load_operator",
    "dump_tower",
    "load_tower",
    "dump_instance",
    "load_instance",
    "dump_ladder",
]

FORMAT_VERSION = "1"
_SAFE_INT = 2**53 - 1


class FileFormatError(ValueError):
    """Malformed file content, annotated with the JSON path."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _enc_int(v: int):
    return str(v) if abs(v) > _SAFE_INT else v


def _digits(v: str, path: str):
    """The integer a decimal string spells, or None if it spells none."""
    stripped = v[1:] if v.startswith("-") else v
    if not stripped.isdigit():
        return None
    try:
        return int(v)
    except ValueError:  # past Python's int-from-str digit limit
        raise FileFormatError(f"{path}: integer has too many digits") from None


def _dec_int(v, path: str) -> int:
    if isinstance(v, bool):
        raise FileFormatError(f"{path}: expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        value = _digits(v, path)
        if value is not None:
            return value
    raise FileFormatError(f"{path}: expected an integer, got {v!r}")


def _dec_id(v, path: str):
    if isinstance(v, bool):
        raise FileFormatError(f"{path}: booleans are not identifiers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        value = _digits(v, path)
        return v if value is None else value
    raise FileFormatError(f"{path}: identifiers must be integers or strings")


def _enc_id(v):
    if isinstance(v, int):
        return _enc_int(v)
    return v


def _get(obj, key, path: str):
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected an object")
    if key not in obj:
        raise FileFormatError(f"{path}.{key}: missing")
    return obj[key]


def _as_list(v, path: str):
    if not isinstance(v, list):
        raise FileFormatError(f"{path}: expected an array")
    return v


def _as_dict(v, path: str):
    if not isinstance(v, dict):
        raise FileFormatError(f"{path}: expected an object")
    return v


def _check_header(data, kind: str):
    version = _get(data, "format_version", "$")
    if version != FORMAT_VERSION:
        raise FileFormatError(
            f"$.format_version: unsupported version {version!r}"
        )
    got = _get(data, "kind", "$")
    if got != kind:
        raise FileFormatError(f"$.kind: expected {kind!r}, got {got!r}")


def _int_list(v, path: str):
    return [_dec_int(x, f"{path}[{i}]") for i, x in enumerate(_as_list(v, path))]


def _int_matrix(v, path: str):
    return [
        _int_list(row, f"{path}[{i}]") for i, row in enumerate(_as_list(v, path))
    ]


# --- difference operators ---

def dump_operator(op: DiffOperator) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "diff_operator",
        "p": _enc_int(op.p),
        "m": _enc_int(op.m),
        "order": _enc_int(op.order),
        "theta": _enc_int(op.theta),
        "terms": [[_enc_int(c), _enc_int(s)] for c, s in op.terms],
    }


def load_operator(data) -> DiffOperator:
    _check_header(data, "diff_operator")
    p = _dec_int(_get(data, "p", "$"), "$.p")
    m = _dec_int(_get(data, "m", "$"), "$.m")
    order = _dec_int(_get(data, "order", "$"), "$.order")
    theta = _dec_int(_get(data, "theta", "$"), "$.theta")
    terms = []
    for i, pair in enumerate(_as_list(_get(data, "terms", "$"), "$.terms")):
        pair = _as_list(pair, f"$.terms[{i}]")
        if len(pair) != 2:
            raise FileFormatError(f"$.terms[{i}]: expected [coefficient, stride]")
        terms.append(
            (_dec_int(pair[0], f"$.terms[{i}][0]"),
             _dec_int(pair[1], f"$.terms[{i}][1]"))
        )
    try:
        return DiffOperator(p=p, m=m, order=order, theta=theta, terms=tuple(terms))
    except ValueError as exc:
        raise FileFormatError(f"$: {exc}") from exc


# --- towers ---

def _dump_sparse_ints(values) -> dict:
    return {str(i): _enc_int(v) for i, v in enumerate(values) if v}

def _load_sparse_ints(data, length: int, path: str):
    out = [0] * length
    for key, v in _as_dict(data, path).items():
        idx = _dec_int(key, f"{path}.{key}")
        if not 0 <= idx < length:
            raise FileFormatError(f"{path}.{key}: index out of range 0..{length - 1}")
        out[idx] = _dec_int(v, f"{path}.{key}")
    return out


def dump_tower(tower: TowerModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "tower",
        "ground": [_enc_int(q) for q in tower.ground.orders],
        "layers": [
            {"q": _enc_int(layer.q), "kappa": _dump_sparse_ints(layer.kappa)}
            for layer in tower.layers
        ],
    }


def load_tower(data) -> TowerModel:
    _check_header(data, "tower")
    orders = _int_list(_get(data, "ground", "$"), "$.ground")
    try:
        ground = FgAbGroup(orders)
        if not ground.is_finite:
            raise ValueError("ground group must be finite")
        _check_stage_size(0, ground.size, ground.size)
    except ValueError as exc:
        raise FileFormatError(f"$.ground: {exc}") from exc
    layers = []
    size = ground.size
    for i, entry in enumerate(_as_list(_get(data, "layers", "$"), "$.layers")):
        path = f"$.layers[{i}]"
        q = _dec_int(_get(entry, "q", path), f"{path}.q")
        # kappa has size(i) entries, and stage i already passed the cap;
        # the cap on stage i + 1 comes before Layer's prime-power test,
        # whose cost grows with the digits of q
        kappa = _load_sparse_ints(_get(entry, "kappa", path), size, f"{path}.kappa")
        try:
            _check_stage_size(i + 1, size * q, ground.size)
            layers.append(Layer(q=q, kappa=kappa))
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
        size *= q
    try:
        return TowerModel(ground, layers)
    except ValueError as exc:
        raise FileFormatError(f"$.layers: {exc}") from exc


def dump_ladder(ladder: ActionLadder) -> dict:
    """Audit export: scales, operators and twist tables per layer."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ladder",
        "thetas": [_enc_int(t) for t in ladder.thetas],
        "common_theta": _enc_int(ladder.common_theta),
        "layers": [
            {
                "operator": dump_operator(op),
                "twist": [[_enc_int(v) for v in row] for row in twist],
            }
            for op, twist in zip(ladder.ops, ladder.twists)
        ],
    }


# --- decision instances ---


def dump_instance(inst: ExtensionInstance) -> dict:
    ids_x = [_enc_id(i) for i in inst.x_classes]
    ids_a = [_enc_id(i) for i in inst.a_classes]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "instance",
        "groups": {
            "ground_x": [_enc_int(q) for q in inst.gx.orders],
            "ground_a": [_enc_int(q) for q in inst.ga.orders],
        },
        "homs": {
            "restriction": [[_enc_int(v) for v in row] for row in inst.restriction.matrix],
        },
        "scalars": {"theta": _enc_int(inst.theta)},
        "classes": {"x": ids_x, "a": ids_a},
        "elements": {
            "target_ground": [_enc_int(c) for c in inst.target_ground.coords],
        },
        "distinguished": {"target_class": _enc_id(inst.target_class)},
        "tables": {
            "proj_x": {
                str(g): [_enc_int(c) for c in inst.proj_x[g].coords]
                for g in inst.x_classes
            },
            "proj_a": {
                str(g): [_enc_int(c) for c in inst.proj_a[g].coords]
                for g in inst.a_classes
            },
            "restrict": {str(g): _enc_id(inst.restrict_class[g]) for g in inst.x_classes},
            "act_x": [
                {
                    str(g): _enc_id(inst.act_x[g][j])
                    for g in inst.x_classes
                    if inst.act_x[g][j] != 0
                }
                for j in range(inst.gx.rank)
            ],
            "act_a": [
                {
                    str(g): _enc_id(inst.act_a[g][j])
                    for g in inst.a_classes
                    if inst.act_a[g][j] != 0
                }
                for j in range(inst.ga.rank)
            ],
        },
    }


def _build(make, data, path: str, decode=_int_list):
    """make(decoded data), with make's ValueError put at path; decoding
    errors carry their own, deeper path."""
    value = decode(data, path)
    try:
        return make(value)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _load_ids(data, path: str):
    ids = [v if type(v) is int else _dec_id(v, f"{path}[{i}]")
           for i, v in enumerate(_as_list(data, path))]
    if len(set(ids)) != len(ids):
        raise FileFormatError(f"{path}: duplicate identifiers")
    return tuple(ids)


def _names(ids) -> dict:
    """Each identifier under itself and under str(id): the class set, and
    the decoding of every key written as str(id)."""
    return {**dict(zip(map(str, ids), ids)), **dict(zip(ids, ids))}


def _check_dense(table, ids, path: str):
    missing = [g for g in ids if g not in table]
    if missing:
        raise FileFormatError(f"{path}: missing entries for {missing[:5]}")


def _load_proj(data, ids, names, group, path: str):
    rank = group.rank
    boxed = {}  # each distinct row of plain ints is reduced and boxed once
    out = {}
    for key, coords in _as_dict(data, path).items():
        g = names.get(key)
        if g is None:
            g = _dec_id(key, f"{path}.{key}")
            if g not in names:
                raise FileFormatError(f"{path}.{key}: unknown identifier")
        if (type(coords) is list and len(coords) == rank
                and all(type(c) is int for c in coords)):
            row = tuple(coords)
            out[g] = boxed.get(row) or boxed.setdefault(row, group.element(row))
        else:
            out[g] = _build(group.element, coords, f"{path}.{key}")
    _check_dense(out, ids, path)
    return out


def _load_id_table(data, keys, values, path: str) -> dict:
    """An identifier -> identifier object, given the _names of the key and
    value classes; pairs not written as str(id) -> int id are decoded."""
    out = {}
    for key, v in _as_dict(data, path).items():
        g = keys.get(key)
        if g is None or type(v) is not int or v not in values:
            g = _dec_id(key, f"{path}.{key}")
            v = _dec_id(v, f"{path}.{key}")
            if g not in keys or v not in values:
                raise FileFormatError(f"{path}.{key}: unknown identifier")
        out[g] = v
    return out


def _load_act(data, ids, names, rank: int, path: str):
    entries = _as_list(data, path)
    if len(entries) != rank:
        raise FileFormatError(
            f"{path}: expected {rank} generator tables, got {len(entries)}"
        )
    columns = []
    for j, table in enumerate(entries):
        tab = _load_id_table(table, names, names, f"{path}[{j}]")
        columns.append([tab.get(g, 0) for g in ids])  # 0 is the sparse default
    if rank * len(ids) > _MAX_TABLE_ENTRIES:
        raise FileFormatError(f"{path}: table too large ({rank * len(ids)} entries)")
    return dict(zip(ids, zip(*columns) if rank else [()] * len(ids)))


def load_instance(data) -> ExtensionInstance:
    """Decode an instance file.  Each class list is decoded once; table
    entries written canonically map through one dict per list, and only
    other spellings are decoded one by one."""
    _check_header(data, "instance")
    groups = _get(data, "groups", "$")
    gx = _build(FgAbGroup, _get(groups, "ground_x", "$.groups"), "$.groups.ground_x")
    ga = _build(FgAbGroup, _get(groups, "ground_a", "$.groups"), "$.groups.ground_a")
    restriction = _build(
        lambda rows: GroupHom(gx, ga, rows),
        _get(_get(data, "homs", "$"), "restriction", "$.homs"),
        "$.homs.restriction", _int_matrix,
    )
    theta = _dec_int(
        _get(_get(data, "scalars", "$"), "theta", "$.scalars"), "$.scalars.theta"
    )
    classes = _get(data, "classes", "$")
    x_classes = _load_ids(_get(classes, "x", "$.classes"), "$.classes.x")
    a_classes = _load_ids(_get(classes, "a", "$.classes"), "$.classes.a")
    if len(x_classes) * max(1, gx.rank) > _MAX_TABLE_ENTRIES:
        raise FileFormatError("$.classes.x: instance too large")
    names_x, names_a = _names(x_classes), _names(a_classes)
    target_ground = _build(
        ga.element,
        _get(_get(data, "elements", "$"), "target_ground", "$.elements"),
        "$.elements.target_ground",
    )
    target_class = _dec_id(
        _get(_get(data, "distinguished", "$"), "target_class", "$.distinguished"),
        "$.distinguished.target_class",
    )
    tables = _get(data, "tables", "$")
    proj_x = _load_proj(_get(tables, "proj_x", "$.tables"), x_classes, names_x,
                        gx, "$.tables.proj_x")
    proj_a = _load_proj(_get(tables, "proj_a", "$.tables"), a_classes, names_a,
                        ga, "$.tables.proj_a")
    restrict_class = _load_id_table(
        _get(tables, "restrict", "$.tables"), names_x, names_a, "$.tables.restrict"
    )
    _check_dense(restrict_class, x_classes, "$.tables.restrict")
    act_x = _load_act(_get(tables, "act_x", "$.tables"), x_classes, names_x,
                      gx.rank, "$.tables.act_x")
    act_a = _load_act(_get(tables, "act_a", "$.tables"), a_classes, names_a,
                      ga.rank, "$.tables.act_a")
    try:
        return ExtensionInstance(
            gx=gx, ga=ga, restriction=restriction, target_ground=target_ground,
            theta=theta, x_classes=x_classes, a_classes=a_classes,
            proj_x=proj_x, proj_a=proj_a, restrict_class=restrict_class,
            target_class=target_class, act_x=act_x, act_a=act_a,
        )
    except InvalidInstanceError as exc:
        raise FileFormatError(f"$: {exc}") from exc
