"""Instance documents, orientation files, and DOT export.

An instance document is a JSON object with six fields: ``version`` (always
1), ``vertices`` (count), ``edges`` (list of endpoint pairs in edge-id
order), ``parity`` (map vertex -> 0|1), ``conflicts`` (list of objects
with ``vertex``, ``edges``, and ``kind`` "exact"|"subset"), and ``forced``
(map edge -> head vertex). JSON object keys are strings, so the parity and
forced maps key ids as canonical decimal strings ("3", never "03" or " 3"),
no object may repeat a key, and no conflict may list an edge twice.
Serialization is canonical: keys sorted as strings ("10" before "9"),
two-space indent, ``[]`` and ``{}`` for empty containers, member edge
lists ascending, one trailing newline. ``serialize_instance`` writes the
text directly with f-strings and ``str.join``, an int through ``str`` and
any other value through ``json.dumps``, so its bytes equal
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``; json itself runs in
pure Python whenever ``indent`` is set, several times slower.
Parsing back a serialized document and serializing again is
byte-identical. Parsing checks the document, not its ids: whoever uses
the instance runs ``core.require_valid`` (every public solver and the
oracle do), so an id is checked once per command.

An orientation file is one head vertex per line in edge-id order, each a
canonical decimal integer; blank lines and ``#`` comments are skipped.
"""

from __future__ import annotations

import json
from collections import defaultdict

from .core import (
    Conflict,
    ConflictKind,
    Instance,
    Multigraph,
    Orientation,
    verify,
)
from .errors import InvalidDocumentError

__all__ = [
    "FORMAT_VERSION",
    "export_dot",
    "parse_instance",
    "parse_orientation",
    "serialize_instance",
    "serialize_orientation",
]

FORMAT_VERSION = 1

_FIELDS = {"version", "vertices", "edges", "parity", "conflicts", "forced"}


def _int_field(doc: dict, name: str) -> int:
    value = doc.get(name)
    if type(value) is not int:  # bool is an int subclass; JSON true must not read as 1
        raise InvalidDocumentError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _id_map(doc: dict, name: str) -> dict[int, int]:
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise InvalidDocumentError(f"field {name!r} must be an object")
    out: dict[int, int] = {}
    for key, item in value.items():
        try:
            k = int(key)
        except ValueError:
            raise InvalidDocumentError(f"field {name!r}: key {key!r} is not an integer")
        if key != str(k):  # "01", " 0" and "1_0" would alias or rename an id
            raise InvalidDocumentError(f"field {name!r}: key {key!r} is not a canonical integer")
        if type(item) is not int:
            raise InvalidDocumentError(f"field {name!r}: value for {key!r} must be an integer")
        out[k] = item
    return out


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """An object's members as a dict; a repeated key is an error, not an overwrite."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise InvalidDocumentError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def parse_instance(text: str) -> Instance:
    """Read an instance document: syntax, fields, types and canonical keys.

    Each problem raises InvalidDocumentError naming the line or field.
    Ids are not checked here: an endpoint or member out of range, a
    self-loop or a stray forced head or parity is left to
    ``core.require_valid``, which raises InvalidInstanceError.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InvalidDocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise InvalidDocumentError("top level must be an object")
    unknown = set(doc) - _FIELDS
    if unknown:
        raise InvalidDocumentError(f"unknown fields: {', '.join(sorted(unknown))}")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidDocumentError(f"unsupported version {version!r}, expected {FORMAT_VERSION}")
    vertices = _int_field(doc, "vertices")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise InvalidDocumentError("field 'edges' must be a list")
    edges = [
        (pair[0], pair[1])
        if isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int
        else None
        for pair in raw_edges
    ]
    if None in edges:
        raise InvalidDocumentError(f"edges[{edges.index(None)}] must be a pair of vertex ids")
    conflicts: list[Conflict] = []
    raw_conflicts = doc.get("conflicts", [])
    if not isinstance(raw_conflicts, list):
        raise InvalidDocumentError("field 'conflicts' must be a list")
    for i, entry in enumerate(raw_conflicts):
        if not isinstance(entry, dict):
            raise InvalidDocumentError(f"conflicts[{i}] must be an object")
        extra = set(entry) - {"vertex", "edges", "kind"}
        if extra:
            raise InvalidDocumentError(f"conflicts[{i}] has unknown fields: {', '.join(sorted(extra))}")
        vertex = entry.get("vertex")
        if type(vertex) is not int:
            raise InvalidDocumentError(f"conflicts[{i}].vertex must be an integer")
        members = entry.get("edges")
        if not isinstance(members, list) or not all(type(e) is int for e in members):
            raise InvalidDocumentError(f"conflicts[{i}].edges must be a list of edge ids")
        if len(set(members)) < len(members):
            repeated = next(e for k, e in enumerate(members) if e in members[:k])
            raise InvalidDocumentError(f"conflicts[{i}].edges repeats edge {repeated}")
        kind_name = entry.get("kind")
        try:
            kind = ConflictKind(kind_name)
        except ValueError:
            raise InvalidDocumentError(
                f"conflicts[{i}].kind must be 'exact' or 'subset', got {kind_name!r}"
            )
        conflicts.append(Conflict(vertex, frozenset(members), kind))
    return Instance(
        Multigraph(vertices, tuple(edges)),
        _id_map(doc, "parity"),
        tuple(conflicts),
        _id_map(doc, "forced"),
    )


def _text(value: object, pad: str) -> str:
    """``value`` as json writes it on a line indented by ``pad``: ``str`` for
    an int, else ``json.dumps`` with the document's options, its inner lines
    shifted by ``pad``."""
    if type(value) is int:
        return str(value)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _array(items: list[str], pad: str) -> str:
    return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"


def _key(key: object) -> str:
    return f'"{key}"' if type(key) is int else json.dumps(str(key))


def _id_object(ids: dict[int, int] | dict[str, int]) -> str:
    """A parity, forced or role map, keys in string order: "10" precedes "9"."""
    members = [f'    {_key(k)}: {_text(ids[k], "    ")}' for k in sorted(ids, key=str)]
    return "{\n" + ",\n".join(members) + "\n  }" if members else "{}"


def _conflict(c: Conflict) -> str:
    members = [f"        {_text(e, '        ')}" for e in sorted(c.edges)]
    return (
        "    {\n"
        f'      "edges": {_array(members, "      ")},\n'
        f'      "kind": {_text(c.kind.value, "      ")},\n'
        f'      "vertex": {_text(c.vertex, "      ")}\n'
        "    }"
    )


def serialize_instance(inst: Instance) -> str:
    """The instance's canonical document, written field by field."""
    edges = [
        f"    [\n      {_text(u, '      ')},\n      {_text(v, '      ')}\n    ]" for u, v in inst.graph.edges
    ]
    return (
        "{\n"
        f'  "conflicts": {_array([_conflict(c) for c in inst.conflicts], "  ")},\n'
        f'  "edges": {_array(edges, "  ")},\n'
        f'  "forced": {_id_object(inst.forced)},\n'
        f'  "parity": {_id_object(inst.parity)},\n'
        f'  "version": {FORMAT_VERSION},\n'
        f'  "vertices": {_text(inst.graph.vertex_count, "  ")}\n'
        "}\n"
    )


def serialize_roles(
    labels: dict[str, int], padded_clauses: tuple[int, ...], padded_variables: tuple[int, ...]
) -> str:
    """A hardness construction's role map, written as ``serialize_instance``
    writes a document: the bytes of ``json.dumps`` of the three fields with
    sorted keys and a two-space indent, plus a newline."""
    clauses = [f"    {_text(j, '    ')}" for j in padded_clauses]
    variables = [f"    {_text(x, '    ')}" for x in padded_variables]
    return (
        "{\n"
        f'  "labels": {_id_object(labels)},\n'
        f'  "padded_clauses": {_array(clauses, "  ")},\n'
        f'  "padded_variables": {_array(variables, "  ")}\n'
        "}\n"
    )


def parse_orientation(text: str) -> Orientation:
    heads: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head = int(line)
        except ValueError:
            raise InvalidDocumentError(f"line {lineno}: expected a vertex id, got {line!r}")
        if str(head) != line:  # int() also reads "1_0" as 10, and "+1" and "01"
            raise InvalidDocumentError(f"line {lineno}: vertex id {line!r} is not a canonical integer")
        heads.append(head)
    return Orientation(tuple(heads))


def serialize_orientation(o: Orientation) -> str:
    return "".join([f"{h}\n" for h in o.heads])


def export_dot(inst: Instance, o: Orientation | None = None) -> str:
    """Render the instance as DOT, directed when an orientation is given.

    Node labels carry parity constraints, edge labels the edge id and its
    conflict memberships (index, kind, and vertex), so both members of a
    conflict pair show the same tag. Output is deterministic.
    """
    g = inst.graph
    if o is not None:
        verify(inst, o)  # raises on a head count or head that does not fit g
    tags: dict[int, list[str]] = defaultdict(list)
    for ci, c in enumerate(inst.conflicts):
        for e in sorted(c.edges):
            tags[e].append(f"c{ci}:{c.kind.value}@{c.vertex}")
    lines = ["digraph g {" if o is not None else "graph g {"]
    for v in range(g.vertex_count):
        p = inst.parity.get(v)
        if p is None:
            lines.append(f"  {v};")
        else:
            lines.append(f'  {v} [label="{v} p={p}"];')
    link = "->" if o is not None else "--"
    for e, (u, v) in enumerate(g.edges):
        label = " ".join([f"e{e}", *tags[e]])
        if o is not None:
            head = o.heads[e]
            tail = v if head == u else u
            lines.append(f'  {tail} {link} {head} [label="{label}"];')
        else:
            lines.append(f'  {u} {link} {v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
