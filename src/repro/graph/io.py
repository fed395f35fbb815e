"""Serialization of graph databases and schemas.

Two formats:

* **JSON** — self-contained: schema labels, node types, constraints (as
  pattern strings) and edges.  Round-trips exactly.
* **TSV** — one edge per line (``source<TAB>label<TAB>target``), plus an
  optional node-type file.  Interoperates with common graph tooling.
"""

import json

from repro.exceptions import ReproError
from repro.graph.database import GraphDatabase
from repro.graph.schema import Schema


def schema_to_dict(schema):
    """A JSON-ready dict for ``schema`` (constraints as strings)."""
    return {
        "labels": sorted(schema.labels),
        "node_types": {
            label: list(pair) for label, pair in schema.node_types.items()
        },
        "constraints": [str(c) for c in schema.constraints],
    }


def schema_from_dict(payload):
    """Rebuild a schema from :func:`schema_to_dict` output.

    Constraint strings are parsed with
    :func:`repro.constraints.tgd.parse_tgd`; imported lazily to avoid an
    import cycle (constraints depend on the pattern language which depends
    on nothing here, but tgd parsing needs the schema module).
    """
    from repro.constraints.tgd import parse_tgd

    labels = payload["labels"]
    node_types = {
        label: tuple(pair) for label, pair in payload.get("node_types", {}).items()
    }
    constraints = [parse_tgd(text) for text in payload.get("constraints", [])]
    return Schema(labels, constraints, node_types)


def database_to_dict(database):
    """A JSON-ready dict capturing schema, nodes and edges."""
    return {
        "schema": schema_to_dict(database.schema),
        "nodes": [
            {"id": node, "type": database.node_type(node)}
            for node in database.nodes()
        ],
        "edges": [list(edge) for edge in database.edges()],
    }


def database_from_dict(payload):
    """Rebuild a database from :func:`database_to_dict` output."""
    schema = schema_from_dict(payload["schema"])
    database = GraphDatabase(schema)
    for record in payload["nodes"]:
        database.add_node(record["id"], record.get("type"))
    for source, label, target in payload["edges"]:
        database.add_edge(source, label, target)
    return database


def save_json(database, path):
    """Write ``database`` to ``path`` as JSON."""
    with open(path, "w") as handle:
        json.dump(database_to_dict(database), handle, indent=1, sort_keys=True)


def load_json(path):
    """Load a database previously written by :func:`save_json`."""
    with open(path) as handle:
        payload = json.load(handle)
    return database_from_dict(payload)


def save_tsv(database, edges_path, nodes_path=None):
    """Write edges (and optionally node types) as tab-separated files."""
    with open(edges_path, "w") as handle:
        for source, label, target in database.edges():
            handle.write("{}\t{}\t{}\n".format(source, label, target))
    if nodes_path is not None:
        with open(nodes_path, "w") as handle:
            for node in database.nodes():
                node_type = database.node_type(node) or ""
                handle.write("{}\t{}\n".format(node, node_type))


def load_tsv(schema, edges_path, nodes_path=None):
    """Load a database from TSV files against a known ``schema``."""
    database = GraphDatabase(schema)
    if nodes_path is not None:
        with open(nodes_path) as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) not in (1, 2):
                    raise ReproError(
                        "bad node line {} in {}: {!r}".format(
                            line_number, nodes_path, line
                        )
                    )
                node = parts[0]
                node_type = parts[1] if len(parts) == 2 and parts[1] else None
                database.add_node(node, node_type)
    with open(edges_path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ReproError(
                    "bad edge line {} in {}: {!r}".format(
                        line_number, edges_path, line
                    )
                )
            database.add_edge(*parts)
    return database
