"""A dependency-free validator for the telemetry artifact schemas.

CI validates the campaign artifacts, and the exporter files that
``crossover audit --trace-out DIR`` writes, against the checked-in
schema (``telemetry.schema.json`` next to this module) without
installing ``jsonschema``: this implements the small JSON Schema subset
those schemas use — ``type`` (single or list), ``required``,
``properties``, ``additionalProperties`` (bool or schema), ``items``,
``enum``, ``minimum`` and internal ``{"$ref": "#/$defs/<name>"}``
references to the bundle's shared ``$defs`` (a shape stated once and
used by several sections, such as the fleet cell).

Usage::

    python -m repro.telemetry.schema metrics DIR/proxos_original.metrics.json
    python -m repro.telemetry.schema chrome_trace DIR/proxos_original.trace.json
    python -m repro.telemetry.schema faults FAULTS_PR4.json
    python -m repro.telemetry.schema audit AUDIT.json
    python -m repro.telemetry.schema switchless SWITCHLESS.json
    python -m repro.telemetry.schema observatory OBSERVATORY.json
    python -m repro.telemetry.schema fleet FLEET.json
    python -m repro.telemetry.schema paper PAPER.json

Exit status: ``0`` valid, ``1`` schema violations, ``2`` usage error
(an unknown schema name or an unreadable file included).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

#: The checked-in schema bundle: one named schema per artifact shape.
SCHEMA_PATH = os.path.join(os.path.dirname(__file__),
                           "telemetry.schema.json")

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(value: Any, schema: Dict[str, Any], path: str = "$",
             root: Optional[Dict[str, Any]] = None) -> List[str]:
    """Validate ``value`` against ``schema``; returns error strings
    (empty when valid).  A ``$ref`` resolves against ``root`` (default:
    ``schema`` itself) and applies alongside its sibling keywords; one
    that does not resolve is an error."""
    root = schema if root is None else root
    errors: List[str] = []

    if "$ref" in schema:
        target = _resolve(schema["$ref"], root)
        if target is None:
            errors.append(f"{path}: unresolvable $ref {schema['$ref']!r}")
        else:
            errors.extend(validate(value, target, path, root))

    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append(f"{path}: expected {expected}, "
                          f"got {type(value).__name__}")
            return errors

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")

    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")

    if isinstance(value, dict):
        for name in schema.get("required", []):
            if name not in value:
                errors.append(f"{path}: missing required key {name!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                errors.extend(validate(item, properties[key],
                                       f"{path}.{key}", root))
            elif isinstance(additional, dict):
                errors.extend(validate(item, additional, f"{path}.{key}",
                                       root))
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]",
                                   root))

    return errors


def _resolve(ref: Any, root: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The ``$defs`` entry ``ref`` names, or ``None``."""
    prefix = "#/$defs/"
    if not isinstance(ref, str) or not ref.startswith(prefix):
        return None
    return root.get("$defs", {}).get(ref[len(prefix):])


def load_schema(name: str) -> Dict[str, Any]:
    """Load one named schema from the checked-in bundle, carrying the
    bundle's ``$defs`` so its references resolve."""
    with open(SCHEMA_PATH) as fh:
        bundle = json.load(fh)
    defs = bundle.pop("$defs", {})
    if name not in bundle:
        raise KeyError(f"no schema named {name!r}; "
                       f"have {sorted(bundle)}")
    return {**bundle[name], "$defs": defs}


def validate_file(schema_name: str, json_path: str) -> List[str]:
    """Validate a JSON file against a named checked-in schema."""
    with open(json_path) as fh:
        value = json.load(fh)
    return validate(value, load_schema(schema_name))


def main(argv=None) -> int:
    """CLI: ``python -m repro.telemetry.schema <schema> <file.json>``.

    Exit status: ``0`` valid, ``1`` schema violations, ``2`` usage error
    (wrong arguments, an unknown schema name, or an unreadable file)."""
    args = sys.argv[1:] if argv is None else argv
    with open(SCHEMA_PATH) as fh:
        names = [name for name in json.load(fh) if name != "$defs"]
    if len(args) != 2:
        print("usage: python -m repro.telemetry.schema "
              f"<{'|'.join(names)}> <file.json>", file=sys.stderr)
        return 2
    if args[0] not in names:
        print(f"schema: no schema named {args[0]!r}; have "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    try:
        errors = validate_file(args[0], args[1])
    except (OSError, ValueError) as error:
        print(f"schema: cannot read {args[1]}: {error}", file=sys.stderr)
        return 2
    for error in errors:
        print(f"schema violation: {error}", file=sys.stderr)
    if not errors:
        print(f"{args[1]}: valid {args[0]} artifact")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
