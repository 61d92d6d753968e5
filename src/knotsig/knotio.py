"""File formats: Seifert matrix collections and bound reports.

A Seifert matrix file is a JSON array of objects
``{"name": str, "matrix": [[int, ...], ...]}``.  Matrices are validated on
load (square, even size, det(V - V^T) = 1), and names must differ without
regard to case, since expressions match them so; errors carry the entry
name or index so a bad file points at the offending matrix.
"""

from __future__ import annotations

import json

from .errors import KnotsigError, SeifertInvariantError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotation names only; typing itself stays unloaded
    from .seifert import SeifertMatrix


def read_text(path) -> str:
    """The contents of a UTF-8 text file; KnotsigError naming the path if
    they are not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise KnotsigError(f"{path}: not UTF-8 text (byte {e.start})") from e


def read_seifert_file(path) -> list[tuple[str, SeifertMatrix]]:
    """Load named Seifert matrices from a JSON file."""
    from .seifert import SeifertMatrix

    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise KnotsigError(f"{path}: not valid JSON at line {e.lineno}, column {e.colno}") from e
    if not isinstance(data, list):
        raise KnotsigError(f"{path}: expected a JSON array of knot objects")
    out, seen = [], {}
    for k, item in enumerate(data):
        where = f"{path}: entry {k}"
        if not isinstance(item, dict) or "name" not in item or "matrix" not in item:
            raise KnotsigError(f"{where}: each entry needs 'name' and 'matrix' fields")
        name = item["name"]
        if not isinstance(name, str) or not name:
            raise KnotsigError(f"{where}: 'name' must be a nonempty string")
        key = name.lower()
        if key in seen:
            raise KnotsigError(f"{where}: name {name!r} repeats entry {seen[key]} "
                               "(names match without regard to case)")
        seen[key] = k
        rows = item["matrix"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise KnotsigError(f"{where} ({name}): 'matrix' must be a list of rows")
        for r in rows:
            for c in r:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise KnotsigError(f"{where} ({name}): matrix entries must be integers")
        try:
            V = SeifertMatrix(rows)
        except SeifertInvariantError as e:
            raise SeifertInvariantError(f"{where} ({name}): {e}") from e
        out.append((name, V))
    return out


def write_report(path, report, digits: int = 6) -> None:
    """Serialize a bound report deterministically (stable key order, no floats).

    Accepts either a BoundReport or an already-built report dict.
    """
    if not isinstance(report, dict):
        from .bounds import report_to_dict

        report = report_to_dict(report, digits)
    with open(path, "w") as f:
        f.write(render_report_json(report))


def render_report_json(report_dict: dict) -> str:
    return json.dumps(report_dict, indent=2, ensure_ascii=False) + "\n"
