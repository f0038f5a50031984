"""The manifold-definition file format: a single JSON document.

Expression strings use the same infix grammar that the engine evaluates, so
files are diff-able fixtures and round-trip exactly.  The metric grid is
square; the lower triangle is required and the upper triangle may be given
as ``null`` to be mirrored, otherwise it must match the mirror entry
structurally.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .charts import (
    Chart,
    ChartError,
    Constraint,
    ContactStructure,
    TensorField,
)
from .expressions import ExpressionError, parse_expression, to_source
from .sewing import SewnManifold

FORMAT_TAG = "manifold-definition/1"


class ManifoldFileError(ValueError):
    """The file does not describe a well-formed manifold definition."""


def structure_to_dict(struct: ContactStructure, provenance: dict | None = None) -> dict:
    n = struct.dim
    doc: dict = {
        "format": FORMAT_TAG,
        "name": struct.name,
        "coordinates": list(struct.chart.coords),
        "adapted_coordinate": struct.chart.adapted_name,
        "domain": [c.source() for c in struct.chart.constraints],
        "metric": [
            [to_source(struct.metric.components[i][j]) for j in range(n)] for i in range(n)
        ],
        "phi": [[to_source(struct.phi.components[i][j]) for j in range(n)] for i in range(n)],
        "xi": [to_source(struct.xi.components[i]) for i in range(n)],
        "eta": [to_source(struct.eta.components[i]) for i in range(n)],
    }
    merged = dict(provenance or {})
    if isinstance(struct, SewnManifold):
        merged["sewn"] = {"cell_count": struct.cell_count, "sources": list(struct.sources)}
    if merged:
        doc["provenance"] = merged
    return doc


def dumps(struct: ContactStructure, provenance: dict | None = None) -> str:
    return json.dumps(structure_to_dict(struct, provenance), indent=2, sort_keys=True) + "\n"


def save_manifold(struct: ContactStructure, path: str | Path, provenance: dict | None = None) -> None:
    Path(path).write_text(dumps(struct, provenance), encoding="utf-8")


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _require(doc: dict, key: str):
    if key not in doc:
        raise ManifoldFileError(f"missing required key {key!r}")
    return doc[key]


def _entry_parser(coords: tuple[str, ...]):
    """``parse(src, where)``: the tree of the expression string ``src`` over
    ``coords``, parsed once per distinct string (trees are immutable, so
    components may share one); ``where`` names the entry in an error."""
    trees: dict[str, object] = {}

    def parse(src, where: str):
        if not isinstance(src, str):
            raise ManifoldFileError(f"{where}: expected an expression string, got {src!r}")
        tree = trees.get(src)
        if tree is None:
            try:
                tree = trees[src] = parse_expression(src, coords)
            except ExpressionError as exc:
                raise ManifoldFileError(f"{where}: {exc}") from exc
        return tree

    return parse


def load_manifold(path: str | Path) -> ContactStructure:
    """Load and structurally validate a manifold-definition file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ManifoldFileError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ManifoldFileError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ManifoldFileError(f"{path}: JSON nested too deeply to read") from exc
    if not isinstance(doc, dict):
        raise ManifoldFileError(f"{path}: top level must be an object")
    if doc.get("format", FORMAT_TAG) != FORMAT_TAG:
        raise ManifoldFileError(f"unsupported format {doc.get('format')!r}")
    return structure_from_dict(doc)


def structure_from_dict(doc: dict) -> ContactStructure:
    coords = _require(doc, "coordinates")
    if not isinstance(coords, list) or not coords or not all(isinstance(c, str) for c in coords):
        raise ManifoldFileError("coordinates must be a non-empty list of names")
    coords = tuple(coords)
    n = len(coords)
    adapted = doc.get("adapted_coordinate")
    adapted_index = None
    if adapted is not None:
        if adapted not in coords:
            raise ManifoldFileError(f"adapted coordinate {adapted!r} is not declared")
        adapted_index = coords.index(adapted)
    domain = doc.get("domain", [])
    if not isinstance(domain, list) or not all(isinstance(src, str) for src in domain):
        raise ManifoldFileError("domain must be a list of constraint strings")
    constraints = []
    for src in domain:
        try:
            constraints.append(Constraint.from_source(src, coords))
        except ExpressionError as exc:
            raise ManifoldFileError(f"domain constraint {src!r}: {exc}") from exc
    try:
        chart = Chart(coords, tuple(constraints), adapted_index)
    except ChartError as exc:
        raise ManifoldFileError(str(exc)) from exc

    parse = _entry_parser(coords)  # one per definition: its entries are mostly a few repeated strings
    metric_grid = _load_metric(doc, parse, n)
    phi_grid = _load_square(doc, "phi", parse, n)
    xi_list = _load_vector(doc, "xi", parse, n)
    eta_list = _load_vector(doc, "eta", parse, n)

    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ManifoldFileError(f"name must be a string, got {name!r}")
    kwargs = dict(
        name=name,
        chart=chart,
        metric=TensorField(chart, 0, 2, metric_grid),
        phi=TensorField(chart, 1, 1, phi_grid),
        xi=TensorField(chart, 1, 0, xi_list),
        eta=TensorField(chart, 0, 1, eta_list),
    )
    sewn_info = _sewn_provenance(doc, n)
    if sewn_info:
        return SewnManifold(**kwargs, **sewn_info)
    return ContactStructure(**kwargs)


def _sewn_provenance(doc: dict, n: int) -> dict | None:
    """The ``provenance.sewn`` block as SewnManifold fields, checked against the dimension."""
    provenance = doc.get("provenance") or {}
    if not isinstance(provenance, dict):
        raise ManifoldFileError("provenance must be an object")
    sewn_info = provenance.get("sewn")
    if not sewn_info:
        return None
    if not isinstance(sewn_info, dict):
        raise ManifoldFileError("provenance.sewn must be an object")
    k = sewn_info.get("cell_count")
    if type(k) is not int or 2 * k + 1 != n:
        raise ManifoldFileError(
            f"provenance.sewn.cell_count must be the integer k with dimension 2k+1 = {n}, got {k!r}"
        )
    sources = sewn_info.get("sources", [])
    if not isinstance(sources, list) or not all(isinstance(name, str) for name in sources):
        raise ManifoldFileError("provenance.sewn.sources must be a list of names")
    return {"cell_count": k, "sources": tuple(sources)}


def _require_grid(doc: dict, key: str, n: int) -> list:
    grid = _require(doc, key)
    if not isinstance(grid, list) or len(grid) != n or not all(isinstance(row, list) and len(row) == n
                                                               for row in grid):
        raise ManifoldFileError(f"{key} must be a {n}x{n} grid")
    return grid


def _load_metric(doc: dict, parse, n: int):
    grid = _require_grid(doc, "metric", n)
    parsed = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if grid[i][j] is None:
                raise ManifoldFileError(
                    f"metric[{i}][{j}] (lower triangle) is required"
                )
            parsed[i][j] = parse(grid[i][j], f"metric[{i}][{j}]")
    mismatches = []
    for i in range(n):
        for j in range(i + 1, n):
            if grid[i][j] is None:
                parsed[i][j] = parsed[j][i]
                continue
            upper = parse(grid[i][j], f"metric[{i}][{j}]")
            if upper != parsed[j][i]:
                mismatches.append(
                    f"metric[{i}][{j}] = {grid[i][j]!r} vs metric[{j}][{i}] = {grid[j][i]!r}"
                )
            parsed[i][j] = parsed[j][i]
    if mismatches:
        raise ManifoldFileError("metric is not symmetric: " + "; ".join(mismatches))
    return tuple(tuple(row) for row in parsed)


def _load_square(doc: dict, key: str, parse, n: int):
    grid = _require_grid(doc, key, n)
    return tuple(
        tuple(parse(grid[i][j], f"{key}[{i}][{j}]") for j in range(n))
        for i in range(n)
    )


def _load_vector(doc: dict, key: str, parse, n: int):
    entries = _require(doc, key)
    if not isinstance(entries, list) or len(entries) != n:
        raise ManifoldFileError(f"{key} must be a list of {n} expression strings")
    return tuple(parse(entries[i], f"{key}[{i}]") for i in range(n))
