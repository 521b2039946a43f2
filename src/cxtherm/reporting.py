"""CSV/JSON emission with stable formatting for replayable experiments.

Floats are canonically rounded to 12 significant digits before writing, so a
CSV table and its JSON mirror carry identical values; every table includes
the seed, the unit convention, and a short hash of the configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

FLOAT_FMT = "%.12g"


def canonical_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        if math.isinf(v) or math.isnan(v):
            return str(v)
        return float(FLOAT_FMT % v) + 0.0  # drops negative zero
    return str(v)


def fmt_value(v) -> str:
    v = canonical_value(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return FLOAT_FMT % v
    return str(v)


def config_hash(config: Mapping) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha1(canon.encode()).hexdigest()[:12]


def _augment(rows: Sequence[Mapping], meta: Mapping) -> list[dict]:
    return [{**meta, **row} for row in rows]


def write_csv(path: str | Path, rows: Sequence[Mapping], columns: Sequence[str], meta: Mapping) -> None:
    """Header row carries the metadata columns (units, seed, config hash)."""
    full_rows = _augment(rows, meta)
    cols = list(meta.keys()) + [c for c in columns if c not in meta]
    lines = [",".join(cols)]
    for row in full_rows:
        lines.append(",".join(fmt_value(row.get(c, "")) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: str | Path, rows: Sequence[Mapping], meta: Mapping) -> None:
    payload = {
        "meta": {k: canonical_value(v) for k, v in meta.items()},
        "rows": [{k: canonical_value(v) for k, v in row.items()} for row in rows],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit(rows: Sequence[Mapping], meta: Mapping, path: str | Path) -> None:
    """JSON for a path ending in .json, CSV with the first row's columns otherwise."""
    if str(path).endswith(".json"):
        write_json(path, rows, meta)
    else:
        write_csv(path, rows, list(rows[0]), meta)
