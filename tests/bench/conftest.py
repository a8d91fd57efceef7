"""Helpers shared by the benchmark-table and gate tests."""

import copy
import json
from pathlib import Path
from typing import Any, Dict

from repro.bench.table import BenchSpec, HardCheck, lookup

ROOT = Path(__file__).resolve().parents[2]


def committed(spec: BenchSpec) -> Dict[str, Any]:
    """The artifact committed at the repository root for ``spec``."""
    return json.loads((ROOT / spec.artifact).read_text())


def with_value(result: Dict[str, Any], path: str, value: Any) -> Dict[str, Any]:
    """A deep copy of ``result`` with dotted ``path`` set to ``value``."""
    changed = copy.deepcopy(result)
    *parents, leaf = path.split(".")
    node = changed
    for part in parents:
        node = node[part]
    node[leaf] = value
    return changed


def violate(result: Dict[str, Any], check: HardCheck) -> Dict[str, Any]:
    """A copy of ``result`` on which exactly the hard ``check`` fails."""
    path, op, limit = check
    bound = lookup(result, limit) if isinstance(limit, str) else limit
    broken = bound - 0.1 if op == ">=" else bound + 1
    return with_value(result, path, broken)
