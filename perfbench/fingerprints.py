"""Result fingerprints: what a correct run of a workload and seed
produces, committed in ``fingerprints.json`` and checked on every run.

Counts must match exactly.  Floats must match within
:data:`REL_TOLERANCE`: equivalent allocation paths already differ at
about 1e-15, so exact float equality would reject correct runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

FINGERPRINTS_PATH = Path(__file__).resolve().parent / "fingerprints.json"
EXACT_FIELDS = ("completed", "unfinished", "allocations", "total_switches")
FLOAT_FIELDS = ("network_throughput", "mean_fct", "fct_p99")
REL_TOLERANCE = 1e-9


def fingerprint(result) -> Dict[str, object]:
    return {
        "completed": result.completed_count,
        "unfinished": result.unfinished,
        "allocations": result.allocations,
        "total_switches": result.total_switches,
        "network_throughput": result.network_throughput,
        "mean_fct": result.mean_fct(),
        "fct_p99": result.fct_quantile(0.99),
    }


def mismatches(expected: Dict[str, object], actual: Dict[str, object]) -> List[str]:
    """Fields where *actual* departs from *expected*; empty when they agree."""
    found = []
    for field in EXACT_FIELDS:
        if expected[field] != actual[field]:
            found.append(f"{field}: expected {expected[field]}, got {actual[field]}")
    for field in FLOAT_FIELDS:
        want, got = expected[field], actual[field]
        if want is None or got is None:
            agree = want is got
        else:
            agree = abs(got - want) <= REL_TOLERANCE * max(abs(want), 1e-300)
        if not agree:
            found.append(f"{field}: expected {want!r}, got {got!r}")
    return found


def load_committed(path: Path = FINGERPRINTS_PATH) -> Dict[str, Dict[str, dict]]:
    """``{workload: {seed: fingerprint}}`` ({} when the file is absent)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def committed_for(workload: str, seed: int, path: Path = FINGERPRINTS_PATH) -> Optional[dict]:
    return load_committed(path).get(workload, {}).get(str(seed))


def record(workload: str, seed: int, value: dict, path: Path = FINGERPRINTS_PATH) -> None:
    """Store *value* as the committed fingerprint of (workload, seed)."""
    committed = load_committed(path)
    committed.setdefault(workload, {})[str(seed)] = value
    for seeds in committed.values():
        ordered = sorted(seeds.items(), key=lambda item: int(item[0]))
        seeds.clear()
        seeds.update(ordered)
    path.write_text(json.dumps(committed, indent=1, sort_keys=False) + "\n")
