"""Schema-versioned JSON result store with content-hashed run keys.

Every campaign run is identified by a *run key*: the SHA-256 of the
canonical JSON encoding of ``{schema_version, scenario, params}``.
Identical scenario + parameters therefore map to the same key, which is
what makes re-runs cache hits; bumping :data:`SCHEMA_VERSION` (on any
change to the record layout or to result semantics) invalidates every
existing record at once.

Records land under ``<root>/<scenario>/<run_key>.json`` and are written
deterministically (sorted keys, fixed indentation, trailing newline),
so the same run produces byte-identical files — a property the test
suite asserts.  A record is written to a temporary file beside it and
renamed into place, so a crash mid-write leaves the previous record
(or none), never a truncated one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from repro.errors import ConfigurationError

logger = logging.getLogger(__name__)

#: Bump on any change to the record layout or result semantics.
SCHEMA_VERSION = 1

#: Default result directory, relative to the working directory.
DEFAULT_RESULTS_DIR = "campaign-results"


def canonical_json(payload: Any) -> str:
    """Canonical (sorted, compact) JSON encoding used for hashing."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def run_key(scenario: str, params: Mapping[str, Any]) -> str:
    """Content hash identifying one (scenario, params) run."""
    identity = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "params": dict(params),
    }
    try:
        encoded = canonical_json(identity)
    except TypeError as exc:
        raise ConfigurationError(
            f"parameters for scenario {scenario!r} are not "
            f"JSON-serialisable: {exc}"
        ) from exc
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


class ResultStore:
    """Filesystem-backed store of campaign run records."""

    def __init__(self, root: Union[str, Path] = DEFAULT_RESULTS_DIR):
        self.root = Path(root)

    def path_for(self, scenario: str, key: str) -> Path:
        return self.root / scenario / f"{key}.json"

    def load(
        self, scenario: str, params: Mapping[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Return the cached record for a run, or ``None``.

        Records whose ``schema_version`` does not match the current one
        are treated as absent (stale cache), not as errors.
        """
        path = self.path_for(scenario, run_key(scenario, params))
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        if record.get("schema_version") != SCHEMA_VERSION:
            return None
        return record

    def save(
        self,
        scenario: str,
        params: Mapping[str, Any],
        result: Mapping[str, Any],
    ) -> Path:
        """Persist one run record; returns the file path."""
        key = run_key(scenario, params)
        record = {
            "schema_version": SCHEMA_VERSION,
            "run_key": key,
            "scenario": scenario,
            "params": dict(params),
            "result": dict(result),
        }
        try:
            encoded = json.dumps(record, sort_keys=True, indent=2) + "\n"
        except TypeError as exc:
            raise ConfigurationError(
                f"scenario {scenario!r} produced a non-JSON-serialisable "
                f"result: {exc}"
            ) from exc
        path = self.path_for(scenario, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Hidden and not ``*.json``, so readers never glob it up.
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(temp, "w") as handle:
                handle.write(encoded)
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        return path

    def iter_records(
        self, scenario: Optional[str] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield stored records (current schema only), sorted by path.

        Damaged files — unreadable, truncated/corrupt JSON, or JSON
        that is not a record object — are skipped with a warning
        naming the file, logged on ``repro.campaign.store``, so
        ``campaign report`` over a partially-written store degrades
        instead of crashing.  Records from a different schema version are skipped
        silently: they are a stale cache, not damage.
        """
        if not self.root.exists():
            return
        pattern = f"{scenario}/*.json" if scenario else "*/*.json"
        for path in sorted(self.root.glob(pattern)):
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                logger.warning("skipping corrupt campaign record %s: %s", path, exc)
                continue
            if not isinstance(record, dict):
                logger.warning(
                    "skipping malformed campaign record %s: expected a JSON "
                    "object, got %s",
                    path,
                    type(record).__name__,
                )
                continue
            if record.get("schema_version") != SCHEMA_VERSION:
                continue
            yield record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(root={str(self.root)!r})"
