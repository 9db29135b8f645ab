"""Run manifests: the provenance record of what produced a sweep's results.

A manifest is one JSON document written next to a sweep's telemetry
(``manifest.json``) answering, for every simulation point, *what code,
configuration, technology parameters and seed produced this number* —
the record a design-space study needs before its results can be trusted
or reproduced:

- the package version and the whole-source :func:`~repro.exec.cache.
  code_fingerprint` (the same value hashed into every cache key);
- host information (platform, Python, hostname, cpu count);
- the engine configuration, its final :class:`~repro.exec.engine.
  ExecStats` (a view of the metrics registry) and the full
  metrics-registry snapshot;
- per point: label, kernel, configuration front-end/technology,
  optimization level, dataset size, fault seed, content-addressed cache
  key, hit/run status, executing worker pid and wall seconds;
- the resolved technology parameter sets the points used, canonicalized
  exactly like the cache-key material.

Manifests validate against :data:`MANIFEST_SCHEMA` (a small, dependency
-free subset of JSON Schema) both when written and in the test suite,
so the format is load-bearing, not decorative.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Union

#: Version of the manifest document layout.
MANIFEST_FORMAT_VERSION = 1

#: File name a manifest is written to inside a telemetry directory.
MANIFEST_FILENAME = "manifest.json"

#: Subset-of-JSON-Schema description the validator enforces: ``type``,
#: ``required``, ``properties``, ``items`` and ``enum`` keywords only.
MANIFEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "format",
        "created",
        "command",
        "package",
        "code_fingerprint",
        "host",
        "engine",
        "metrics",
        "technologies",
        "points",
    ],
    "properties": {
        "format": {"type": "integer"},
        "created": {"type": "string"},
        "command": {"type": "string"},
        "argv": {"type": "array", "items": {"type": "string"}},
        "package": {
            "type": "object",
            "required": ["name", "version"],
            "properties": {
                "name": {"type": "string"},
                "version": {"type": "string"},
            },
        },
        "code_fingerprint": {"type": "string"},
        "host": {
            "type": "object",
            "required": ["platform", "python", "hostname", "pid"],
            "properties": {
                "platform": {"type": "string"},
                "python": {"type": "string"},
                "hostname": {"type": "string"},
                "pid": {"type": "integer"},
                "cpu_count": {"type": "integer"},
            },
        },
        "engine": {
            "type": "object",
            "required": ["jobs", "cache_dir", "stats"],
            "properties": {
                "jobs": {"type": "integer"},
                "cache_dir": {"type": ["string", "null"]},
                "stats": {"type": "object"},
            },
        },
        "metrics": {"type": "object"},
        "technologies": {"type": "object"},
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "label",
                    "kernel",
                    "frontend",
                    "technology",
                    "level",
                    "size",
                    "seed",
                    "cache_key",
                    "status",
                    "worker_pid",
                    "wall_s",
                ],
                "properties": {
                    "label": {"type": "string"},
                    "kernel": {"type": "string"},
                    "frontend": {"type": "string"},
                    "technology": {"type": "string"},
                    "level": {"type": "string"},
                    "size": {"type": "string"},
                    "seed": {"type": ["integer", "null"]},
                    "cache_key": {"type": "string"},
                    "status": {"enum": ["hit", "journal", "run", "failed"]},
                    "worker_pid": {"type": "integer"},
                    "wall_s": {"type": "number"},
                    "start_s": {"type": "number"},
                    "cycles": {"type": "number"},
                },
            },
        },
        "failures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "kernel", "cache_key", "kind", "attempts"],
                "properties": {
                    "label": {"type": "string"},
                    "kernel": {"type": "string"},
                    "cache_key": {"type": "string"},
                    "kind": {"enum": ["error", "timeout", "crash", "poison"]},
                    "attempts": {"type": "integer"},
                    "exception": {"type": "string"},
                    "message": {"type": "string"},
                    "traceback": {"type": "string"},
                    "worker_pid": {"type": "integer"},
                },
            },
        },
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _check(value: Any, schema: Dict[str, Any], where: str) -> None:
    """Recursive worker of :func:`validate_manifest`."""
    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        ok = False
        for name in names:
            python_type = _TYPES[name]
            if isinstance(value, python_type) and not (
                name in ("integer", "number") and isinstance(value, bool)
            ):
                ok = True
                break
        if not ok:
            raise ValueError(f"{where}: expected {'/'.join(names)}, got {type(value).__name__}")
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"{where}: {value!r} not one of {schema['enum']}")
    if isinstance(value, dict):
        for field in schema.get("required", ()):
            if field not in value:
                raise ValueError(f"{where}: missing required field {field!r}")
        for field, sub in schema.get("properties", {}).items():
            if field in value:
                _check(value[field], sub, f"{where}.{field}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{i}]")


def validate_manifest(doc: Dict[str, Any]) -> None:
    """Validate a manifest document against :data:`MANIFEST_SCHEMA`.

    Parameters
    ----------
    doc : dict
        A manifest as built by :func:`build_manifest` or loaded from
        disk.

    Raises
    ------
    ValueError
        Naming the offending path on the first violation.
    """
    _check(doc, MANIFEST_SCHEMA, "manifest")
    if doc["format"] != MANIFEST_FORMAT_VERSION:
        raise ValueError(
            f"manifest.format: expected {MANIFEST_FORMAT_VERSION}, got {doc['format']!r}"
        )


def build_manifest(
    command: str,
    engine: "ExecutionEngine",
    argv: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Assemble the provenance manifest of one engine's work.

    Parameters
    ----------
    command : str
        The CLI command (experiment name) that drove the sweep.
    engine : ExecutionEngine
        The engine whose point records, stats and metrics to capture.
        Point records are only collected while telemetry is enabled.
    argv : list of str, optional
        The raw command line, for the record.

    Returns
    -------
    dict
        A schema-valid manifest document.
    """
    from .. import __version__
    from ..exec.cache import code_fingerprint

    stats = engine.stats
    doc: Dict[str, Any] = {
        "format": MANIFEST_FORMAT_VERSION,
        "created": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "argv": list(argv) if argv is not None else [],
        "package": {"name": "repro", "version": __version__},
        "code_fingerprint": code_fingerprint(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "hostname": platform.node(),
            "pid": os.getpid(),
            "cpu_count": os.cpu_count() or 1,
        },
        "engine": {
            "jobs": engine.jobs,
            "cache_dir": str(engine.cache.root) if engine.cache is not None else None,
            "stats": stats.as_dict(),
        },
        "metrics": engine.metrics.snapshot(),
        "technologies": dict(sorted(engine.technologies.items())),
        "points": list(engine.point_records),
        "failures": [failure.as_dict() for failure in getattr(engine, "failures", [])],
    }
    validate_manifest(doc)
    return doc


def write_manifest(doc: Dict[str, Any], directory: Union[str, pathlib.Path]) -> pathlib.Path:
    """Validate and write ``<directory>/manifest.json``.

    Parameters
    ----------
    doc : dict
        The manifest document.
    directory : str or pathlib.Path
        Telemetry directory (created if missing).

    Returns
    -------
    pathlib.Path
        The written file.
    """
    validate_manifest(doc)
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / MANIFEST_FILENAME
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Load and validate a manifest from disk.

    Parameters
    ----------
    path : str or pathlib.Path
        Either the ``manifest.json`` file or the telemetry directory
        containing it.

    Returns
    -------
    dict
        The validated manifest.

    Raises
    ------
    ValueError
        If the file is not valid JSON or fails schema validation.
    OSError
        If the file cannot be read.
    """
    p = pathlib.Path(path)
    if p.is_dir():
        p = p / MANIFEST_FILENAME
    doc = json.loads(p.read_text())
    validate_manifest(doc)
    return doc


def render_manifest(doc: Dict[str, Any]) -> str:
    """Human-readable summary of a manifest, for ``repro status``.

    Parameters
    ----------
    doc : dict
        A validated manifest.

    Returns
    -------
    str
        A few aligned lines: provenance, engine counters, worker
        utilization, the executed points' host time by stage (summed
        over every process that ran them) and their memory.
    """
    stats = doc["engine"]["stats"]
    points = doc["points"]
    workers = sorted({p["worker_pid"] for p in points if p["status"] == "run"})
    elapsed = stats.get("elapsed", 0.0)
    busy = stats.get("busy", 0.0)
    jobs = doc["engine"]["jobs"]
    utilization = 100.0 * busy / (elapsed * jobs) if elapsed > 0 and jobs else 0.0
    lines = [
        f"command: {doc['command']} (repro {doc['package']['version']})",
        f"created: {doc['created']} on {doc['host']['hostname']} "
        f"({doc['host']['platform']}, python {doc['host']['python']})",
        f"code fingerprint: {doc['code_fingerprint'][:16]}…",
        f"points: {stats['points']} — {stats['hits']} hits, {stats['executed']} executed, "
        f"{stats['stale']} stale, {stats['corrupt']} corrupt cache entries",
        f"workers: {len(workers) or 1} process(es), jobs={jobs}, "
        f"utilization {utilization:.0f}% over {elapsed:.1f}s",
    ]
    if stats.get("executed", 0) and "replay_s" in stats:
        lines.append(
            f"host time: encode {stats['encode_s']:.2f}s "
            f"({stats['traces_encoded']} traces), build {stats['build_s']:.2f}s, "
            f"warm-up {stats['warm_s']:.2f}s, replay {stats['replay_s']:.2f}s, "
            f"{stats['events_eliminated']} events eliminated"
        )
    if stats.get("executed", 0) and "peak_rss_mb" in stats:
        lines.append(
            f"memory: peak RSS {stats['peak_rss_mb']:.1f} MB (largest executing process), "
            f"{stats['trace_bytes'] / 1e6:.2f} MB of trace columns encoded"
        )
    resilience = [
        (label, stats.get(key, 0))
        for label, key in (
            ("journal replays", "journal_hits"),
            ("retries", "retries"),
            ("timeouts", "timeouts"),
            ("worker restarts", "worker_restarts"),
            ("quarantined", "quarantined"),
            ("failed", "failed"),
        )
        if stats.get(key, 0)
    ]
    if resilience:
        lines.append(
            "resilience: " + ", ".join(f"{value} {label}" for label, value in resilience)
        )
    for failure in doc.get("failures", []):
        what = failure.get("message", "")
        if failure.get("exception"):
            what = f"{failure['exception']}: {what}"
        lines.append(
            f"failed: {failure['label']} — {failure['kind']} "
            f"after {failure['attempts']} attempt(s) — {what}"
        )
    return "\n".join(lines)
