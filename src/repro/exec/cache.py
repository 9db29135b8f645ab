"""Content-addressed on-disk cache of simulation results.

Every completed :class:`~repro.exec.point.RunPoint` is stored under a
key that is a SHA-256 over *everything the result depends on*:

- the kernel's optimized IR (loops, bounds, transformation annotations,
  statements, array shapes — see :func:`ir_fingerprint`),
- the full :class:`~repro.cpu.system.SystemConfig` (canonicalized
  field-by-field, nested dataclasses and enums included),
- the resolved DL1 :class:`~repro.tech.params.MemoryTechnology` (and
  the IL1's, when overridden) — so editing a latency in
  ``tech/params.py`` invalidates exactly the affected entries,
- the optimization level, dataset size and fault-injection seed,
- a fingerprint of the simulator's own source code
  (:func:`code_fingerprint`) plus :data:`CACHE_FORMAT_VERSION`.

Unchanged points replay instantly from disk; any change to an input
changes the key, so stale entries are never *read* — they are simply
orphaned (``repro``'s cache needs no invalidation logic beyond the key).
Entries are written atomically (temp file + ``os.replace``), so a sweep
killed mid-write never leaves a readable half-entry and simply resumes
from the completed points on the next run.

The entry format and versioning policy are documented in
``docs/ARCHITECTURE.md`` §2.8.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from ..cpu.model import RunResult
from ..workloads.ir import Loop, Program, Statement
from .point import RunPoint, build_point_program

#: Version of the on-disk entry schema.  Bumped whenever the entry
#: layout or the key material changes incompatibly; the version is part
#: of the hashed material, so old entries are orphaned, never misread.
CACHE_FORMAT_VERSION = 3

#: Integer-keyed ``RunResult`` dicts, stored as pair lists (JSON object
#: keys are strings).
_INT_KEYED = ("load_latency_histogram", "dl1_line_writes")

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory stale/corrupt entries are moved into (never read back).
QUARANTINE_DIR = ".quarantine"

_code_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` source file of the ``repro`` package.

    Any edit to the simulator changes this value and therefore every
    cache key — the conservative interpretation of "code version" that
    guarantees a cache hit is always a faithful replay.  Computed once
    per process (~250 files, a few milliseconds) and memoised.

    Returns
    -------
    str
        Hex digest covering relative path + content of each source file,
        in sorted path order.
    """
    global _code_fingerprint_cache
    if _code_fingerprint_cache is not None:
        return _code_fingerprint_cache
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def canonicalize(obj: Any) -> Any:
    """JSON-ready canonical form of configuration values.

    Dataclasses become ``{"__type__": name, fields...}`` mappings, enums
    their ``ClassName.MEMBER`` string, tuples become lists; mapping keys
    are stringified.  The result is deterministic, so hashing its sorted
    JSON dump is stable across processes and sessions.

    Parameters
    ----------
    obj : Any
        A configuration object (possibly nested).

    Returns
    -------
    Any
        A structure of dicts/lists/strings/numbers/None only.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonicalize(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, float):
        # repr round-trips exactly and renders inf/nan portably.
        return repr(obj) if obj != obj or obj in (float("inf"), float("-inf")) else obj
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def ir_fingerprint(program: Program) -> List[Any]:
    """Canonical structure of a kernel's (optimized) IR.

    Captures everything the interpreter consults: loop variables and
    bounds, transformation annotations (vector width, unroll factor,
    prefetch directives), statement reads/writes/flops, and the arrays'
    shapes and element sizes.  Two programs with the same fingerprint
    materialize the same trace.

    Parameters
    ----------
    program : Program
        The kernel IR, after optimization.

    Returns
    -------
    list
        A nested JSON-ready structure; changing any kernel definition or
        transformation output changes it.
    """

    def node(n: Union[Loop, Statement]) -> List[Any]:
        if isinstance(n, Loop):
            return [
                "loop",
                n.var.name,
                repr(n.lower),
                repr(n.upper),
                n.vector_width,
                n.unroll,
                [[repr(ref), int(dist)] for ref, dist in n.prefetch],
                bool(n.permutable),
                [node(child) for child in n.body],
            ]
        return [
            "stmt",
            [repr(r) for r in n.reads],
            [repr(w) for w in n.writes],
            n.flops,
            n.overhead_ops,
            n.label,
        ]

    arrays = [[a.name, list(a.shape), a.elem_bytes] for a in program.arrays]
    return [program.name, arrays, [node(n) for n in program.body]]


def key_material_of(point: RunPoint) -> Dict[str, Any]:
    """The exact fields hashed into a point's cache key.

    Parameters
    ----------
    point : RunPoint
        The simulation point.

    Returns
    -------
    dict
        Mapping with keys ``format``, ``code``, ``kernel``, ``size``,
        ``level``, ``seed``, ``ir``, ``config``, ``tech`` and
        ``il1_tech`` (see ``docs/ARCHITECTURE.md`` §2.8 for the policy).
    """
    config = point.config
    il1_tech = None
    if config.il1_technology is not None:
        hierarchy = config.resolved_hierarchy()
        il1_tech = canonicalize(hierarchy.il1)
    return {
        "format": CACHE_FORMAT_VERSION,
        "code": code_fingerprint(),
        "kernel": point.kernel,
        "size": point.size.name,
        "level": point.level.name,
        "seed": config.reliability.seed if config.reliability is not None else None,
        "ir": ir_fingerprint(build_point_program(point)),
        "config": canonicalize(config),
        "tech": canonicalize(config.resolved_technology()),
        "il1_tech": il1_tech,
    }


#: Per-process memo of :func:`cache_key_of` by ``(id(config),
#: *workload)``.  Hashing a key costs a few hundred microseconds and a
#: figure asks for each point's key several times (runner memo, engine
#: lookup).  Configurations are immutable, so the object stands for its
#: content; each entry keeps its configuration alive, so an id is never
#: reused while its entry exists.
_KEYS: Dict[tuple, Tuple[Any, str]] = {}


def cache_key_of(point: RunPoint) -> str:
    """Content-addressed cache key of a point.

    Parameters
    ----------
    point : RunPoint
        The simulation point.

    Returns
    -------
    str
        SHA-256 hex digest of the sorted-JSON dump of
        :func:`key_material_of`, memoised per configuration object and
        workload.
    """
    request = (id(point.config),) + point.workload
    if request not in _KEYS:
        blob = json.dumps(key_material_of(point), sort_keys=True)
        _KEYS[request] = (point.config, hashlib.sha256(blob.encode()).hexdigest())
    return _KEYS[request][1]


def encode_result(result: RunResult) -> Dict[str, Any]:
    """JSON-ready dict of a :class:`RunResult` (exact float round-trip).

    Parameters
    ----------
    result : RunResult
        A completed run.

    Returns
    -------
    dict
        All ``RunResult`` fields; the integer-keyed load-latency
        histogram and DL1 line-write counts are stored as sorted
        ``[key, count]`` pair lists.
    """
    out = dataclasses.asdict(result)
    for name in _INT_KEYED:
        out[name] = sorted([int(k), int(v)] for k, v in getattr(result, name).items())
    return out


def decode_result(data: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`encode_result` output.

    Parameters
    ----------
    data : dict
        The stored ``result`` mapping of a cache entry.

    Returns
    -------
    RunResult
        Equal (``==``) to the instance that was encoded: Python's JSON
        float serialisation round-trips exactly, so cached replays are
        bit-identical to fresh runs.
    """
    data = dict(data)
    for name in _INT_KEYED:
        data[name] = {int(k): int(v) for k, v in data[name]}
    return RunResult(**data)


@dataclasses.dataclass
class CacheLookup:
    """Outcome of one :meth:`RunCache.lookup`.

    Attributes
    ----------
    status : str
        ``"hit"`` (result replayed), ``"miss"`` (no entry on disk),
        ``"stale"`` (entry of a different format version) or
        ``"corrupt"`` (unreadable or undecodable entry).  Everything
        except ``"hit"`` recomputes — but stale and corrupt entries are
        anomalies worth surfacing, not ordinary misses.
    result : RunResult or None
        The replayed result on a hit, else ``None``.
    """

    status: str
    result: Optional[RunResult] = None


class RunCache:
    """Content-addressed store of completed runs under one directory.

    Entries live at ``<root>/<key[:2]>/<key>.json`` — two-level fan-out
    keeps directories small on big sweeps.  Reads tolerate missing,
    truncated or corrupt files (they count as misses, with the miss
    *kind* reported through :meth:`lookup` so the engine can count and
    log stale/corrupt entries instead of hiding them); writes are
    atomic, so an interrupted sweep resumes from its completed points.

    Reads never *heal* silently: stale and corrupt entries are moved to
    a ``.quarantine/`` subdirectory by :meth:`quarantine` (the engine
    calls it when a lookup classifies one) together with a
    ``<key>.reason.txt`` note, so the damaged bytes survive for
    diagnosis while the live tree stays clean.  Opening a cache sweeps
    ``*.tmp`` droppings a previous writer leaked between ``mkstemp``
    and ``os.replace`` (an interrupt or a Windows-style sharing
    failure); only files older than the open are touched, so concurrent
    writers are never raced.

    Parameters
    ----------
    root : str or pathlib.Path
        Cache directory (created lazily on first store).
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self._opened_at = time.time()
        self._sweep_orphans()

    def _sweep_orphans(self) -> None:
        """Remove ``*.tmp`` files leaked by interrupted earlier writers."""
        if not self.root.exists():
            return
        for tmp in self.root.glob("*/*.tmp"):
            try:
                if tmp.stat().st_mtime < self._opened_at:
                    tmp.unlink()
            except OSError:
                continue  # vanished underneath us, or unreadable: leave it

    def path_for(self, key: str) -> pathlib.Path:
        """Entry path for a cache key.

        Parameters
        ----------
        key : str
            A :func:`cache_key_of` digest.

        Returns
        -------
        pathlib.Path
            ``<root>/<key[:2]>/<key>.json``.
        """
        return self.root / key[:2] / f"{key}.json"

    def lookup(self, key: str) -> CacheLookup:
        """Load the entry under ``key``, classifying the outcome.

        Parameters
        ----------
        key : str
            A :func:`cache_key_of` digest.

        Returns
        -------
        CacheLookup
            ``"hit"`` with the replayed result; ``"miss"`` when no entry
            file exists; ``"stale"`` when an entry exists but carries a
            different :data:`CACHE_FORMAT_VERSION`; ``"corrupt"`` when
            the file is unreadable, not valid JSON, or its ``result``
            payload fails to decode.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return CacheLookup("miss")
        try:
            entry = json.loads(text)
        except ValueError:
            return CacheLookup("corrupt")
        if not isinstance(entry, dict):
            return CacheLookup("corrupt")
        if entry.get("format") != CACHE_FORMAT_VERSION:
            return CacheLookup("stale")
        try:
            return CacheLookup("hit", decode_result(entry["result"]))
        except (KeyError, TypeError, ValueError):
            return CacheLookup("corrupt")

    def get(self, key: str) -> Optional[RunResult]:
        """Load the result stored under ``key``, if any.

        Parameters
        ----------
        key : str
            A :func:`cache_key_of` digest.

        Returns
        -------
        RunResult or None
            The replayed result, or ``None`` on a miss (including
            unreadable/corrupt entries and format-version mismatches —
            use :meth:`lookup` to distinguish the miss kinds).
        """
        return self.lookup(key).result

    def put(self, key: str, result: RunResult, material: Optional[Dict[str, Any]] = None) -> None:
        """Store ``result`` under ``key`` atomically.

        Parameters
        ----------
        key : str
            A :func:`cache_key_of` digest.
        result : RunResult
            The completed run to persist.
        material : dict, optional
            The key material, stored alongside the result for
            debuggability (``repro``'s code never reads it back).

        Raises
        ------
        OSError
            When the entry cannot be written (disk full, permissions).
            The engine treats the first such error as a signal to
            degrade the sweep to cache-off mode.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "material": material,
            "result": encode_result(result),
        }
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(entry, f, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            # A failed replace with a readable entry already in place
            # means a concurrent writer of the same key won the race —
            # the keys are content-addressed, so their entry is ours.
            if isinstance(exc, OSError) and self.lookup(key).status == "hit":
                return
            raise

    def clear(self) -> None:
        """Delete every live entry, then the directories left empty.

        Never removes ``root`` recursively: files the cache did not
        write, and the directories holding them, stay.  Failures are
        ignored — a leftover entry is only a stale checkpoint.
        """
        directories = set()
        for entry in self.entries():
            if entry == self.path_for(entry.stem):
                directories.add(entry.parent)
                try:
                    entry.unlink()
                except OSError:
                    pass
        for directory in sorted(directories) + [self.root]:
            try:
                directory.rmdir()  # only once empty
            except OSError:
                pass

    def quarantine(self, key: str, reason: str) -> Optional[pathlib.Path]:
        """Move a damaged entry into ``.quarantine/`` with a reason file.

        Parameters
        ----------
        key : str
            A :func:`cache_key_of` digest whose entry classified stale
            or corrupt.
        reason : str
            One-line explanation written to ``<key>.reason.txt`` next to
            the moved entry.

        Returns
        -------
        pathlib.Path or None
            The quarantined entry's new path, or ``None`` when the
            entry could not be moved (already gone, or the quarantine
            directory is unwritable) — never an exception: quarantine
            is best-effort healing, the recompute happens regardless.
        """
        source = self.path_for(key)
        target_dir = self.root / QUARANTINE_DIR
        target = target_dir / f"{key}.json"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(source, target)
            (target_dir / f"{key}.reason.txt").write_text(reason + "\n")
        except OSError:
            return None
        return target

    def quarantined(self) -> List[pathlib.Path]:
        """All entry files currently held in ``.quarantine/``.

        Returns
        -------
        list of pathlib.Path
            Paths of every quarantined ``*.json`` entry.
        """
        return sorted((self.root / QUARANTINE_DIR).glob("*.json"))

    def entries(self) -> List[pathlib.Path]:
        """All live entry files currently in the cache.

        Returns
        -------
        list of pathlib.Path
            Paths of every ``*.json`` entry under the root, quarantined
            entries excluded (``Path.glob`` *does* descend into
            dot-directories, so the exclusion is explicit).
        """
        if not self.root.exists():
            return []
        return sorted(
            p for p in self.root.glob("*/*.json") if p.parent.name != QUARANTINE_DIR
        )
