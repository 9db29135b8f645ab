"""Parallel experiment execution with a content-addressed run cache.

The paper's evaluation — and every sweep this repository adds on top —
is hundreds of independent ``(kernel, configuration, optimization
level, seed)`` simulations.  ``repro.exec`` turns that from a serial
loop into a scheduled batch:

- :mod:`repro.exec.point` defines :class:`RunPoint` (one simulation)
  and the pure worker function :func:`execute_point`;
- :mod:`repro.exec.cache` keys every point by a SHA-256 over its kernel
  IR, full system configuration, technology parameters, optimization
  level, seed and the simulator's own code fingerprint, and stores
  results as atomic JSON entries (:class:`RunCache`);
- :mod:`repro.exec.engine` replays cache hits instantly and hands the
  cache-missing points to one scheduler (:class:`ExecutionEngine`, CLI
  ``--jobs N``) with deterministic, input-ordered results, storing
  each completion in the cache — or, under ``--no-cache``, in a journal
  :class:`RunCache` rooted at :data:`DEFAULT_JOURNAL_DIR` — so
  ``SIGINT``/``SIGTERM``-interrupted sweeps resume;
- :mod:`repro.exec.resilience` supplies that scheduler and its failure
  machinery: the :class:`Supervisor` (in-process for ``jobs=1``, else
  a crash-surviving worker pool), per-point timeouts, retry with
  exponential backoff (:class:`RetryPolicy`), poison-point quarantine,
  structured :class:`PointFailure` records, and the :class:`FaultPlan`
  chaos injection the resilience tests drive.

The engine plugs into
:class:`~repro.experiments.runner.ExperimentRunner` (``engine=`` or the
CLI's ``--jobs``/``--cache-dir``/``--no-cache`` flags); cached, parallel
and inline executions of the same point are bit-identical.  See
``docs/EXPERIMENTS_GUIDE.md`` for the cookbook, ``docs/ARCHITECTURE.md``
§2.8 for the cache design and §2.12 for the failure model.
"""

from .cache import (
    CACHE_FORMAT_VERSION,
    DEFAULT_CACHE_DIR,
    QUARANTINE_DIR,
    CacheLookup,
    RunCache,
    cache_key_of,
    code_fingerprint,
    ir_fingerprint,
    key_material_of,
)
from .engine import BatchOutcome, ExecStats, ExecutionEngine, make_engine
from .point import RunPoint, execute_point
from .resilience import (
    DEFAULT_JOURNAL_DIR,
    FaultPlan,
    PointFailure,
    RetryPolicy,
    Supervisor,
    estimate_point_cost,
)

__all__ = [
    "BatchOutcome",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_JOURNAL_DIR",
    "CacheLookup",
    "ExecStats",
    "ExecutionEngine",
    "FaultPlan",
    "PointFailure",
    "QUARANTINE_DIR",
    "RetryPolicy",
    "RunCache",
    "RunPoint",
    "Supervisor",
    "cache_key_of",
    "code_fingerprint",
    "estimate_point_cost",
    "execute_point",
    "ir_fingerprint",
    "key_material_of",
    "make_engine",
]
