"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch library failures with a
single ``except`` clause while letting genuine programming errors
(``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A simulator, cache, or experiment was configured inconsistently.

    Examples: a cache whose size is not divisible by its line size, a VWB
    narrower than one cache line, or a bank count that is not a power of
    two.
    """


class SimulationError(ReproError):
    """The simulation reached an internally inconsistent state.

    This indicates a bug in a model (for example, a cache fill for a line
    that is already resident) rather than bad user input.
    """


class InvariantViolation(SimulationError):
    """A sanitizer check found simulator state violating an invariant.

    Raised by :mod:`repro.check` when the shadow model or a structural
    invariant (dirty bit on an invalid line, duplicate tags in a set, an
    unsorted write buffer, ...) disagrees with the live structures.

    Attributes:
        event_index: Index of the last fully-processed trace event when
            the violation was detected (``-1`` when the check ran outside
            event replay, e.g. on a freshly-built or final state).  The
            index is replayable: re-running the same trace prefix
            reproduces the state that failed the check.
    """

    def __init__(self, message: str, event_index: int = -1) -> None:
        super().__init__(message)
        self.event_index = event_index


class SweepFailure(SimulationError):
    """One or more points of a sweep failed terminally.

    Raised by :meth:`repro.exec.engine.ExecutionEngine.run_points` after
    the resilience layer exhausted its retry/timeout/quarantine budget
    for at least one point.  The completed points *were* executed and
    stored (in the run cache, or in the checkpoint journal under
    ``--no-cache``), so re-running the same command only retries the
    failed ones.

    Attributes:
        failures: The structured
            :class:`~repro.exec.resilience.PointFailure` records, one
            per terminally-failed point.
    """

    def __init__(self, failures) -> None:
        lines = "\n".join(f"  - {f.describe()}" for f in failures)
        super().__init__(
            f"{len(failures)} point(s) failed after retries:\n{lines}\n"
            "completed points are checkpointed — re-run the same command to retry"
        )
        self.failures = list(failures)


class WorkloadError(ReproError):
    """A workload/IR program is malformed.

    Examples: an array reference with the wrong number of subscripts, a
    loop bound that is negative, or a reference to an undeclared array.
    """


class TransformError(ReproError):
    """A code transformation cannot be applied to the given program.

    Transformations are expected to *skip* constructs they cannot handle;
    this error signals misuse of the transformation API itself (for
    example, a vector width of zero).
    """
