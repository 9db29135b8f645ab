"""Differential replay audit: one point, every replay path, zero drift.

The simulator maintains several redundant ways of executing the same
:class:`~repro.exec.point.RunPoint`, all promised bit-identical:

- **generic replay** — ``InOrderCPU.run`` over decoded event objects;
- **encoded replay** — ``run_encoded`` over the columnar opcode stream,
  with the front-end's inlined fast-path hit kernels;
- **probed replay** — generic replay under a
  :class:`~repro.obs.probe.RecordingProbe`, whose cycle ledger must
  balance to the run's cycle count exactly;
- **eliminated replay** — encoded replay with hit-run elimination
  (:mod:`repro.workloads.elim`) forced on, so annotated guaranteed-hit
  runs are consumed in one apply step each instead of per event;
- **warm re-runs** — ``reset=False`` replays over retained contents,
  which must agree across replay paths just like cold runs.

:func:`audit_point` executes all of them for one (kernel, config,
level) point, with the live sanitizer attached to the generic legs, and
diffs everything that can diverge: the full :class:`RunResult` (cycles,
breakdown, counts, every stats dict, the load-latency histogram), the
probe's independently-collected load histogram and verified ledger, and
the complete shadow end state of the machine
(:func:`repro.check.shadow.capture_system`).

When the generic and encoded paths disagree, :func:`bisect_divergence`
re-runs both paths over growing prefixes of the event stream (prefixes
are re-encoded with :func:`~repro.workloads.encode.encode_events`) and
binary-searches for the first event after which the machine states
differ — turning "the cycle counts differ by 14" into "event 80421, a
store to 0x1f440, updates the LRU stack differently".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..cpu.model import RunResult
from ..cpu.system import System, SystemConfig, warm_regions_of
from ..errors import InvariantViolation, SimulationError
from ..obs import RecordingProbe
from ..transforms.pipeline import OptLevel
from ..workloads.datasets import DatasetSize
from ..workloads.encode import EncodedTrace, encode_events
from .sanitizer import Sanitizer
from .shadow import ShadowState, capture_system, diff_states

#: Default invariant-check stride for audits: a prime, so the checked
#: event indices do not phase-lock with loop bodies whose event period
#: divides a round number.
DEFAULT_AUDIT_STRIDE = 997


@dataclass
class AuditReport:
    """Outcome of one differential audit.

    Attributes:
        kernel: Kernel name.
        config: Canonical configuration name.
        level: Optimization level name.
        events: Events in the audited trace.
        checks: Invariant sweeps the sanitizer ran across all legs.
        divergences: ``(leg, path, expected, actual)`` records; ``leg``
            names the comparison (``encoded.state``, ``probe.result``,
            ``warm.result``, ...), ``path`` the diverging structure.
        first_divergence_event: Trace index of the first event after
            which generic and encoded replay disagree (from bisection;
            ``None`` when they agree or bisection was skipped).
        violation: Message of the invariant violation that aborted a
            leg, if any.
        violation_event: Event index carried by that violation.
    """

    kernel: str
    config: str
    level: str
    events: int = 0
    checks: int = 0
    divergences: List[Tuple[str, str, Any, Any]] = field(default_factory=list)
    first_divergence_event: Optional[int] = None
    violation: Optional[str] = None
    violation_event: Optional[int] = None

    @property
    def ok(self) -> bool:
        """True when every leg agreed and no invariant fired."""
        return not self.divergences and self.violation is None

    def summary(self) -> str:
        """One line per finding (or a single PASS line)."""
        head = f"{self.kernel}/{self.config}/{self.level}"
        if self.ok:
            return (
                f"PASS  {head}: {self.events} events, "
                f"{self.checks} invariant sweeps, 5 replay legs agree"
            )
        lines = [f"FAIL  {head}:"]
        if self.violation is not None:
            lines.append(f"      invariant: {self.violation}")
        for leg, path, expected, actual in self.divergences[:20]:
            lines.append(f"      {leg} diverges at {path}: {expected!r} != {actual!r}")
        if len(self.divergences) > 20:
            lines.append(f"      ... and {len(self.divergences) - 20} more")
        if self.first_divergence_event is not None:
            lines.append(
                f"      first divergence introduced by event "
                f"{self.first_divergence_event}"
            )
        return "\n".join(lines)


def _result_state(result: RunResult) -> dict:
    """A ``RunResult`` as plain nested data for :func:`diff_states`."""
    return asdict(result)


def _diff_into(
    report: AuditReport, leg: str, expected: Any, actual: Any
) -> None:
    for path, a, b in diff_states(expected, actual):
        report.divergences.append((leg, path, a, b))


def _point_material(
    kernel: str,
    config: SystemConfig,
    level: OptLevel,
    size: DatasetSize,
):
    """The (program, encoded trace, warm regions) for one audit point.

    Reuses the execution engine's per-process memos, so auditing a
    kernel across six configurations builds and encodes its trace once.
    """
    from ..exec.point import RunPoint, build_point_program, workload_trace

    point = RunPoint(kernel=kernel, config=config, level=level, size=size)
    program = build_point_program(point)
    trace = workload_trace(*point.workload)
    return program, trace, warm_regions_of(program)


def audit_point(
    kernel: str,
    config: Union[str, SystemConfig] = "vwb",
    level: OptLevel = OptLevel.NONE,
    size: DatasetSize = DatasetSize.MINI,
    stride: int = DEFAULT_AUDIT_STRIDE,
    bisect: bool = True,
) -> AuditReport:
    """Differentially audit one (kernel, config, level) point.

    Runs the five replay legs (sanitized generic, encoded fast path,
    forced hit-run elimination, probed with ledger verification, warm
    re-runs of the first two), diffs results, histograms and shadow end
    states, and — when the generic and encoded paths disagree — bisects
    to the first diverging event.

    Args:
        kernel: Kernel name from the PolyBench registry.
        config: Configuration name/alias or a :class:`SystemConfig`.
        level: Optimization level of the traced code.
        size: Dataset size class.
        stride: Sanitizer check stride for the generic legs.
        bisect: Run the prefix bisection on a generic-vs-encoded
            divergence (the expensive step; only triggered on failure).

    Returns:
        An :class:`AuditReport`; ``report.ok`` is the verdict.
    """
    from ..experiments.runner import resolve_config, resolve_config_name

    if isinstance(config, str):
        name = resolve_config_name(config)
        sys_config = resolve_config(name)
    else:
        name = config.frontend
        sys_config = config
    report = AuditReport(kernel=kernel, config=name, level=level.name)
    program, trace, regions = _point_material(kernel, sys_config, level, size)
    report.events = len(trace)

    # Leg A: generic object replay under the live sanitizer.
    system_a = System(sys_config)
    sanitizer = Sanitizer(system_a, stride=stride)
    try:
        result_a = sanitizer.run(trace, warm_regions=regions)
    except InvariantViolation as exc:
        report.checks = sanitizer.checks_run
        report.violation = str(exc)
        report.violation_event = exc.event_index
        return report
    report.checks = sanitizer.checks_run
    shadow_a = capture_system(system_a)

    # Leg B: encoded fast-path replay, no instrumentation.
    system_b = System(sys_config)
    result_b = system_b.run(trace, warm_regions=regions)
    shadow_b = capture_system(system_b)
    _diff_into(report, "encoded.result", _result_state(result_a), _result_state(result_b))
    _diff_into(report, "encoded.state", shadow_a, shadow_b)
    encoded_diverged = bool(report.divergences)

    # Leg E: eliminated replay — the encoded fast path with hit-run
    # elimination *forced on* (no deferral to a later pass), so
    # guaranteed-hit runs are consumed through the packed-word applier
    # of :func:`repro.cpu.fastpath.make_run_applier` instead of
    # per-event simulation.  Result and full shadow end state
    # (tags, dirty bits, LRU orders, bank clocks) are diffed against the
    # sanitized generic leg.  Lanes whose shape is ineligible simply
    # replay per-event here, which keeps the leg a valid no-op check.
    from ..workloads.elim import forced as _elim_forced

    system_e = System(sys_config)
    with _elim_forced(True):
        result_e = system_e.run(trace, warm_regions=regions)
    _diff_into(report, "elim.result", _result_state(result_a), _result_state(result_e))
    _diff_into(report, "elim.state", shadow_a, capture_system(system_e))

    # Leg C: probed generic replay; the RecordingProbe's finish hook
    # verifies the cycle ledger balances to the run's cycles exactly.
    system_c = System(sys_config)
    probe = RecordingProbe(record_events=False)
    try:
        result_c = system_c.run(trace, warm_regions=regions, probe=probe)
    except SimulationError as exc:
        report.divergences.append(("probe.ledger", "verify", "balanced", str(exc)))
        result_c = None
    if result_c is not None:
        _diff_into(
            report, "probe.result", _result_state(result_a), _result_state(result_c)
        )
        # The probe's load histogram is collected independently (from
        # end_op costs) under the same bucketing convention; it must
        # reproduce the CPU-side histogram exactly.
        _diff_into(
            report,
            "probe.load_histogram",
            dict(result_a.load_latency_histogram),
            dict(probe.histograms.data.get("cpu.load_exposed", {})),
        )

    # Leg D: warm re-runs over the retained contents — sanitized generic
    # on system A against encoded fast path on system B.  Catches state
    # that cold runs cannot distinguish (clear_stats bleed).
    try:
        result_a2 = sanitizer.run(trace, reset=False)
    except InvariantViolation as exc:
        report.checks = sanitizer.checks_run
        report.violation = str(exc)
        report.violation_event = exc.event_index
        return report
    report.checks = sanitizer.checks_run
    result_b2 = system_b.run(trace, reset=False)
    _diff_into(
        report, "warm.result", _result_state(result_a2), _result_state(result_b2)
    )
    _diff_into(report, "warm.state", capture_system(system_a), capture_system(system_b))

    if encoded_diverged and bisect:
        report.first_divergence_event = bisect_divergence(
            sys_config, trace, regions
        )
    return report


def _prefix_shadow(
    sys_config: SystemConfig, events, regions
) -> Tuple[ShadowState, dict]:
    """Run ``events`` on a fresh system; return (shadow, result) state."""
    system = System(sys_config)
    result = system.run(events, warm_regions=regions)
    return capture_system(system), _result_state(result)


def bisect_divergence(
    sys_config: SystemConfig,
    trace: EncodedTrace,
    regions,
) -> Optional[int]:
    """Find the first event after which generic and encoded replay differ.

    Replays growing prefixes of the trace — the prefix re-encoded with
    :func:`~repro.workloads.encode.encode_events` for the fast-path leg —
    and binary-searches the smallest prefix length whose machine states
    (shadow capture plus run result) disagree.  Assumes divergence is
    persistent once introduced, which holds for deterministic replay.

    Returns:
        The 0-based index of the offending trace event, or ``None`` if
        the full-length replays agree (no divergence to localise).
    """
    events = trace.decode()

    def differs(k: int) -> bool:
        generic = _prefix_shadow(sys_config, iter(events[:k]), regions)
        encoded = _prefix_shadow(sys_config, encode_events(events[:k]), regions)
        return generic != encoded

    n = len(events)
    if n == 0 or not differs(n):
        return None
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if differs(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


def audit_grid(
    kernels: Optional[Sequence[str]] = None,
    configs: Optional[Sequence[str]] = None,
    levels: Sequence[OptLevel] = (OptLevel.NONE,),
    size: DatasetSize = DatasetSize.MINI,
    stride: int = DEFAULT_AUDIT_STRIDE,
    bisect: bool = True,
) -> List[AuditReport]:
    """Audit a kernel x configuration x level grid.

    Args:
        kernels: Kernel subset (default: the full registry).
        configs: Configuration names (default: all six named configs).
        levels: Optimization levels to audit at.
        size: Dataset size class.
        stride: Sanitizer check stride.
        bisect: Bisect generic-vs-encoded divergences when found.

    Returns:
        One :class:`AuditReport` per grid point, in grid order.
    """
    from ..experiments.runner import CONFIGURATIONS
    from ..workloads import kernel_names

    kernels = list(kernels) if kernels is not None else kernel_names()
    configs = list(configs) if configs is not None else list(CONFIGURATIONS)
    reports = []
    for kernel in kernels:
        for config in configs:
            for level in levels:
                reports.append(
                    audit_point(
                        kernel,
                        config,
                        level=level,
                        size=size,
                        stride=stride,
                        bisect=bisect,
                    )
                )
    return reports
