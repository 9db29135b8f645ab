"""Acceptance chaos run: the full penalties grid under injected faults.

Drives the exact scenario the resilience layer promises to survive —
worker crashes, one hung point, and two pre-corrupted cache entries,
all injected deterministically through a
:class:`~repro.exec.resilience.FaultPlan` — across the complete
``repro penalties`` evaluation grid on a 4-worker pool, then proves
four things:

1. the rendered table is **byte-identical** to the committed
   ``benchmarks/golden_penalties.txt``;
2. the telemetry manifest records non-zero ``worker_restarts`` and
   ``retries``;
3. both corrupted entries were moved under ``<cache>/.quarantine/``
   with reason files;
4. a second, fault-free run over the healed cache replays everything.

A serial leg then runs the grid with ``jobs=1`` on a fresh cache,
where the supervisor executes every point in-process, under two
injected errors: the table must again be byte-identical, with exactly
two retries and no worker restarts.

Run it standalone (CI's ``resilience`` job does)::

    PYTHONPATH=src python benchmarks/chaos_penalties.py

Exits non-zero with a diagnostic on the first violated guarantee.
"""

import difflib
import json
import pathlib
import shutil
import sys
import tempfile

from repro.exec import ExecutionEngine, FaultPlan, RetryPolicy
from repro.experiments import penalties
from repro.experiments.report import render_figure
from repro.experiments.runner import ExperimentRunner
from repro.telemetry import TelemetryRecorder, build_manifest, load_manifest, write_manifest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_penalties.txt"

#: Batch indices of the injected faults.  A fault plan keys on the
#: point's index *within its batch*; the grid's first prefetch batch is
#: the only one with 24 points (12 config + 12 sram baseline), so
#: indices >= 12 fire exactly once across the whole sweep.  Entries 12
#: and 20 start corrupted; 13 and 19 each crash their first worker; 16
#: hangs until the timeout kills it.
PLAN = FaultPlan(
    crashes={13: 1, 19: 1},
    hangs={16: 1},
    corrupt_entries=(12, 20),
)

#: The serial leg's faults: errors fire in-process too (crashes and
#: hangs only ever fire inside worker processes).
SERIAL_PLAN = FaultPlan(errors={13: 1, 19: 1})


def fail(message):
    """Print one diagnostic line and exit non-zero."""
    print(f"CHAOS FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_grid(workdir, plan, policy, label, jobs=4):
    """Run the full penalties grid under ``plan``; return (text, engine)."""
    telemetry = TelemetryRecorder(workdir / f"tele-{label}")
    engine = ExecutionEngine(
        jobs=jobs,
        cache_dir=str(workdir / "cache"),
        telemetry=telemetry,
        policy=policy,
        fault_plan=plan,
    )
    try:
        with telemetry.span("sweep", command="penalties"):
            result = penalties.run(ExperimentRunner(engine=engine))
    finally:
        engine.close()
        manifest = build_manifest("penalties", engine)
        write_manifest(manifest, telemetry.path.parent)
        telemetry.close()
    engine.finish()
    return render_figure(result, bars=False) + "\n", engine


def check_golden(text, golden, label):
    """Fail with a unified diff unless ``text`` equals the golden table."""
    if text != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(True), text.splitlines(True),
                "golden_penalties.txt", label,
            )
        )
        fail(f"{label} output diverged from the golden table:\n{diff}")


def main():
    """Run the chaos scenario and verify every guarantee."""
    golden = GOLDEN.read_text()
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        policy = RetryPolicy(max_retries=3, timeout=20.0)
        text, engine = run_grid(workdir, PLAN, policy, "chaos")

        check_golden(text, golden, "chaos run")
        print("chaos grid: byte-identical to golden_penalties.txt")

        stats = engine.stats
        if stats.worker_restarts < 2:
            fail(f"expected >=2 worker restarts, saw {stats.worker_restarts}")
        if stats.retries != 3:
            fail(f"expected exactly 3 retries (2 crashes + 1 timeout), saw {stats.retries}")
        if stats.timeouts != 1:
            fail(f"expected exactly 1 timeout (one hung point), saw {stats.timeouts}")
        if stats.corrupt != 2:
            fail(f"expected exactly 2 corrupt entries, saw {stats.corrupt}")
        print(f"engine: {engine.summary()}")

        doc = load_manifest(workdir / "tele-chaos" / "manifest.json")
        recorded = doc["engine"]["stats"]
        if not recorded["worker_restarts"] or not recorded["retries"]:
            fail(f"manifest lost the resilience counters: {recorded}")
        counters = (doc.get("metrics") or {}).get("counters") or {}
        if not counters.get("exec.worker_restarts") or not counters.get("exec.retries"):
            fail(f"manifest metrics lost exec.* counters: {sorted(counters)}")
        print(
            f"manifest: worker_restarts={recorded['worker_restarts']} "
            f"retries={recorded['retries']} timeouts={recorded['timeouts']}"
        )

        quarantined = engine.cache.quarantined() if engine.cache else []
        if len(quarantined) != 2:
            fail(f"expected 2 quarantined entries, found {len(quarantined)}")
        for entry in quarantined:
            reason = entry.parent / f"{entry.stem}.reason.txt"
            if not reason.exists():
                fail(f"quarantined entry {entry.name} has no reason file")
        print(f"quarantine: {len(quarantined)} entries with reason files")

        healed, engine2 = run_grid(workdir, None, RetryPolicy(), "healed")
        if healed != golden:
            fail("healed-cache replay diverged from the golden table")
        if engine2.stats.executed:
            fail(
                f"healed cache should replay every point, "
                f"but {engine2.stats.executed} re-executed"
            )
        if json.loads((workdir / "tele-healed" / "manifest.json").read_text())[
            "engine"
        ]["stats"]["misses"]:
            fail("healed-cache manifest reports cache misses")
        print("healed cache: 100% replay, still byte-identical")

        serial, engine3 = run_grid(
            workdir / "serial", SERIAL_PLAN, RetryPolicy(max_retries=1), "serial", jobs=1
        )
        check_golden(serial, golden, "serial run")
        stats = engine3.stats
        if stats.retries != 2 or stats.worker_restarts:
            fail(
                f"serial leg expected exactly 2 retries and 0 worker restarts, "
                f"saw {stats.retries} and {stats.worker_restarts}"
            )
        print(f"serial leg: byte-identical in-process, {stats.retries} retries")
        print("chaos acceptance: all guarantees held")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
