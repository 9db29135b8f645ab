"""Traced pass: run one ``repro`` command in-process with its layers wrapped.

Usage::

    PYTHONPATH=src python benchmarks/perf/tracer.py --out DIR --seed N -- <repro args>

The tracer never edits ``src/``.  It imports every ``repro`` submodule,
then replaces each layer's public functions with span-recording
wrappers — in every ``repro.*`` module that holds a reference, because
call sites bind names at import time — runs ``repro.cli.main`` under a
root span, and restores the originals.  Spans stay in memory until the
command returns; then it writes

- ``DIR/spans.json``: every span (id, name, start, end, parent, run id);
- ``DIR/layers.json``: the per-layer and simulated metrics, the seeded
  oracle check, and the stamps ``run.py`` needs for the tracing
  overhead.

The command's own output goes to stdout untouched, so ``run.py`` checks
it against the same golden as an untraced pass.  Spans inside ``--jobs``
worker processes are not collected.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import pathlib
import pkgutil
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from harness import layer_totals, percentile, self_times

#: Named configurations, in the order the simulated metrics list them.
CONFIGS = ("sram", "dropin", "vwb", "l0", "emshr", "hybrid")
#: Front-ends with a buffer in front of the DL1, and those that promote.
BUFFERED = ("vwb", "l0", "emshr", "hybrid")
PROMOTING = ("vwb", "l0")

#: Span names whose calls return simulation results.
_RESULT_SPANS = ("cpu.replay", "cpu.batch", "exec.run_points")


class Tracer:
    """In-memory span recorder that wraps functions and can undo it.

    Parameters
    ----------
    run_id : str
        Identifier stamped on every span of this run.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        #: ``(span id, span name, record)`` for every call through a
        #: wrapper built with a ``capture`` function.
        self.captures: List[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self._patches: List[tuple] = []

    def wrap(self, name: str, fn: Callable, capture: Optional[Callable] = None) -> Callable:
        """A wrapper recording a span named ``name`` around each call of ``fn``.

        ``capture(arguments, result)``, when given, turns the bound
        arguments and the return value into a small record kept in
        :attr:`captures`.
        """
        signature = inspect.signature(fn) if capture is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "run": tracer.run_id}
                )
            if capture is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.captures.append((sid, name, capture(bound.arguments, result)))
            return result

        return wrapper

    def patch_function(self, name: str, original: Callable,
                       capture: Optional[Callable] = None) -> int:
        """Wrap ``original`` wherever a ``repro`` module holds it; returns the count."""
        wrapper = self.wrap(name, original, capture)
        count = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))
                    count += 1
        return count

    def patch_method(self, name: str, cls: type, attr: str,
                     capture: Optional[Callable] = None) -> None:
        """Wrap the method ``cls.attr``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, capture))
        self._patches.append((cls, attr, original))

    def restore(self) -> None:
        """Put every wrapped function and method back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` under a root span."""
        return self.wrap(name, fn)(*args)


# ----------------------------------------------------------------------
# What each wrapped layer records
# ----------------------------------------------------------------------


def _capture_encode(a, trace):
    return {"program": a["program"], "trace_config": a["config"], "trace": trace}


def _capture_replay(a, result):
    from repro.workloads.encode import EncodedTrace

    events = a["events"]
    return {
        "config": a["self"].config,
        "events": len(events) if hasattr(events, "__len__") else 0,
        # Object-event lists are not kept: they are large, and an oracle
        # replay of the same list would not be independent of the run.
        "trace": events if isinstance(events, EncodedTrace) else None,
        "warm_regions": a["warm_regions"],
        "plain": a["reset"] and a["probe"] is None,
        "result": result,
    }


def _capture_batch(a, results):
    return {
        "configs": [system.config for system in a["systems"]],
        "trace": a["trace"],
        "warm_regions": a["warm_regions"],
        "plain": a["reset"],
        "results": list(results),
    }


def _capture_points(a, results):
    return {"engine": a["self"], "points": list(a["points"]), "results": list(results)}


def _capture_lookup(a, found):
    return {"hit": found.result is not None}


def import_all() -> None:
    """Import every ``repro`` submodule, so every binding exists before patching."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions (the README lists the layers)."""
    from repro.cpu.system import System
    from repro.exec.cache import RunCache
    from repro.exec.engine import ExecutionEngine
    from repro.transforms import pipeline
    from repro.workloads import elim, encode, polybench

    tracer.patch_function("workloads.build", polybench.build_kernel)
    tracer.patch_function("workloads.encode", encode.encode_trace, _capture_encode)
    tracer.patch_function("workloads.annotate", elim.annotate_trace)
    tracer.patch_function("transforms.optimize", pipeline.optimize)
    try:
        from repro.cpu import batched
    except ImportError:
        pass  # measured only while the batched replay path exists
    else:
        tracer.patch_function("cpu.batch", batched.run_batch, _capture_batch)
    tracer.patch_method("cpu.system_build", System, "__init__")
    tracer.patch_method("cpu.warm", System, "warm_l2")
    tracer.patch_method("cpu.replay", System, "run", _capture_replay)
    tracer.patch_method("exec.run_points", ExecutionEngine, "run_points", _capture_points)
    tracer.patch_method("exec.cache_lookup", RunCache, "lookup", _capture_lookup)
    tracer.patch_method("exec.cache_put", RunCache, "put")


# ----------------------------------------------------------------------
# Results, simulated statistics and the oracle
# ----------------------------------------------------------------------


def config_name(config) -> str:
    """The named configuration a :class:`SystemConfig` is a variant of."""
    if config.frontend == "plain":
        return "sram" if "SRAM" in config.resolved_technology().name.upper() else "dropin"
    return config.frontend


@dataclass
class Entry:
    """One simulation result of the run, and how the oracle redoes it (if it can)."""

    label: str
    config: Any
    result: Any
    rebuild: Optional[Callable]


def _replay_point(point):
    """Generic object replay of an engine point, built from scratch."""
    from repro.cpu.system import System, warm_regions_of
    from repro.transforms.pipeline import OptLevel, optimize
    from repro.workloads import build_kernel, materialize_trace

    program = build_kernel(point.kernel, point.size)
    if point.level is not OptLevel.NONE:
        program = optimize(program, point.level)
    return System(point.config).run(
        materialize_trace(program), warm_regions=warm_regions_of(program)
    )


def _replay_program(program, trace_config, config, warm_regions):
    """Generic object replay of a program's trace through a fresh system."""
    from repro.cpu.system import System
    from repro.workloads import materialize_trace

    return System(config).run(materialize_trace(program, trace_config), warm_regions=warm_regions)


def _ancestors(spans: List[dict]) -> Callable[[int], List[int]]:
    """A function listing a span's ancestors, nearest first."""
    parent = {s["id"]: s["parent"] for s in spans}

    def ancestors(sid: int) -> List[int]:
        out = []
        sid = parent.get(sid, 0)
        while sid:
            out.append(sid)
            sid = parent.get(sid, 0)
        return out

    return ancestors


def top_level_entries(tracer: Tracer) -> List[Entry]:
    """The run's results, each taken from the outermost call that returned it.

    A result returned by ``System.run`` inside ``run_batch`` or
    ``run_points`` counts once, at the outer call; engine results
    include cache hits and points computed in worker processes.
    """
    ancestors = _ancestors(tracer.spans)
    result_spans = {sid for sid, name, _ in tracer.captures if name in _RESULT_SPANS}
    programs = {
        id(rec["trace"]): rec for _, name, rec in tracer.captures if name == "workloads.encode"
    }

    def rebuild(trace, config, warm_regions, plain):
        known = programs.get(id(trace)) if trace is not None else None
        if known is None or not plain or not isinstance(warm_regions, (list, tuple)):
            return None
        return functools.partial(
            _replay_program, known["program"], known["trace_config"], config, warm_regions
        )

    entries: List[Entry] = []
    for sid, name, rec in sorted(tracer.captures, key=lambda c: c[0]):
        if name not in _RESULT_SPANS or result_spans.intersection(ancestors(sid)):
            continue
        if name == "cpu.replay":
            config = rec["config"]
            redo = rebuild(rec["trace"], config, rec["warm_regions"], rec["plain"])
            entries.append(Entry(f"{config_name(config)} replay", config, rec["result"], redo))
        elif name == "cpu.batch":
            for config, result in zip(rec["configs"], rec["results"]):
                redo = rebuild(rec["trace"], config, rec["warm_regions"], rec["plain"])
                entries.append(Entry(f"{config_name(config)} lane", config, result, redo))
        else:
            for point, result in zip(rec["points"], rec["results"]):
                redo = functools.partial(_replay_point, point)
                entries.append(Entry(point.display(), point.config, result, redo))
    return entries


def simulated_metrics(entries: List[Entry]) -> Dict[str, float]:
    """Simulated statistics summed over the run's results, per configuration."""
    keys = ("cycles", "load", "dl1_misses", "dl1_accesses", "bank_wait",
            "buffer_hits", "buffer_accesses", "promotion_cycles")
    per = {c: dict.fromkeys(keys, 0) for c in CONFIGS}
    l2_misses = dram = 0
    for e in entries:
        r, acc = e.result, per[config_name(e.config)]
        dl1, fe = r.dl1_stats, r.frontend_stats
        acc["cycles"] += r.cycles
        acc["load"] += r.breakdown.get("load", 0.0)
        acc["dl1_misses"] += dl1["read_misses"] + dl1["write_misses"]
        acc["dl1_accesses"] += (dl1["read_hits"] + dl1["read_misses"]
                                + dl1["write_hits"] + dl1["write_misses"])
        acc["bank_wait"] += dl1["bank_wait_cycles"]
        acc["buffer_hits"] += fe["buffer_read_hits"] + fe["buffer_write_hits"]
        acc["buffer_accesses"] += (fe["buffer_read_hits"] + fe["buffer_read_misses"]
                                   + fe["buffer_write_hits"] + fe["buffer_write_misses"])
        acc["promotion_cycles"] += fe["promotion_cycles"]
        l2_misses += r.l2_stats["read_misses"] + r.l2_stats["write_misses"]
        dram += r.memory_accesses

    def ratio(a, b):
        return a / b if b else 0.0

    out: Dict[str, float] = {}
    for c in CONFIGS:
        acc = per[c]
        out[f"sim.cycles.{c}"] = acc["cycles"]
        out[f"sim.load_share.{c}"] = ratio(acc["load"], acc["cycles"])
        out[f"mem.dl1_miss_rate.{c}"] = ratio(acc["dl1_misses"], acc["dl1_accesses"])
        out[f"mem.dl1_bank_wait_cycles.{c}"] = acc["bank_wait"]
    out["mem.l2_misses"] = l2_misses
    out["mem.dram_accesses"] = dram
    for c in BUFFERED:
        out[f"core.buffer_hit_rate.{c}"] = ratio(per[c]["buffer_hits"], per[c]["buffer_accesses"])
    for c in PROMOTING:
        out[f"core.promotion_cycles.{c}"] = per[c]["promotion_cycles"]
    return out


def layer_metrics(tracer: Tracer, eliminated: int, manifest: Optional[dict]) -> Dict[str, float]:
    """Per-layer host-time metrics from the spans and captured calls."""
    totals = layer_totals(tracer.spans)
    own = self_times(tracer.spans)
    ancestors = _ancestors(tracer.spans)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ns_per(seconds, events):
        return seconds / events * 1e9 if events else 0.0

    # ``run_batch`` hands lanes it cannot batch to ``System.run``.
    batch_ids = {s["id"] for s in tracer.spans if s["name"] == "cpu.batch"}
    fallback: Dict[int, int] = {}
    for s in tracer.spans:
        if s["name"] == "cpu.replay":
            for sid in ancestors(s["id"]):
                if sid in batch_ids:
                    fallback[sid] = fallback.get(sid, 0) + 1
                    break

    trace_events = solo_lanes = batched_lanes = replay_events = 0
    points = lookups = hits = 0
    per_config = {c: [0.0, 0] for c in CONFIGS}
    engines = {}
    for sid, name, rec in tracer.captures:
        if name == "workloads.encode":
            trace_events += len(rec["trace"])
        elif name == "cpu.replay":
            solo_lanes += 1
            replay_events += rec["events"]
            acc = per_config[config_name(rec["config"])]
            acc[0] += own[sid]
            acc[1] += rec["events"]
        elif name == "cpu.batch":
            lanes = len(rec["configs"]) - fallback.get(sid, 0)
            batched_lanes += lanes
            replay_events += len(rec["trace"]) * lanes
        elif name == "exec.run_points":
            points += len(rec["points"])
            engines[id(rec["engine"])] = rec["engine"]
        elif name == "exec.cache_lookup":
            lookups += 1
            hits += rec["hit"]

    replay_s = self_s("cpu.replay") + self_s("cpu.batch")
    encode_s = self_s("workloads.encode")
    lanes = batched_lanes + solo_lanes
    m: Dict[str, float] = {
        "workloads.build_s": self_s("workloads.build"),
        "workloads.encode_s": encode_s,
        "workloads.encode_calls": calls("workloads.encode"),
        "workloads.trace_events": trace_events,
        "workloads.encode_ns_per_event": ns_per(encode_s, trace_events),
        "workloads.annotate_s": self_s("workloads.annotate"),
        "workloads.annotate_calls": calls("workloads.annotate"),
        "workloads.events_eliminated": eliminated,
        "workloads.eliminated_frac": eliminated / replay_events if replay_events else 0.0,
        "transforms.optimize_s": self_s("transforms.optimize"),
        "transforms.optimize_calls": calls("transforms.optimize"),
        "cpu.system_build_s": self_s("cpu.system_build"),
        "cpu.systems_built": calls("cpu.system_build"),
        "cpu.warm_s": self_s("cpu.warm"),
        "cpu.replay_s": replay_s,
        "cpu.replay_events": replay_events,
        "cpu.replay_ns_per_event": ns_per(replay_s, replay_events),
        "cpu.batched_lane_frac": batched_lanes / lanes if lanes else 0.0,
        "exec.run_points_s": self_s("exec.run_points"),
        "exec.points": points,
        "exec.cache_hit_rate": hits / lookups if lookups else 0.0,
        "exec.cache_lookup_s": self_s("exec.cache_lookup"),
        "exec.cache_put_s": self_s("exec.cache_put"),
        "exec.retries": sum(e.stats.retries for e in engines.values()),
        "experiments.self_s": self_s("experiments"),
    }
    for c in CONFIGS:
        seconds, events = per_config[c]
        m[f"cpu.replay_ns_per_event.{c}"] = ns_per(seconds, events)
    point_ms: List[float] = []
    utilization = 0.0
    if manifest is not None:
        point_ms = [p["wall_s"] * 1e3 for p in manifest["points"] if p["status"] == "run"]
        utilization = manifest["metrics"]["gauges"].get("exec.utilization_pct", 0.0) / 100.0
    m["exec.point_ms_p50"] = percentile(point_ms, 50)
    m["exec.point_ms_p90"] = percentile(point_ms, 90)
    m["exec.worker_util"] = utilization
    return m


def oracle_check(entries: List[Entry], seed: int, k: int = 2) -> List[dict]:
    """Redo ``k`` seeded results by generic object replay; compare whole objects."""
    candidates = [e for e in entries if e.rebuild is not None]
    picks = sorted(random.Random(seed).sample(range(len(candidates)), min(k, len(candidates))))
    return [
        {"label": candidates[i].label, "ok": candidates[i].rebuild() == candidates[i].result}
        for i in picks
    ]


def _telemetry_manifest(command: List[str]) -> Optional[dict]:
    """The manifest of a ``--telemetry DIR`` command, or ``None`` without one."""
    if "--telemetry" not in command:
        return None
    path = pathlib.Path(command[command.index("--telemetry") + 1]) / "manifest.json"
    return json.loads(path.read_text())


def main(argv: Optional[List[str]] = None) -> int:
    """Run the traced command; returns its exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for spans.json and layers.json")
    parser.add_argument("--seed", type=int, default=0, help="picks the oracle's points")
    parser.add_argument("--run-id", default="traced", help="identifier stamped on every span")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the repro arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    import_all()
    from repro.workloads import elim

    tracer = Tracer(args.run_id)
    before = elim.counters()["events_eliminated"]
    install(tracer)
    try:
        code = tracer.root("experiments", repro.cli.main, command)
    finally:
        tracer.restore()
    main_end = time.monotonic()
    sys.stdout.flush()
    eliminated = elim.counters()["events_eliminated"] - before

    entries = top_level_entries(tracer)
    metrics = layer_metrics(tracer, eliminated, _telemetry_manifest(command))
    metrics["proc.import_s"] = import_s
    metrics.update(simulated_metrics(entries))
    report = {
        "run_id": args.run_id,
        "exit_code": code,
        "main_end": main_end,
        "layer_self_sum_s": import_s + sum(self_times(tracer.spans).values()),
        "layers": layer_totals(tracer.spans),
        "metrics": metrics,
        "oracle": oracle_check(entries, args.seed),
    }
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "spans.json").write_text(json.dumps(tracer.spans))
    (out / "layers.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
