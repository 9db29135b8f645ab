"""Repository benchmark: five ``repro`` CLI workloads, timed from outside.

Usage::

    python benchmarks/perf/run.py --seed 0                      # every workload
    python benchmarks/perf/run.py --workload penalties --seed 3 --seconds 20 --trace 0
    python benchmarks/perf/run.py --workload latency --trace 1  # per-layer numbers

Every timed pass is a fresh ``python`` process running the ``repro`` CLI,
so it costs what a user pays; passes run one at a time.  A workload with
a run cache is run cold against a fresh ``--cache-dir`` and then warm
against the filled one.  Rounds repeat until ``--seconds`` is used up,
and each metric is the median over its passes.  Every pass's output is
checked against a golden; ``--trace 1`` instead runs one untraced and one
traced pass (``tracer.py``) and reports the per-layer metrics, checked
by a seeded generic-replay oracle.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
untraced, its per-layer metrics traced).  Full records, spans and layer
tables go to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from harness import ROOT, golden_diff, load_spec, summarize, sweep_diff

HERE = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"

#: Warm re-runs after each cold pass of a cached workload.
WARM_PASSES = 3
#: Processes per run that only import ``repro.cli``, for ``setup_s``.
SETUP_PROBES = 7
#: A pass still running after this long is killed and counted as failed.
PASS_TIMEOUT_S = 150.0

#: Candidate values of the sweep workload; the seed picks five.
SWEEP_VALUES = ("0.0", "0.25", "0.5", "0.75", "1.0", "1.25", "1.5", "1.75", "2.0")
SWEEP_PICKS = 5

#: Timed-pass child: stamps the end of ``import repro.cli`` on a pipe,
#: then runs the CLI exactly as ``python -m repro`` would.
_CHILD = (
    "import os, sys, time\n"
    "import repro.cli\n"
    "os.write(int(sys.argv[1]), repr(time.monotonic()).encode())\n"
    "os.close(int(sys.argv[1]))\n"
    "if sys.argv[2:]:\n"
    "    sys.exit(repro.cli.main(sys.argv[2:]))\n"
)

_CLAIMS_RE = re.compile(r"note: (\d+)/\d+ claims reproduced")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a ``repro`` command and its golden output."""

    name: str
    args: Tuple[str, ...]
    #: Run cold against a fresh ``--cache-dir``, then warm against it.
    cached: bool
    golden: str

    def command(self, seed: int) -> List[str]:
        """The ``repro`` arguments for ``seed`` (the sweep's values come from it)."""
        args = list(self.args)
        if self.name == "sweep":
            picks = random.Random(seed).sample(SWEEP_VALUES, SWEEP_PICKS)
            args += ["--values", *sorted(picks, key=float)]
        return args

    def check(self, output: str) -> Optional[str]:
        """Why ``output`` is wrong, or ``None`` when it matches the golden."""
        golden = (ROOT / self.golden).read_text()
        if self.name == "sweep":
            return sweep_diff(output, golden)
        return golden_diff(output, golden)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("penalties", ("penalties", "--no-bars"), True,
                 "benchmarks/golden_penalties.txt"),
        Workload("validate", ("validate",), True, "benchmarks/perf/golden/validate.txt"),
        Workload("latency", ("ablation-latency", "--no-bars"), False,
                 "benchmarks/perf/golden/latency.txt"),
        Workload("small", ("penalties", "--no-bars", "--size", "SMALL", "--kernels",
                           "gemver", "atax", "bicg", "mvt", "gesummv"), False,
                 "benchmarks/perf/golden/small.txt"),
        Workload("sweep", ("sweep", "--param", "cpu.load_use_overlap", "--config", "vwb",
                           "--jobs", "2"), True, "benchmarks/perf/golden/sweep.txt"),
    )
}


def claims_reproduced(output: str) -> int:
    """Claims ``repro validate`` reports as reproduced (0 if it reports none)."""
    match = _CLAIMS_RE.search(output)
    return int(match.group(1)) if match else 0


@dataclass
class Pass:
    """One child process of a run and what it measured."""

    kind: str
    started: float
    wall_s: float
    setup_s: Optional[float]
    rss_mb: float
    exit_code: int
    error: Optional[str] = None


def child_env() -> Dict[str, str]:
    """The environment of every child: this one, minus ``REPRO_*`` settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(kind: str, args: List[str], out: pathlib.Path, stamp: bool) -> Pass:
    """Run ``python <args>`` to completion, stdout to ``out``; measure it.

    With ``stamp`` the child gets a pipe as its first argument and
    writes the ``time.monotonic()`` at which its imports finished.
    """
    argv, fds = [sys.executable, *args], ()
    if stamp:
        read_fd, write_fd = os.pipe()
        argv, fds = [sys.executable, "-c", _CHILD, str(write_fd), *args], (write_fd,)
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        started = time.monotonic()
        proc = subprocess.Popen(
            argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT,
            pass_fds=fds, start_new_session=True,
        )
    timer = threading.Timer(PASS_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    stamped = b""
    try:
        if stamp:
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as pipe:
                stamped = pipe.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # worker processes a pass left behind, if any
    return Pass(
        kind=kind,
        started=started,
        wall_s=ended - started,
        setup_s=float(stamped) - started if stamped else None,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        error=None if proc.returncode == 0 else f"exit code {proc.returncode}",
    )


class Run:
    """One benchmark run of one workload: its passes and scratch space."""

    def __init__(self, workload: Workload, seed: int, out: pathlib.Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out = out
        self.tmp = out / f".tmp-seed{seed}-{os.getpid()}"
        self.passes: List[Pass] = []
        #: Claims reproduced, per ``validate`` pass.
        self.claims: List[int] = []

    def setup(self) -> None:
        """Compile the sources once and time ``SETUP_PROBES`` bare imports."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
            check=True, stdout=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
        )
        for _ in range(SETUP_PROBES):
            self.passes.append(spawn("probe", [], self.tmp / "probe.out", stamp=True))

    def command(self, cache: Optional[pathlib.Path]) -> List[str]:
        args = self.workload.command(self.seed)
        return args + ["--cache-dir", str(cache)] if cache is not None else args

    def fresh_cache(self) -> Optional[pathlib.Path]:
        if not self.workload.cached:
            return None
        cache = self.tmp / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        return cache

    def checked(self, done: Pass, out: pathlib.Path) -> Pass:
        """Record ``done`` after checking its output against the golden."""
        output = out.read_text()
        if done.error is None:
            done.error = self.workload.check(output)
        if self.workload.name == "validate":
            self.claims.append(claims_reproduced(output))
        self.passes.append(done)
        return done

    def timed(self, kind: str, cache: Optional[pathlib.Path]) -> Pass:
        out = self.tmp / f"{kind}.out"
        return self.checked(spawn(kind, self.command(cache), out, stamp=True), out)

    def measure(self, seconds: float) -> None:
        """Cold (+ warm) rounds until the next round would overrun ``seconds``."""
        deadline = time.monotonic() + seconds
        while True:
            started = time.monotonic()
            cache = self.fresh_cache()
            self.timed("cold", cache)
            if cache is not None:
                for _ in range(WARM_PASSES):
                    self.timed("warm", cache)
            now = time.monotonic()
            if now + (now - started) > deadline:
                return

    def trace(self) -> dict:
        """One untraced and one traced cold pass; the tracer's report."""
        untraced = self.timed("untraced", self.fresh_cache())
        trace_dir = self.out / f"seed{self.seed}-traced"
        shutil.rmtree(trace_dir, ignore_errors=True)
        args = self.command(self.fresh_cache())
        if self.workload.name == "sweep":
            args += ["--telemetry", str(self.tmp / "telemetry")]
        tracer_args = [str(HERE / "tracer.py"), "--out", str(trace_dir), "--seed",
                       str(self.seed), "--run-id", f"{self.workload.name}-seed{self.seed}",
                       "--", *args]
        out = self.tmp / "traced.out"
        traced = self.checked(spawn("traced", tracer_args, out, stamp=False), out)
        layers = trace_dir / "layers.json"
        if not layers.is_file():
            raise RuntimeError(f"traced pass wrote no report: {traced.error}\n"
                               + out.with_suffix(".err").read_text()[-2000:])
        report = json.loads(layers.read_text())
        traced_wall = report["main_end"] - traced.started
        report["metrics"]["trace_overhead_pct"] = (traced_wall / untraced.wall_s - 1.0) * 100.0
        report["layer_sum_frac"] = report["layer_self_sum_s"] / traced_wall
        return report

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def untraced_metrics(run: Run, spec: dict) -> Dict[str, dict]:
    """The end-to-end metrics of an untraced run, as medians over its passes."""
    cold = [p for p in run.passes if p.kind == "cold"]
    warm = [p for p in run.passes if p.kind == "warm"] or cold  # no run cache: all cold
    samples = {
        "setup_s": [p.setup_s for p in run.passes if p.setup_s is not None],
        "wall_s": [p.wall_s for p in cold],
        "warm_wall_s": [p.wall_s for p in warm],
        "peak_rss_mb": [p.rss_mb for p in cold],
    }
    return {m["name"]: summarize(samples[m["name"]], m["unit"]) for m in spec["end_to_end"]}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 out: pathlib.Path, spec: dict) -> dict:
    """Run one workload and return its result record.

    ``metrics`` holds every metric of the run's section of
    ``BENCHMARK.json`` plus ``error_frac`` (failed passes over passes
    attempted) and, for ``validate``, ``claims_reproduced``.
    """
    run = Run(workload, seed, out)
    report: dict = {}
    try:
        run.setup()
        if trace:
            report = run.trace()
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            missing = sorted(set(units) - set(report["metrics"]))
            if missing:
                raise RuntimeError(f"traced run did not produce {missing}")
            metrics = {n: {"value": report["metrics"][n], "unit": u} for n, u in units.items()}
        else:
            run.measure(seconds)
            metrics = untraced_metrics(run, spec)
    finally:
        run.cleanup()
    oracle = report.get("oracle", [])
    failed = sum(p.error is not None for p in run.passes) + sum(not c["ok"] for c in oracle)
    attempted = len(run.passes) + len(oracle)
    metrics["error_frac"] = {"value": failed / attempted, "unit": "fraction"}
    if run.claims:
        metrics["claims_reproduced"] = {"value": min(run.claims), "unit": "count"}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "command": ["repro", *workload.command(seed)],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": [asdict(p) for p in run.passes],
        "oracle": oracle,
        "layer_sum_frac": report.get("layer_sum_frac"),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
    }


def describe(result: dict) -> str:
    """Human-readable lines for one workload's result."""
    kinds: Dict[str, int] = {}
    for p in result["passes"]:
        kinds[p["kind"]] = kinds.get(p["kind"], 0) + 1
    lines = [
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        + ", ".join(f"{n} {k}" for k, n in kinds.items())
        + f" — {'correct' if result['correct'] else 'INCORRECT'}"
    ]
    for name, m in result["metrics"].items():
        spread = f" (median of {m['n']}, q1 {m['q1']:.4g}, q3 {m['q3']:.4g})" if "n" in m else ""
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}{spread}")
    for p in result["passes"]:
        if p["error"] is not None:
            lines.append(f"  FAILED {p['kind']} pass: {p['error']}")
    for check in result["oracle"]:
        lines.append(f"  oracle {check['label']}: {'ok' if check['ok'] else 'MISMATCH'}")
    if result["layer_sum_frac"] is not None:
        lines.append(f"  layer self-times cover {100 * result['layer_sum_frac']:.1f}% "
                     "of the traced wall time")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec() if (ROOT / "BENCHMARK.json").is_file() else None
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"] if spec else 20,
                        help="measured time per untraced run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "results",
                        help="directory for result records and spans")
    args = parser.parse_args(argv)
    if spec is None or not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no BENCHMARK.json or repro sources under {ROOT}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        out = args.out.resolve() / name
        out.mkdir(parents=True, exist_ok=True)
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              out, spec)
        suffix = "traced" if args.trace else "untraced"
        (out / f"seed{args.seed}-{suffix}.json").write_text(json.dumps(result, indent=1))
        print(describe(result), flush=True)
        results.append(result)

    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{n}" if prefix else n): {
                "value": r["metrics"][n]["value"], "unit": r["metrics"][n]["unit"]
            }
            for r in results for n in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
