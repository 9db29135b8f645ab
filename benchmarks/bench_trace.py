"""Bench: columnar traces — encode cost, replay throughput, e2e speedup.

Four guards around :mod:`repro.workloads.encode` and the opcode-dispatch
replay loop in :meth:`repro.cpu.model.InOrderCPU.run_encoded`:

- the interpreter's cost per event of building an
  :class:`~repro.workloads.encode.EncodedTrace`
  (:func:`~repro.workloads.encode.encode_trace`), at
  :attr:`~repro.transforms.pipeline.OptLevel.NONE` and at ``FULL``, is
  recorded as ``encode_ns_per_event.none``/``.full``; encoding must be
  no slower than materialising the event-object list, which decodes
  the same columns;
- replaying the encoded form through every named configuration must be
  at least :data:`MIN_REPLAY_SPEEDUP` times faster than object replay
  (the margin the ``trace-fastpath`` CI job enforces — locally the
  pooled ratio lands well above it), with bit-identical cycle counts;
- the end-to-end ``penalties`` shape (trace construction plus one replay
  per system, all twelve kernels against all six configurations, null
  probe) must beat the pre-PR object path by the same enforced margin;
  the measured ratio is printed against the 3x design target;
- hit-run elimination (:mod:`repro.workloads.elim`), which jumps the
  replay cursors over whole guaranteed-hit runs, must be bit-exact
  with the per-event pass and, for the eligible configurations on the
  high-locality kernels, reach :data:`MIN_ELIM_SERIAL_SPEEDUP`,
  recorded as ``elim_speedup_serial``.

Timings are best-of-N wall clock after a warm-up pass, matching
``bench_profile.py``.
"""

from __future__ import annotations

import time

from repro.cpu.system import warm_regions_of
from repro.experiments.penalties import NVM_CONFIGS
from repro.experiments.runner import make_system
from repro.telemetry import metric
from repro.transforms.pipeline import OptLevel, optimize
from repro.workloads import build_kernel, kernel_names, materialize_trace
from repro.workloads.encode import encode_trace

#: Every system of the penalties grid: the SRAM baseline plus the NVM organisations.
ALL_CONFIGS = ("sram",) + NVM_CONFIGS
#: Kernel subset for the replay-throughput guard (full list for the e2e pass).
THROUGHPUT_KERNELS = ("gemm", "atax", "bicg", "mvt")
REPEATS = 5
E2E_REPEATS = 2
#: Hard floor enforced in CI; see E2E_TARGET for the design goal.
MIN_REPLAY_SPEEDUP = 2.0
#: Headline end-to-end goal of the columnar-trace work (reported, not asserted).
E2E_TARGET = 3.0
#: Kernels whose working sets live in the arrays' LRU stacks almost
#: entirely — where elimination covers >95% of the trace.
HIGH_LOCALITY = ("gemm", "doitgen")
#: The elimination-eligible configurations (plain set-associative LRU
#: hit paths: the SRAM baseline, the NVM drop-in, and the hybrid
#: partition; VWB/L0/EMSHR intercept hits and stay per-event).
ELIM_CONFIGS = ("sram", "dropin", "hybrid")
#: Floor for serial-lane elimination on the high-locality kernels: the
#: >=1.5x design goal of the elimination work, enforced.  Measured
#: ~2.2x, so the floor has headroom against noisy CI boxes.
MIN_ELIM_SERIAL_SPEEDUP = 1.5


def _programs(kernels):
    return {name: build_kernel(name) for name in kernels}


def test_encode_cost_per_event(bench_metrics):
    for level in (OptLevel.NONE, OptLevel.FULL):
        programs = [optimize(p, level) for p in _programs(THROUGHPUT_KERNELS).values()]
        events = sum(len(encode_trace(program)) for program in programs)  # also warms
        enc_times, obj_times = [], []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for program in programs:
                encode_trace(program)
            enc_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            for program in programs:
                materialize_trace(program)
            obj_times.append(time.perf_counter() - start)

        ns_per_event = min(enc_times) * 1e9 / events
        bench_metrics.setdefault("trace", {})[f"encode_ns_per_event.{level.value}"] = metric(
            ns_per_event, unit="ns", higher_is_better=False
        )
        print(
            f"\nencode cost at {level.name}: {ns_per_event:.0f} ns/event over {events} "
            f"events, best encode {min(enc_times):.3f}s, best materialize "
            f"{min(obj_times):.3f}s"
        )
        assert min(enc_times) <= min(obj_times), (
            f"encode_trace ({min(enc_times):.3f}s) is slower than materialize_trace "
            f"({min(obj_times):.3f}s), which decodes the same columns"
        )


def _replay_pass(material, encoded):
    start = time.perf_counter()
    cycles = []
    for config, events, trace, regions in material:
        system = make_system(config)
        result = system.run(trace if encoded else events, warm_regions=regions)
        cycles.append(result.cycles)
    return time.perf_counter() - start, cycles


def test_encoded_replay_throughput(bench_metrics):
    programs = _programs(THROUGHPUT_KERNELS)
    material = [
        (config, materialize_trace(program), encode_trace(program), warm_regions_of(program))
        for config in ALL_CONFIGS
        for program in programs.values()
    ]
    _replay_pass(material, encoded=True)  # warm caches, imports, allocator

    obj_times, enc_times = [], []
    obj_cycles = enc_cycles = None
    for _ in range(REPEATS):
        elapsed, obj_cycles = _replay_pass(material, encoded=False)
        obj_times.append(elapsed)
        elapsed, enc_cycles = _replay_pass(material, encoded=True)
        enc_times.append(elapsed)

    # The fast path is only admissible because it is bit-exact.
    assert enc_cycles == obj_cycles

    ratio = min(obj_times) / min(enc_times)
    bench_metrics.setdefault("trace", {})["replay_speedup"] = metric(ratio, unit="x")
    print(
        f"\nreplay throughput: best object {min(obj_times):.3f}s, "
        f"best encoded {min(enc_times):.3f}s, speedup x{ratio:.2f}"
    )
    assert ratio >= MIN_REPLAY_SPEEDUP, (
        f"encoded replay is only x{ratio:.2f} the object path "
        f"(CI floor x{MIN_REPLAY_SPEEDUP})"
    )


def _penalties_pass(programs, regions, encoded):
    """One full penalties-shaped pass: trace construction + 6 replays each."""
    start = time.perf_counter()
    cycles = []
    for name, program in programs.items():
        trace = encode_trace(program) if encoded else materialize_trace(program)
        for config in ALL_CONFIGS:
            system = make_system(config)
            result = system.run(trace, warm_regions=regions[name])
            cycles.append(result.cycles)
    return time.perf_counter() - start, cycles


def test_penalties_end_to_end_speedup(bench_metrics):
    programs = _programs(kernel_names())
    regions = {name: warm_regions_of(p) for name, p in programs.items()}
    _penalties_pass(programs, regions, encoded=True)  # warm-up

    obj_times, enc_times = [], []
    obj_cycles = enc_cycles = None
    for _ in range(E2E_REPEATS):
        elapsed, obj_cycles = _penalties_pass(programs, regions, encoded=False)
        obj_times.append(elapsed)
        elapsed, enc_cycles = _penalties_pass(programs, regions, encoded=True)
        enc_times.append(elapsed)

    assert enc_cycles == obj_cycles

    ratio = min(obj_times) / min(enc_times)
    bench_metrics.setdefault("trace", {})["e2e_speedup"] = metric(ratio, unit="x")
    met = "meets" if ratio >= E2E_TARGET else "below"
    print(
        f"\npenalties end-to-end: best object {min(obj_times):.3f}s, "
        f"best encoded {min(enc_times):.3f}s, speedup x{ratio:.2f} "
        f"({met} the x{E2E_TARGET:.0f} design target)"
    )
    assert ratio >= MIN_REPLAY_SPEEDUP, (
        f"end-to-end penalties speedup is only x{ratio:.2f} "
        f"(CI floor x{MIN_REPLAY_SPEEDUP})"
    )


def test_elim_serial_speedup(bench_metrics):
    """Serial-lane elimination hits the >=1.5x goal where it applies.

    Times the eligible configurations (:data:`ELIM_CONFIGS`) on the
    high-locality kernels, forced on vs forced off, asserts
    bit-identical cycles and the :data:`MIN_ELIM_SERIAL_SPEEDUP` floor.
    """
    from repro.workloads.elim import forced

    programs = _programs(HIGH_LOCALITY)
    material = [
        (encode_trace(program), warm_regions_of(program))
        for program in programs.values()
    ]

    def serial_pass(on):
        cycles = []
        with forced(on):
            start = time.perf_counter()
            for trace, regions in material:
                for config in ELIM_CONFIGS:
                    system = make_system(config)
                    result = system.run(trace, warm_regions=regions)
                    cycles.append(result.cycles)
            elapsed = time.perf_counter() - start
        return elapsed, cycles

    serial_pass(True)  # warm-up: profiles the traces, warms the arrays
    serial_pass(False)
    # On and off passes alternate, so host drift lands on both sides
    # alike instead of deciding the ratio between two blocks of passes.
    on_times, off_times = [], []
    for _ in range(REPEATS):
        elapsed, on_cycles = serial_pass(True)
        on_times.append(elapsed)
        elapsed, off_cycles = serial_pass(False)
        off_times.append(elapsed)
        assert on_cycles == off_cycles
    on_time, off_time = min(on_times), min(off_times)

    ratio = off_time / on_time
    bench_metrics.setdefault("trace", {})["elim_speedup_serial"] = metric(
        ratio, unit="x"
    )
    print(
        f"\nelimination serial lanes ({', '.join(ELIM_CONFIGS)} on "
        f"{', '.join(HIGH_LOCALITY)}): best off {off_time:.3f}s, best on "
        f"{on_time:.3f}s, speedup x{ratio:.2f} "
        f"(floor x{MIN_ELIM_SERIAL_SPEEDUP})"
    )
    assert ratio >= MIN_ELIM_SERIAL_SPEEDUP, (
        f"serial eliminated replay is only x{ratio:.2f} the per-event "
        f"path (floor x{MIN_ELIM_SERIAL_SPEEDUP})"
    )
