"""Pure helpers shared by ``run.py``, ``tracer.py`` and ``compare.py``.

Nothing here imports :mod:`repro`: the helpers are about the benchmark's
own contract — metric names, robust summaries, golden output checks and
span arithmetic — so they are unit-tested without running a workload.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Repository root (this file lives in ``benchmarks/perf/``).
ROOT = pathlib.Path(__file__).resolve().parents[2]

#: The benchmark definition: workloads, metrics, units, bounds.
SPEC_PATH = ROOT / "BENCHMARK.json"

#: A metric or workload name: starts with a letter or digit, at most 64
#: characters from letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A unit such as ``s``, ``MB``, ``ns``, ``count`` or ``%``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Simulated statistics: any change in one is a correctness difference,
#: never a performance result.
SIMULATED_PREFIXES = ("sim.", "mem.", "core.")

#: Output lines that legitimately differ between runs of the same
#: command: the per-experiment timing footer and the engine summary.
_FOOTER_RE = re.compile(r"\(.* regenerated in .*\)|exec: .*")


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    """Whether ``unit`` is a legal metric unit."""
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def load_spec(path: pathlib.Path = SPEC_PATH) -> dict:
    """Read ``BENCHMARK.json`` and check every name and unit in it.

    Raises
    ------
    ValueError
        On a malformed name, unit or duplicated name.
    """
    spec = json.loads(pathlib.Path(path).read_text())
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            name = entry["name"]
            if not valid_name(name) or name in seen:
                raise ValueError(f"{section}: bad or duplicate name {name!r}")
            seen.add(name)
            if "unit" in entry and not valid_unit(entry["unit"]):
                raise ValueError(f"{section}: bad unit {entry['unit']!r} for {name}")
    return spec


def is_simulated(metric: str) -> bool:
    """Whether ``metric`` is a simulated statistic (must never change)."""
    return metric.startswith(SIMULATED_PREFIXES)


# ----------------------------------------------------------------------
# Robust summaries
# ----------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``, as ``statistics.quantiles`` gives them.

    A single value is its own quartiles.

    Raises
    ------
    ValueError
        For an empty sequence.
    """
    if not values:
        raise ValueError("no values to summarise")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values: Sequence[float], unit: str) -> Dict[str, float]:
    """The reported form of a sampled metric: median, quartiles and count."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-percentile (0..100) of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return float(ordered[rank - 1])


# ----------------------------------------------------------------------
# Golden output checks
# ----------------------------------------------------------------------


def strip_footer(text: str) -> List[str]:
    """Output lines without the timing footer and ``exec:`` summary lines."""
    return [line for line in text.splitlines() if not _FOOTER_RE.fullmatch(line)]


def golden_diff(output: str, golden: str) -> Optional[str]:
    """First difference between a command's output and its golden, or ``None``.

    Footer lines (``(… regenerated in …)`` and ``exec: …``) are ignored
    on both sides; every other line must match exactly.
    """
    got, want = strip_footer(output), strip_footer(golden)
    for i, (g, w) in enumerate(zip(got, want), 1):
        if g != w:
            return f"line {i}: expected {w!r}, got {g!r}"
    if len(got) != len(want):
        return f"expected {len(want)} lines, got {len(got)}"
    return None


def parse_table(text: str) -> Tuple[List[str], Dict[str, List[str]]]:
    """The column headers and ``{row label: cells}`` of a rendered figure table.

    The table is the block after the ``== title ==`` line: one header
    row, a dashed rule, then one row per label up to the first ``note:``
    or footer line.
    """
    lines = strip_footer(text)
    start = next(i for i, line in enumerate(lines) if line.startswith("== "))
    header = lines[start + 1].split()[1:]
    rows: Dict[str, List[str]] = {}
    for line in lines[start + 3:]:
        if not line.strip() or line.startswith("note:"):
            break
        label, *cells = line.split()
        rows[label] = cells
    return header, rows


def sweep_diff(output: str, golden: str) -> Optional[str]:
    """First difference between a sweep's table and the matching golden columns.

    The golden holds every candidate value as a column; the output holds
    the seeded subset.  Each output column must equal the golden column
    of the same header, row by row.
    """
    header, rows = parse_table(output)
    g_header, g_rows = parse_table(golden)
    if list(rows) != list(g_rows):
        return f"rows {list(rows)} differ from golden rows {list(g_rows)}"
    for j, column in enumerate(header):
        if column not in g_header:
            return f"column {column!r} is not in the golden"
        g = g_header.index(column)
        for label, cells in rows.items():
            if cells[j] != g_rows[label][g]:
                return f"{label} / {column}: expected {g_rows[label][g]}, got {cells[j]}"
    return None


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Parameters
    ----------
    spans : iterable of dict
        Span records with ``id``, ``start``, ``end`` and ``parent``
        (``0`` for a root).

    Returns
    -------
    dict
        ``{span id: self seconds}``.  Child intervals are clipped to the
        parent and merged, so overlapping children count once.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: Dict[int, float] = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_totals(spans: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["total_s"] += s["end"] - s["start"]
        t["self_s"] += own[s["id"]]
    return totals
