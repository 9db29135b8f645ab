"""Compare two benchmark result directories, per workload and metric.

Usage::

    python benchmarks/perf/compare.py BASE_DIR NEW_DIR

Each directory is an ``--out`` of ``run.py`` (default
``benchmarks/perf/results``) holding runs of several seeds, untraced and
traced.  Runs pair up by seed and mode.  For every (workload, metric)
the report gives each side's median and quartiles, the share of pairs
the new side won (ties count for neither), and a verdict:

``improved``
    the new side won at least nine tenths of the pairs and the medians
    differ by more than the base's quartile distance;
``regressed``
    the new median is worse than the base's by more than the metric's
    bound (end-to-end metrics only) — fails;
``unresolved``
    the base's own spread is wider than the bound, unless every new run
    beats every base run;
``within bound``
    none of the above;
``worse`` / ``within noise``
    the mirror of ``improved`` for per-layer metrics, which have no
    bound and never fail;
``MISSING``
    the metric is on one side only — fails, so a dropped metric cannot
    blind the comparison;
``identical`` / ``DIFFERS``
    for simulated statistics (``sim.*``, ``mem.*``, ``core.*``),
    ``error_frac`` and ``claims_reproduced``, which must not change at
    all — ``DIFFERS`` fails, as does a non-zero ``error_frac``.

Exits 1 when any verdict fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

from harness import is_simulated, load_spec, quartiles

#: Correctness numbers recorded next to the metrics; never allowed to change.
EXACT = ("error_frac", "claims_reproduced")

Key = Tuple[int, int]  # (seed, traced)


def load_results(root: pathlib.Path) -> Dict[Tuple[str, str], Dict[Key, float]]:
    """``{(workload, metric): {(seed, traced): value}}`` of every run under ``root``."""
    table: Dict[Tuple[str, str], Dict[Key, float]] = {}
    for path in sorted(root.glob("*/seed*-*traced.json")):
        doc = json.loads(path.read_text())
        key = (doc["seed"], doc["trace"])
        for name, metric in doc["metrics"].items():
            table.setdefault((doc["workload"], name), {})[key] = metric["value"]
    return table


def verdict(base: Dict[Key, float], new: Dict[Key, float], better: str = "lower",
            bound: Optional[float] = None, exact: bool = False) -> Tuple[str, bool, float]:
    """``(verdict, fails, share of pairs won)`` for one metric of one workload."""
    if not base or not new:
        return "MISSING", True, 0.0
    pairs = [(base[k], new[k]) for k in base if k in new]
    if exact:
        if not pairs:
            return "no common seeds", True, 0.0
        same = all(b == n for b, n in pairs)
        return ("identical" if same else "DIFFERS"), not same, 0.0
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (n - b) < 0 for b, n in pairs)
    lost = sum(sign * (n - b) > 0 for b, n in pairs)
    share = won / len(pairs) if pairs else 0.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, n_med, _ = quartiles(list(new.values()))
    worse = sign * (n_med - b_med)  # > 0: the new side is worse
    spread = b_q3 - b_q1
    if pairs and won >= 0.9 * len(pairs) and -worse > spread:
        return "improved", False, share
    if bound is None:
        if pairs and lost >= 0.9 * len(pairs) and worse > spread:
            return "worse", False, share
        return "within noise", False, share
    if worse > bound * abs(b_med):
        return "regressed", True, share
    beats_all = all(sign * (n - b) < 0 for n in new.values() for b in base.values())
    if spread > bound * abs(b_med) and not beats_all:
        return "unresolved", False, share
    return "within bound", False, share


def compare(base_dir: pathlib.Path, new_dir: pathlib.Path, spec: dict) -> List[dict]:
    """One row per (workload, metric) present on either side."""
    base, new = load_results(base_dir), load_results(new_dir)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload, metric in sorted(set(base) | set(new)):
        b, n = base.get((workload, metric), {}), new.get((workload, metric), {})
        m = declared.get(metric, {})
        exact = metric in EXACT or is_simulated(metric)
        word, fails, share = verdict(b, n, m.get("better", "lower"), m.get("bound"), exact)
        if metric == "error_frac" and any(v > 0 for v in n.values()):
            word, fails = "FAILED PASSES", True
        rows.append({
            "workload": workload, "metric": metric, "verdict": word, "fails": fails,
            "won": share,
            "base": quartiles(list(b.values())) if b else None,
            "new": quartiles(list(n.values())) if n else None,
        })
    return rows


def render(rows: List[dict]) -> str:
    """The comparison as an aligned text table."""

    def q(v):
        return "-" if v is None else f"{v[1]:.5g} [{v[0]:.5g}, {v[2]:.5g}]"

    lines = [f"{'workload':10s} {'metric':34s} {'base median [q1, q3]':32s} "
             f"{'new median [q1, q3]':32s} {'won':>5s}  verdict"]
    for r in rows:
        lines.append(f"{r['workload']:10s} {r['metric']:34s} {q(r['base']):32s} "
                     f"{q(r['new']):32s} {r['won']:5.0%}  {r['verdict']}")
    failing = [r for r in rows if r["fails"]]
    lines.append(f"{len(rows)} comparisons, {len(failing)} failing"
                 + (": " + ", ".join(f"{r['workload']}/{r['metric']}" for r in failing)
                    if failing else ""))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path, help="result directory of the base code")
    parser.add_argument("new", type=pathlib.Path, help="result directory of the changed code")
    args = parser.parse_args(argv)
    rows = compare(args.base, args.new, load_spec())
    print(render(rows))
    return 1 if any(r["fails"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
