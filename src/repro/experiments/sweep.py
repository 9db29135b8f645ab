"""Generic parameter sweeps over :class:`~repro.cpu.system.SystemConfig`.

The named ablations cover the design axes the paper discusses; this
module generalises them: sweep *any* ``SystemConfig`` field (or
``cpu.<field>`` for CPU parameters) over a value list and get the usual
penalty table back.

CLI::

    python -m repro sweep --param dl1_banks --values 1 2 4 8
    python -m repro sweep --param cpu.load_use_overlap --values 0 1 1.5 2
    python -m repro sweep --param vwb_bits --values 1024 2048 --config vwb
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Optional, Sequence

from ..cpu.model import CPUConfig
from ..cpu.system import SystemConfig
from ..errors import ConfigurationError
from ..transforms.pipeline import OptLevel
from .report import FigureResult
from .runner import CONFIGURATIONS, ExperimentRunner, resolve_config_name


def _coerce(raw: str, example) -> object:
    """Parse a CLI string into the type of the field's current value."""
    if isinstance(example, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(example, int):
        return int(raw)
    if isinstance(example, float):
        return float(raw)
    return raw


def _with_param(base: SystemConfig, param: str, value) -> SystemConfig:
    """Return ``base`` with ``param`` (possibly ``cpu.<field>``) replaced."""
    if param.startswith("cpu."):
        cpu_field = param[len("cpu."):]
        if cpu_field not in {f.name for f in fields(CPUConfig)}:
            valid = ", ".join(f.name for f in fields(CPUConfig))
            raise ConfigurationError(f"unknown CPU parameter {cpu_field!r}; one of: {valid}")
        return replace(base, cpu=replace(base.cpu, **{cpu_field: value}))
    if param not in {f.name for f in fields(SystemConfig)}:
        valid = ", ".join(f.name for f in fields(SystemConfig))
        raise ConfigurationError(f"unknown parameter {param!r}; one of: {valid}")
    return replace(base, **{param: value})


def parse_values(param: str, raw_values: Sequence[str], base: SystemConfig) -> list:
    """Coerce CLI value strings against the parameter's current type.

    Parameters
    ----------
    param : str
        A :class:`SystemConfig` field name, or ``cpu.<field>``.
    raw_values : sequence of str
        The CLI-supplied value strings (already-typed values pass
        through unchanged).
    base : SystemConfig
        Configuration whose current field value sets the target type.

    Returns
    -------
    list
        The values, coerced to the field's type.
    """
    if param.startswith("cpu."):
        example = getattr(base.cpu, param[len("cpu."):], None)
    else:
        example = getattr(base, param, None)
    if example is None:
        example = raw_values[0]
    return [_coerce(v, example) if isinstance(v, str) else v for v in raw_values]


def run_sweep(
    param: str,
    values: Sequence,
    runner: Optional[ExperimentRunner] = None,
    config: str = "vwb",
    level: OptLevel = OptLevel.FULL,
) -> FigureResult:
    """Sweep one configuration parameter; penalties vs the SRAM baseline.

    Parameters
    ----------
    param : str
        A :class:`SystemConfig` field name, or ``cpu.<field>``.
    values : sequence
        Values to sweep (already typed, or CLI strings).
    runner : ExperimentRunner, optional
        Shared experiment runner (kernels/sizes come from it; its
        :class:`~repro.exec.engine.ExecutionEngine` receives the whole
        sweep grid as one batch).
    config : str
        Base named configuration (or alias) to modify.
    level : OptLevel
        Code optimization level for both sides.

    Returns
    -------
    FigureResult
        One series per swept value, penalties per kernel.

    Raises
    ------
    ConfigurationError
        On an empty value list, an unknown parameter name, or an
        unknown base configuration (the error lists the valid names and
        aliases; the CLI maps it to exit code 2).
    """
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    config = resolve_config_name(config)
    runner = runner or ExperimentRunner()
    base = CONFIGURATIONS[config]
    typed = parse_values(param, list(values), base)

    # One (swept, baseline) pair per value, built once: the batch and
    # the penalties below ask for the same configuration objects.
    # CPU parameters change the *core*, so the SRAM baseline must run on
    # the same core for the penalty to stay an apples-to-apples
    # memory-system comparison.
    pairs = []
    for value in typed:
        swept = (_with_param(base, param, value), f"sweep-{param}-{value}")
        if param.startswith("cpu."):
            baseline = (
                _with_param(CONFIGURATIONS["sram"], param, value),
                f"sweep-base-{param}-{value}",
            )
        else:
            baseline = ("sram", None)
        pairs.append((value, swept, baseline))
    runner.prefetch(
        [
            (cfg, kernel, level, key)
            for _, swept, baseline in pairs
            for cfg, key in (swept, baseline)
            for kernel in runner.kernels
        ]
    )

    series = {}
    for value, (swept, swept_key), (baseline, baseline_key) in pairs:
        series[f"{param}={value}"] = [
            runner.run(swept, kernel, level, cache_key=swept_key).penalty_vs(
                runner.run(baseline, kernel, level, cache_key=baseline_key)
            )
            for kernel in runner.kernels
        ]
    avgs = {k: sum(v) / len(v) for k, v in series.items()}
    best = min(avgs, key=avgs.get)
    return FigureResult(
        name=f"sweep-{param.replace('.', '-')}",
        title=f"Penalty sweep of {param} on the '{config}' configuration ({level.value} code)",
        labels=list(runner.kernels),
        series=series,
        notes=[
            "averages: " + ", ".join(f"{k}: {v:.1f}%" for k, v in avgs.items()),
            f"best setting: {best}",
        ],
    )
