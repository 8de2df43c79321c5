"""Monte Carlo experiment protocols for the two risk-management mechanisms.

Bracketing experiment (per run): generate a fresh population, perform
``draws_per_run`` drawings under the random mechanism and the same number
under the bracketed mechanism for every schedule, scale each payout by the
expected payout of that sample, and record the VaR approximations plus the
analytic worst payout for both mechanisms. Aggregates across runs compare
the two mechanisms.

Cap experiment (per run): generate a fresh population, draw winner sets once
per schedule under the random mechanism, then re-price the *same* winner sets
against the balances truncated at each cap level (uncapped first, then each
cap in descending order), rescaling by the capped sample's expected payout
and re-sorting before reading off VaR approximations. The paired design is
essential: lowering the cap can never increase a drawing's raw payout, and
the engine verifies that for every drawing.

Runs are independent: every run derives its generator substreams from the
master seed and its own index, so results are bit-identical regardless of
how many worker processes execute them.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .drawing import (
    PrizeSchedule,
    bracketed_payouts,
    expected_payout,
    random_payouts,
    random_winner_matrix,
    worst_payout,
)
from .pareto import ParetoParams
from .population import AccountPopulation, apply_cap, generate
from .risk import (
    compare_percentage_higher,
    relative_difference,
    scale,
    std_dev,
    var_approx,
)

DEFAULT_SEED = 42

DEFAULT_SCHEDULES = (
    PrizeSchedule(1000, 1.0),
    PrizeSchedule(500, 2.0),
    PrizeSchedule(100, 9.0),
    PrizeSchedule(10, 99.0),
)
DEFAULT_CAPS = (250_000.0, 50_000.0, 10_000.0)
BRACKETING_VAR_LEVELS = (0.05, 0.01, 0.001, 0.0001)
CAPS_VAR_LEVELS = (0.05, 0.01, 0.001)

# substream roles: (master_seed, run, role, schedule) -> independent stream
_POPULATION_STREAM = 0
_RANDOM_STREAM = 1
_BRACKET_STREAM = 2


@dataclass(frozen=True)
class ExperimentConfig:
    pareto: ParetoParams
    n_accounts: int
    schedules: tuple[PrizeSchedule, ...]
    draws_per_run: int
    runs: int
    var_levels: tuple[float, ...]
    caps: tuple[float, ...] | None = None
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "schedules", tuple(self.schedules))
        object.__setattr__(self, "var_levels", tuple(self.var_levels))
        if self.caps is not None:
            object.__setattr__(self, "caps", tuple(float(c) for c in self.caps))
        if not self.schedules:
            raise ValueError("config needs at least one prize schedule")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.draws_per_run < 1:
            raise ValueError("draws_per_run must be >= 1")
        if self.n_accounts < max(s.count for s in self.schedules):
            raise ValueError("n_accounts must cover the largest prize count")
        for lvl in self.var_levels:
            if not 0.0 < lvl < 1.0:
                raise ValueError(f"VaR level {lvl} outside (0, 1)")
        if self.caps is not None:
            if not self.caps:
                raise ValueError("caps, when given, must be non-empty")
            if any(not c > 0.0 for c in self.caps):
                raise ValueError("caps must be positive")
            if any(hi <= lo for hi, lo in zip(self.caps, self.caps[1:])):
                raise ValueError("caps must be strictly descending")


def bracketing_config(pareto: ParetoParams | None = None, **overrides) -> ExperimentConfig:
    """Full-scale bracketing setup: 100,000 accounts, 10,000 draws, 200 runs."""
    base = ExperimentConfig(
        pareto=pareto or ParetoParams(1.04, 150.0),
        n_accounts=100_000,
        schedules=DEFAULT_SCHEDULES,
        draws_per_run=10_000,
        runs=200,
        var_levels=BRACKETING_VAR_LEVELS,
        caps=None,
        master_seed=DEFAULT_SEED,
    )
    return replace(base, **overrides) if overrides else base


def caps_config(pareto: ParetoParams | None = None, **overrides) -> ExperimentConfig:
    """Full-scale cap setup: 1,000 draws, 2,000 runs, caps 250k/50k/10k."""
    base = ExperimentConfig(
        pareto=pareto or ParetoParams(1.04, 150.0),
        n_accounts=100_000,
        schedules=DEFAULT_SCHEDULES,
        draws_per_run=1_000,
        runs=2_000,
        var_levels=CAPS_VAR_LEVELS,
        caps=DEFAULT_CAPS,
        master_seed=DEFAULT_SEED,
    )
    return replace(base, **overrides) if overrides else base


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {
        "pareto": {"alpha": config.pareto.alpha, "b": config.pareto.b},
        "n_accounts": config.n_accounts,
        "schedules": [
            {"count": s.count, "multiple": s.multiple} for s in config.schedules
        ],
        "draws_per_run": config.draws_per_run,
        "runs": config.runs,
        "var_levels": list(config.var_levels),
        "master_seed": config.master_seed,
    }
    if config.caps is not None:
        out["caps"] = list(config.caps)
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            pareto=ParetoParams(float(data["pareto"]["alpha"]),
                                float(data["pareto"]["b"])),
            n_accounts=int(data["n_accounts"]),
            schedules=tuple(
                PrizeSchedule(int(s["count"]), float(s["multiple"]))
                for s in data["schedules"]
            ),
            draws_per_run=int(data["draws_per_run"]),
            runs=int(data["runs"]),
            var_levels=tuple(float(v) for v in data["var_levels"]),
            caps=tuple(float(c) for c in data["caps"]) if "caps" in data else None,
            master_seed=int(data["master_seed"]),
        )
    except KeyError as exc:
        raise ValueError(f"config is missing required field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"config field has the wrong type: {exc}") from exc


def level_label(level: float | None) -> str:
    """Human label for a VaR level; None denotes the analytic worst payout."""
    return "worst" if level is None else f"{level * 100:g}%"


def _stream(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


# ---------------------------------------------------------------------------
# bracketing experiment


@dataclass(frozen=True)
class BracketingCell:
    """Per-run scaled payouts for one (schedule, VaR level) pair."""

    schedule: PrizeSchedule
    level: float | None
    random_values: np.ndarray
    bracket_values: np.ndarray

    @property
    def random_avg(self) -> float:
        return float(self.random_values.mean())

    @property
    def bracket_avg(self) -> float:
        return float(self.bracket_values.mean())

    @property
    def pct_bracket_higher(self) -> float:
        return compare_percentage_higher(self.bracket_values, self.random_values)

    @property
    def random_std(self) -> float | None:
        return std_dev(self.random_values) if self.random_values.size > 1 else None

    @property
    def bracket_std(self) -> float | None:
        return std_dev(self.bracket_values) if self.bracket_values.size > 1 else None

    @property
    def rel_diff_pct(self) -> float:
        return relative_difference(self.random_avg, self.bracket_avg)


BRACKETING_CSV_COLUMNS = (
    "params", "schedule", "var_level", "random_avg", "bracket_avg",
    "pct_bracket_higher", "random_std", "bracket_std", "rel_diff_pct",
)


@dataclass(frozen=True)
class BracketingResult:
    config: ExperimentConfig
    cells: tuple[BracketingCell, ...]

    def cell(self, schedule_index: int, level: float | None) -> BracketingCell:
        per_schedule = len(self.config.var_levels) + 1
        offset = schedule_index * per_schedule
        levels = list(self.config.var_levels) + [None]
        return self.cells[offset + levels.index(level)]

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(BRACKETING_CSV_COLUMNS)
        params = self.config.pareto.label()
        for cell in self.cells:
            writer.writerow([
                params,
                cell.schedule.label(),
                level_label(cell.level),
                f"{cell.random_avg:.6f}",
                f"{cell.bracket_avg:.6f}",
                f"{cell.pct_bracket_higher:.2f}",
                "" if cell.random_std is None else f"{cell.random_std:.6f}",
                "" if cell.bracket_std is None else f"{cell.bracket_std:.6f}",
                f"{cell.rel_diff_pct:.2f}",
            ])

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "experiment": "bracketing",
            "config": config_to_dict(self.config),
            "cells": [
                {
                    "schedule": cell.schedule.label(),
                    "var_level": level_label(cell.level),
                    "random": cell.random_values.tolist(),
                    "bracket": cell.bracket_values.tolist(),
                }
                for cell in self.cells
            ],
        }


def _bracketing_run(config: ExperimentConfig, run_index: int) -> np.ndarray:
    """One run: fresh population, both mechanisms, all schedules.

    Returns (n_schedules, n_levels + 1, 2) scaled values; the trailing level
    row holds the analytic worst payouts, the last axis is (random, bracket).
    """
    pop = generate(config.pareto, config.n_accounts,
                   _stream(config.master_seed, run_index, _POPULATION_STREAM))
    n_levels = len(config.var_levels)
    out = np.empty((len(config.schedules), n_levels + 1, 2))
    for i, sched in enumerate(config.schedules):
        expected = expected_payout(pop, sched)
        rng_random = _stream(config.master_seed, run_index, _RANDOM_STREAM, i)
        rng_bracket = _stream(config.master_seed, run_index, _BRACKET_STREAM, i)
        random_dist = scale(
            random_payouts(pop, sched, rng_random, config.draws_per_run), expected)
        bracket_dist = scale(
            bracketed_payouts(pop, sched, rng_bracket, config.draws_per_run), expected)
        for j, level in enumerate(config.var_levels):
            out[i, j, 0] = var_approx(random_dist, level)
            out[i, j, 1] = var_approx(bracket_dist, level)
        out[i, n_levels, 0] = worst_payout(pop, sched, "random") / expected
        out[i, n_levels, 1] = worst_payout(pop, sched, "bracketed") / expected
    return out


def run_bracketing(config: ExperimentConfig, workers: int = 1) -> BracketingResult:
    """Execute the bracketing protocol; deterministic for a fixed master seed
    regardless of ``workers``."""
    if config.caps is not None:
        raise ValueError("bracketing experiment takes a config without caps")
    per_run = _map_runs(_bracketing_run, config, workers)
    data = np.stack(per_run)  # (runs, n_sched, n_levels + 1, 2)
    levels = list(config.var_levels) + [None]
    cells = tuple(
        BracketingCell(
            schedule=sched,
            level=level,
            random_values=data[:, i, j, 0].copy(),
            bracket_values=data[:, i, j, 1].copy(),
        )
        for i, sched in enumerate(config.schedules)
        for j, level in enumerate(levels)
    )
    return BracketingResult(config=config, cells=cells)


# ---------------------------------------------------------------------------
# cap experiment


@dataclass(frozen=True)
class CapCell:
    """Per-run scaled payouts for one (schedule, VaR level) across cap levels.

    ``values`` has shape (n_cap_levels, runs); row 0 is uncapped, later rows
    follow the configured caps in descending order.
    """

    schedule: PrizeSchedule
    level: float | None
    values: np.ndarray

    @property
    def averages(self) -> list[float]:
        return [float(row.mean()) for row in self.values]

    @property
    def pct_higher(self) -> list[float | None]:
        # each cap level against the previous one; uncapped has no baseline
        out: list[float | None] = [None]
        for prev, cur in zip(self.values, self.values[1:]):
            out.append(compare_percentage_higher(cur, prev))
        return out


@dataclass(frozen=True)
class CapResult:
    config: ExperimentConfig
    cells: tuple[CapCell, ...]
    raw_payout_comparisons: int

    def cell(self, schedule_index: int, level: float | None) -> CapCell:
        per_schedule = len(self.config.var_levels) + 1
        offset = schedule_index * per_schedule
        levels = list(self.config.var_levels) + [None]
        return self.cells[offset + levels.index(level)]

    def csv_columns(self) -> tuple[str, ...]:
        cols = ["params", "schedule", "var_level", "uncapped_avg"]
        for cap in self.config.caps:
            cols.append(f"cap_{cap:g}_avg")
            cols.append(f"cap_{cap:g}_pct_higher")
        return tuple(cols)

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.csv_columns())
        params = self.config.pareto.label()
        for cell in self.cells:
            avgs = cell.averages
            pcts = cell.pct_higher
            row = [params, cell.schedule.label(), level_label(cell.level),
                   f"{avgs[0]:.6f}"]
            for avg, pct in zip(avgs[1:], pcts[1:]):
                row.append(f"{avg:.6f}")
                row.append(f"{pct:.2f}")
            writer.writerow(row)

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        cap_labels = ["uncapped"] + [f"{c:g}" for c in self.config.caps]
        return {
            "experiment": "caps",
            "config": config_to_dict(self.config),
            "raw_payout_comparisons": self.raw_payout_comparisons,
            "cells": [
                {
                    "schedule": cell.schedule.label(),
                    "var_level": level_label(cell.level),
                    "scaled": {
                        label: cell.values[li].tolist()
                        for li, label in enumerate(cap_labels)
                    },
                }
                for cell in self.cells
            ],
        }


def _caps_run(config: ExperimentConfig, run_index: int) -> np.ndarray:
    """One run of the cap protocol.

    Returns (n_schedules, n_levels + 1, n_cap_levels) scaled values; the
    trailing level row is the analytic worst. Winner sets are drawn once per
    schedule and re-priced at every cap level.
    """
    pop = generate(config.pareto, config.n_accounts,
                   _stream(config.master_seed, run_index, _POPULATION_STREAM))
    caps = config.caps
    capped_pops: list[AccountPopulation] = [pop]
    capped_pops += [apply_cap(pop, cap) for cap in caps]
    n_levels = len(config.var_levels)
    out = np.empty((len(config.schedules), n_levels + 1, len(capped_pops)))
    for i, sched in enumerate(config.schedules):
        rng = _stream(config.master_seed, run_index, _RANDOM_STREAM, i)
        winners = random_winner_matrix(pop, sched, rng, config.draws_per_run)
        drawn = pop.balances[winners]  # (draws, count)
        # capping preserves sort order, so the top slice caps elementwise
        top = pop.sorted_balances()[-sched.count:]
        previous_raw = None
        for li, cpop in enumerate(capped_pops):
            if li == 0:
                balances_won, top_capped = drawn, top
            else:
                balances_won = np.minimum(drawn, caps[li - 1])
                top_capped = np.minimum(top, caps[li - 1])
            raw = balances_won.sum(axis=1) * sched.multiple
            if previous_raw is not None and np.any(raw > previous_raw):
                raise RuntimeError(
                    "invariant violation: a drawing's raw payout increased "
                    "after lowering the cap"
                )
            previous_raw = raw
            expected = expected_payout(cpop, sched)
            dist = scale(raw, expected)
            for j, level in enumerate(config.var_levels):
                out[i, j, li] = var_approx(dist, level)
            out[i, n_levels, li] = float(top_capped.sum() * sched.multiple) / expected
    return out


def run_caps(config: ExperimentConfig, workers: int = 1) -> CapResult:
    """Execute the cap protocol; deterministic for a fixed master seed
    regardless of ``workers``."""
    if config.caps is None:
        raise ValueError("cap experiment requires a config with caps")
    per_run = _map_runs(_caps_run, config, workers)
    data = np.stack(per_run)  # (runs, n_sched, n_levels + 1, n_cap_levels)
    levels = list(config.var_levels) + [None]
    cells = tuple(
        CapCell(
            schedule=sched,
            level=level,
            values=data[:, i, j, :].T.copy(),
        )
        for i, sched in enumerate(config.schedules)
        for j, level in enumerate(levels)
    )
    comparisons = (config.runs * len(config.schedules)
                   * config.draws_per_run * len(config.caps))
    return CapResult(config=config, cells=cells,
                     raw_payout_comparisons=comparisons)


# ---------------------------------------------------------------------------
# run scheduling


def _map_runs(run_func, config: ExperimentConfig, workers: int) -> list[np.ndarray]:
    workers = min(workers, config.runs)
    if workers <= 1:
        return [run_func(config, r) for r in range(config.runs)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map preserves submission order, so aggregation stays deterministic
        return list(pool.map(partial(run_func, config), range(config.runs)))
