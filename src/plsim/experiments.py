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
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .drawing import PrizeSchedule, expected_payout, payouts, worst_payout
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


def _known(data: dict, names, where: str) -> dict:
    """``data`` itself, after refusing any key outside ``names``."""
    if not isinstance(data, dict):
        raise TypeError(f"{where} must be an object, got {data!r}")
    unknown = sorted(data.keys() - set(names))
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r} in {where}")
    return data


def _integer(data: dict, key: str) -> int:
    value = data[key]
    # JSON integers only: int() would truncate 1.7, and parse "7" and true
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def config_from_dict(data: dict) -> ExperimentConfig:
    try:
        _known(data, [f.name for f in fields(ExperimentConfig)], "config")
        pareto = _known(data["pareto"], ("alpha", "b"), "pareto")
        schedules = [_known(s, ("count", "multiple"), "schedule")
                     for s in data["schedules"]]
        return ExperimentConfig(
            pareto=ParetoParams(float(pareto["alpha"]), float(pareto["b"])),
            n_accounts=_integer(data, "n_accounts"),
            schedules=tuple(
                PrizeSchedule(_integer(s, "count"), float(s["multiple"]))
                for s in schedules
            ),
            draws_per_run=_integer(data, "draws_per_run"),
            runs=_integer(data, "runs"),
            var_levels=tuple(float(v) for v in data["var_levels"]),
            caps=tuple(float(c) for c in data["caps"]) if "caps" in data else None,
            master_seed=_integer(data, "master_seed"),
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
# results


@dataclass(frozen=True)
class Cell:
    """Per-run scaled values for one (schedule, VaR level) pair.

    ``values`` has shape (variants, runs): (random, bracketed) in the
    bracketing experiment; uncapped and then each cap, descending, in the cap
    experiment. A level of None denotes the analytic worst payout.
    """

    schedule: PrizeSchedule
    level: float | None
    values: np.ndarray

    @property
    def averages(self) -> list[float]:
        return [float(row.mean()) for row in self.values]

    @property
    def pct_higher(self) -> list[float | None]:
        # each variant against the previous one; the first has no baseline
        out: list[float | None] = [None]
        for prev, cur in zip(self.values, self.values[1:]):
            out.append(compare_percentage_higher(cur, prev))
        return out

    @property
    def stds(self) -> list[float | None]:
        return [std_dev(row) if row.size > 1 else None for row in self.values]


BRACKETING_CSV_COLUMNS = (
    "params", "schedule", "var_level", "random_avg", "bracket_avg",
    "pct_bracket_higher", "random_std", "bracket_std", "rel_diff_pct",
)


@dataclass(frozen=True)
class Result:
    """Cells of one experiment, schedule by schedule, each schedule's VaR
    levels followed by its worst payout."""

    config: ExperimentConfig
    cells: tuple[Cell, ...]

    @property
    def raw_payout_comparisons(self) -> int:
        """Drawings whose raw payout the cap experiment checked against the
        previous cap level; 0 for the bracketing experiment."""
        c = self.config
        return c.runs * len(c.schedules) * c.draws_per_run * len(c.caps or ())

    def cell(self, schedule_index: int, level: float | None) -> Cell:
        per_schedule = len(self.config.var_levels) + 1
        offset = schedule_index * per_schedule
        levels = list(self.config.var_levels) + [None]
        return self.cells[offset + levels.index(level)]

    def write_csv(self, stream) -> None:
        caps = self.config.caps
        writer = csv.writer(stream, lineterminator="\n")
        if caps is None:
            writer.writerow(BRACKETING_CSV_COLUMNS)
        else:
            writer.writerow(["params", "schedule", "var_level", "uncapped_avg"] + [
                f"cap_{cap:g}_{stat}" for cap in caps for stat in ("avg", "pct_higher")])
        params = self.config.pareto.label()
        for cell in self.cells:
            avgs, pcts = cell.averages, cell.pct_higher
            row = [params, cell.schedule.label(), level_label(cell.level),
                   f"{avgs[0]:.6f}"]
            if caps is None:
                row += [f"{avgs[1]:.6f}", f"{pcts[1]:.2f}"]
                row += ["" if sd is None else f"{sd:.6f}" for sd in cell.stds]
                row.append(f"{relative_difference(*avgs):.2f}")
            else:
                for avg, pct in zip(avgs[1:], pcts[1:]):
                    row += [f"{avg:.6f}", f"{pct:.2f}"]
            writer.writerow(row)

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        caps = self.config.caps
        doc = {"experiment": "bracketing" if caps is None else "caps",
               "config": config_to_dict(self.config)}
        if caps is None:
            labels = ("random", "bracket")
        else:
            doc["raw_payout_comparisons"] = self.raw_payout_comparisons
            labels = ["uncapped"] + [f"{c:g}" for c in caps]
        cells = []
        for cell in self.cells:
            values = {label: row.tolist() for label, row in zip(labels, cell.values)}
            cells.append({"schedule": cell.schedule.label(),
                          "var_level": level_label(cell.level),
                          **(values if caps is None else {"scaled": values})})
        doc["cells"] = cells
        return doc


# ---------------------------------------------------------------------------
# runs


def _population(config: ExperimentConfig, run_index: int) -> AccountPopulation:
    return generate(config.pareto, config.n_accounts,
                    _stream(config.master_seed, run_index, _POPULATION_STREAM))


def _levels(config: ExperimentConfig, raw: np.ndarray, expected: float,
            worst: float) -> list[float]:
    """VaR at each configured level, then the worst payout, scaled by
    ``expected``."""
    dist = scale(raw, expected)
    return [var_approx(dist, level) for level in config.var_levels] + [worst / expected]


def _bracketing_run(config: ExperimentConfig, run_index: int) -> np.ndarray:
    """One run: fresh population, both mechanisms, all schedules.

    Returns (n_schedules, n_levels + 1, 2) scaled values; the trailing level
    row holds the analytic worst payouts, the last axis is (random, bracket).
    """
    pop = _population(config, run_index)
    out = np.empty((len(config.schedules), len(config.var_levels) + 1, 2))
    for i, sched in enumerate(config.schedules):
        expected = expected_payout(pop, sched)
        for v, (mechanism, role) in enumerate((("random", _RANDOM_STREAM),
                                               ("bracketed", _BRACKET_STREAM))):
            rng = _stream(config.master_seed, run_index, role, i)
            raw = payouts(pop, sched, mechanism, rng, config.draws_per_run)[0]
            out[i, :, v] = _levels(config, raw, expected,
                                   worst_payout(pop, sched, mechanism))
    return out


def _caps_run(config: ExperimentConfig, run_index: int) -> np.ndarray:
    """One run of the cap protocol.

    Returns (n_schedules, n_levels + 1, n_cap_levels) scaled values; the
    trailing level row is the analytic worst. Winner sets are drawn once per
    schedule and re-priced at every cap level.
    """
    pop = _population(config, run_index)
    caps = config.caps
    capped_pops = [pop] + [apply_cap(pop, cap) for cap in caps]
    out = np.empty((len(config.schedules), len(config.var_levels) + 1,
                    len(capped_pops)))
    for i, sched in enumerate(config.schedules):
        rng = _stream(config.master_seed, run_index, _RANDOM_STREAM, i)
        raw = payouts(pop, sched, "random", rng, config.draws_per_run, caps)
        if np.any(raw[1:] > raw[:-1]):
            raise RuntimeError(
                "invariant violation: a drawing's raw payout increased "
                "after lowering the cap"
            )
        # capping preserves sort order, so the top slice caps elementwise
        top = pop.sorted_balances()[-sched.count:]
        for li, cpop in enumerate(capped_pops):
            if li > 0:
                top = np.minimum(top, caps[li - 1])
            out[i, :, li] = _levels(config, raw[li], expected_payout(cpop, sched),
                                    float(top.sum() * sched.multiple))
    return out


def run_bracketing(config: ExperimentConfig, workers: int = 1) -> Result:
    """Execute the bracketing protocol; deterministic for a fixed master seed
    regardless of ``workers``."""
    if config.caps is not None:
        raise ValueError("bracketing experiment takes a config without caps")
    return _run(_bracketing_run, config, workers)


def run_caps(config: ExperimentConfig, workers: int = 1) -> Result:
    """Execute the cap protocol; deterministic for a fixed master seed
    regardless of ``workers``."""
    if config.caps is None:
        raise ValueError("cap experiment requires a config with caps")
    return _run(_caps_run, config, workers)


def _run(run_func, config: ExperimentConfig, workers: int) -> Result:
    workers = min(workers, config.runs)
    if workers <= 1:
        per_run = [run_func(config, r) for r in range(config.runs)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map preserves submission order, so aggregation stays deterministic
            per_run = list(pool.map(partial(run_func, config), range(config.runs)))
    data = np.stack(per_run)  # (runs, n_sched, n_levels + 1, n_variants)
    levels = list(config.var_levels) + [None]
    cells = tuple(
        Cell(schedule=sched, level=level, values=data[:, i, j, :].T.copy())
        for i, sched in enumerate(config.schedules)
        for j, level in enumerate(levels)
    )
    return Result(config=config, cells=cells)
