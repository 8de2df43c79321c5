"""Monte Carlo experiment protocols for the two risk-management mechanisms.

Both experiments share one protocol per run: generate a fresh population;
for every schedule and mechanism, perform ``draws_per_run`` drawings and
price them at each price level, a cap being the level at which every balance
is truncated; sort each level's raw payouts, read the VaR order statistics at
``var_rank`` and the analytic worst payout, and scale them by the
sample's expected payout at that level, from the mean of the capped balances.
The config's caps alone pick the variants, mechanisms times price levels.
Without caps (bracketing experiment) they are the random and the bracketed
mechanism, uncapped. With caps (cap experiment) they are the random mechanism
uncapped and then at each cap, descending: the *same* winner sets are
re-priced at every cap. The paired design is essential: lowering the cap can
never increase a drawing's raw payout, and the engine checks every drawing.

Runs are independent: every run derives its generator substreams from the
master seed and its own index, so results are bit-identical regardless of
how many worker processes execute them.

``prepare_engine_process`` sets up a process that plsim owns: the ``plsim``
command calls it in its own process before every experiment, at any worker
count, and each pool worker before its first run. It does two things. Under
glibc it keeps the arrays a run frees for the next block and the next run to
reuse, where the default thresholds hand them back to the OS and fault them
in again page by page. And unless the process has loaded OpenSSL already, it
blocks ``_hashlib``, so that ``numpy.random``, imported at the first run,
loads no OpenSSL; ``hashlib`` and ``hmac`` then use CPython's built-in hashes
in that process. A worker that a fork server forks after loading OpenSSL, as
CPython's does from 3.14 to authenticate the request, keeps it. It changes no
output. A library call leaves its caller's process as it is: its allocator
and its imports.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .drawing import (MECHANISMS, PrizeSchedule, expected_payout, payouts, require_caps,
                      worst_payout)
from .pareto import ParetoParams
from .population import AccountPopulation, generate, require_drawable

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

# glibc's mallopt parameters, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# substream roles: (master_seed, run, role, schedule) -> independent stream
_POPULATION_STREAM = 0
_DRAW_STREAMS = {"random": 1, "bracketed": 2}


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
        for name in ("n_accounts", "draws_per_run", "runs", "master_seed"):
            value = getattr(self, name)
            # True would run once with seed 1, and 2.5 fail inside numpy
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(self, "schedules", tuple(self.schedules))
        object.__setattr__(self, "var_levels", tuple(self.var_levels))
        if self.caps is not None:
            caps = tuple(self.caps)
            require_caps(caps)  # before float() can take "7" or True
            object.__setattr__(self, "caps", tuple(float(c) for c in caps))
        if not self.schedules:
            raise ValueError("config needs at least one prize schedule")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.draws_per_run < 1:
            raise ValueError("draws_per_run must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.n_accounts < max(s.count for s in self.schedules):
            raise ValueError("n_accounts must cover the largest prize count")
        require_drawable(self.pareto, self.n_accounts,
                         max(s.multiple for s in self.schedules))
        for lvl in self.var_levels:
            if not 0.0 < lvl < 1.0:
                raise ValueError(f"VaR level {lvl} outside (0, 1)")
        if self.caps is not None:
            if not self.caps:
                raise ValueError("caps, when given, must be non-empty")


def bracketing_config(pareto: ParetoParams | None = None, **overrides) -> ExperimentConfig:
    """Full-scale bracketing setup: 100,000 accounts, 10,000 draws, 200 runs."""
    return ExperimentConfig(**{
        "pareto": pareto or ParetoParams(1.04, 150.0), "n_accounts": 100_000,
        "schedules": DEFAULT_SCHEDULES, "draws_per_run": 10_000, "runs": 200,
        "var_levels": BRACKETING_VAR_LEVELS, **overrides})


def caps_config(pareto: ParetoParams | None = None, **overrides) -> ExperimentConfig:
    """Full-scale cap setup: 1,000 draws, 2,000 runs, caps 250k/50k/10k."""
    return bracketing_config(pareto, **{
        "draws_per_run": 1_000, "runs": 2_000, "var_levels": CAPS_VAR_LEVELS,
        "caps": DEFAULT_CAPS, **overrides})


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


_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
               list: (list, "a list")}


def _typed(value, kind: type, name: str):
    # JSON values only: int() and float() would truncate 1.7 and parse "7" and true
    types, what = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{name} must be {what}, got {value!r}")
    return kind(value)


def _floats(data: dict, key: str) -> tuple[float, ...]:
    return tuple(_typed(v, float, key) for v in _typed(data[key], list, key))


def config_from_dict(data: dict) -> ExperimentConfig:
    try:
        _known(data, [f.name for f in fields(ExperimentConfig)], "config")
        pareto = _known(data["pareto"], ("alpha", "b"), "pareto")
        schedules = [_known(s, ("count", "multiple"), "schedule")
                     for s in _typed(data["schedules"], list, "schedules")]
        return ExperimentConfig(
            pareto=ParetoParams(_typed(pareto["alpha"], float, "alpha"),
                                _typed(pareto["b"], float, "b")),
            n_accounts=_typed(data["n_accounts"], int, "n_accounts"),
            schedules=tuple(
                PrizeSchedule(_typed(s["count"], int, "count"),
                              _typed(s["multiple"], float, "multiple"))
                for s in schedules
            ),
            draws_per_run=_typed(data["draws_per_run"], int, "draws_per_run"),
            runs=_typed(data["runs"], int, "runs"),
            var_levels=_floats(data, "var_levels"),
            caps=_floats(data, "caps") if "caps" in data else None,
            master_seed=_typed(data["master_seed"], int, "master_seed"),
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
            out.append(float(np.mean(cur > prev) * 100.0))
        return out

    @property
    def stds(self) -> list[float | None]:
        # sample standard deviation (n - 1 denominator) of each variant's runs
        return [float(np.std(row, ddof=1)) if row.size > 1 else None
                for row in self.values]


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
        """The cell of a schedule at a configured VaR level, matched with
        ``math.isclose``, or at None for the worst payout."""
        levels = self.config.var_levels
        if level is None:
            j = len(levels)
        else:
            j = next((j for j, known in enumerate(levels)
                      if math.isclose(known, level)), None)
            if j is None:
                raise ValueError(f"VaR level {level} is not one of the "
                                 f"configured levels {list(levels)}")
        return self.cells[schedule_index * (len(levels) + 1) + j]

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
                # percent by which the random average exceeds the bracketed one
                row.append(f"{(avgs[0] / avgs[1] - 1.0) * 100.0:.2f}")
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


def _variants(config: ExperimentConfig) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """A run's mechanisms and price levels: both mechanisms uncapped without
    caps, the random one uncapped and then at each cap with them."""
    caps = config.caps or ()
    return ("random",) if caps else MECHANISMS, (math.inf, *caps)


# float-roundoff guard when testing level * draws against the resolution limit
_LEVEL_EPS = 1e-9


def var_rank(draws: int, level: float) -> int:
    """Position of the VaR at tail probability ``level`` among ``draws``
    ascending payouts: the k-th smallest, k = round((1 - level) * draws).

    The one exception is a level at the distribution's resolution limit,
    level * draws <= 1 (0.01% of 10,000 draws, 0.1% of 1,000): there the
    maximum is reported, the topmost approximation the draws can resolve.
    ``_one_run`` reads it off the sorted raw payouts and then scales them:
    division by a positive number is monotone, so that is the same float.
    """
    if draws == 0:
        raise ValueError("empty payout distribution")
    if not 0.0 < level < 1.0:
        raise ValueError("VaR level must lie in (0, 1)")
    if level * draws <= 1.0 + _LEVEL_EPS:
        return draws - 1
    k = int(round((1.0 - level) * draws))
    return min(max(k, 1), draws) - 1


def _one_run(config: ExperimentConfig, run_index: int) -> np.ndarray:
    """One run of either experiment: fresh population, every schedule.

    Returns (n_schedules, n_levels + 1, n_variants) scaled values, the last
    level row holding the analytic worst payouts. The variants are mechanisms
    times price levels, see the module docstring.
    """
    pop = _population(config, run_index)
    mechanisms, prices = _variants(config)
    caps = prices[1:]
    ranks = [var_rank(config.draws_per_run, level) for level in config.var_levels]
    # each level's (capped) mean balance, once per run: a schedule's expected
    # payout is count * multiple times it, the float expected_payout gives
    means = [expected_payout(pop, PrizeSchedule(1, 1.0), cap) for cap in prices]
    out = []
    for i, sched in enumerate(config.schedules):
        variants = []
        for mechanism in mechanisms:
            rng = _stream(config.master_seed, run_index, _DRAW_STREAMS[mechanism], i)
            raw = payouts(pop, sched, mechanism, rng, config.draws_per_run, caps)
            if np.any(raw[1:] > raw[:-1]):
                raise RuntimeError("invariant violation: a drawing's raw payout "
                                   "increased after lowering the cap")
            worst = [worst_payout(pop, sched, mechanism, cap) for cap in prices]
            expected = [sched.count * sched.multiple * mean for mean in means]
            levels = np.column_stack((np.sort(raw, axis=1)[:, ranks], worst))
            variants.append(levels / np.array(expected)[:, None])
        out.append(np.concatenate(variants).T)
    return np.array(out)


def _mallopt():
    """glibc's ``mallopt``, or None where the C library has none (macOS,
    Windows)."""
    import ctypes  # here, so that importing plsim does not load it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def prepare_engine_process() -> None:
    """Set up the process that is about to run the runs: keep the memory it
    frees, and load no OpenSSL.

    By default glibc unmaps a freed array above 128 KiB and returns a free
    heap top above 128 KiB to the OS, so the next array faults its pages in
    again, 4 KB at a time; a run frees and reallocates such arrays for every
    block of drawings. Here arrays up to 32 MiB come from the heap, which is
    trimmed only above 64 MiB free. Both are needed: setting the trim
    threshold alone pins the mmap threshold at 128 KiB. Without ``mallopt``
    this does nothing, and a refused setting is let be: it changes no output,
    only how long a run takes.

    ``numpy.random``, which the first run imports, imports ``secrets`` and so
    ``hmac``, which loads OpenSSL through ``_hashlib``; the engine seeds from
    integers and hashes nothing. Unless this process has loaded it already,
    ``_hashlib`` is blocked, so ``hashlib`` and ``hmac`` fall back to
    CPython's built-in hashes here.
    """
    sys.modules.setdefault("_hashlib", None)
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _require_caps(config: ExperimentConfig, wanted: bool) -> None:
    """Refuse a config of the other experiment: the cap experiment needs
    caps, the bracketing experiment takes none."""
    if wanted != (config.caps is not None):
        raise ValueError("cap experiment requires a config with caps" if wanted
                         else "bracketing experiment takes a config without caps")


def run_bracketing(config: ExperimentConfig, workers: int = 1,
                   on_start=None) -> Result:
    """Execute the bracketing protocol; deterministic for a fixed master seed
    regardless of ``workers``. ``on_start``, if given, is called with no
    arguments once the result is sized, before the first run."""
    _require_caps(config, False)
    return _run(config, workers, on_start)


def run_caps(config: ExperimentConfig, workers: int = 1, on_start=None) -> Result:
    """Execute the cap protocol; deterministic for a fixed master seed
    regardless of ``workers``. ``on_start`` as for ``run_bracketing``."""
    _require_caps(config, True)
    return _run(config, workers, on_start)


def _run(config: ExperimentConfig, workers: int, on_start) -> Result:
    levels = list(config.var_levels) + [None]
    mechanisms, prices = _variants(config)
    # sized before the first run, so a run count no array can hold is
    # refused before any run starts or is announced
    data = np.empty((config.runs, len(config.schedules), len(levels),
                     len(mechanisms) * len(prices)))
    if on_start is not None:
        on_start()
    workers = min(workers, config.runs)
    if workers <= 1:
        for r in range(config.runs):
            data[r] = _one_run(config, r)
    else:
        # here, so that a one-worker process never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        # as initializer, so that workers started by spawn or forkserver,
        # which inherit neither setting, are set up too
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=prepare_engine_process) as pool:
            # map preserves submission order, so aggregation stays deterministic
            for r, values in enumerate(pool.map(partial(_one_run, config),
                                                range(config.runs))):
                data[r] = values
    cells = tuple(
        Cell(schedule=sched, level=level, values=data[:, i, j, :].T.copy())
        for i, sched in enumerate(config.schedules)
        for j, level in enumerate(levels)
    )
    return Result(config=config, cells=cells)
