"""Command-line front end: distribution tables, the two Monte Carlo
experiments, CPT curve dumps, and a single-drawing debug tool.

Every subcommand is deterministic given its inputs and the seed (default
42, documented in the README so published CSV outputs can be reproduced
verbatim). Each validates its input, opens all its outputs (``_outputs``),
computes, writes, and commits the outputs together. Data goes to --out
(stdout by default); progress goes to stderr so piped CSV stays clean.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace

import click
import numpy as np

from . import cpt, drawing, experiments
from .drawing import PrizeSchedule, best_payout, draw, expected_payout, worst_payout
from .pareto import ParetoParams, mean, quantile
from .population import generate, require_float64_range

TABLE1_PERCENTILES = (0.5, 0.9, 0.95, 0.99, 0.999, 0.9999)
TABLE1_COLUMNS = ("alpha", "b", "mean", "median", "p90", "p95", "p99",
                  "p99.9", "p99.99")

CPT_MODELS = ("fixed", "fixed-growth", "dynamic")
_CPT_CSV_COLUMNS = (
    "x", "gain", "loss", "total",
    "gain_d1", "gain_d2", "loss_d1", "loss_d2", "total_d1", "total_d2",
    "gain_signs", "loss_signs", "total_signs",
)


@click.group()
def main():
    """Monte Carlo toolkit for dynamic prize-linked savings programs."""


def _fail(message: str):
    raise click.ClickException(message)


@contextmanager
def _outputs(*named):
    """One text stream per ``(option, path)`` pair: None where the path is
    None, stdout for ``-``. Two options naming one output, stdout included,
    are refused before anything opens; a path that cannot be opened is a
    one-line error naming its option.

    A file is written under a hidden temporary name beside its target (a
    symlink's target) and renamed over it, keeping its permission bits, when
    the block completes, in the order given; a failed block leaves every file
    as it was. Devices and pipes, such as /dev/null, are written in place.
    """
    # (option, path, whether the path is a device or pipe, written in place)
    given = [(option, path, path != "-" and os.path.exists(path) and not os.path.isfile(path))
             for option, path in named if path is not None]
    seen = {}
    for option, path, in_place in given:
        key = path if path == "-" else os.path.realpath(path)
        if key in seen and not in_place:
            _fail(f"{seen[key]} and {option} name the same output: {path}")
        seen[key] = option
    streams, files = {}, []  # files: (stream, temporary or None, target)
    try:
        for option, path, in_place in given:
            if path == "-":
                streams[option] = sys.stdout
                continue
            target = os.path.realpath(path)
            head, tail = os.path.split(target)
            tmp = None if in_place else os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
            try:
                streams[option] = open(tmp or path, "x" if tmp else "w", newline="")
            except OSError as exc:
                _fail(f"cannot write {option} {path}: {exc.strerror}")
            files.append((streams[option], tmp, target))
        yield [streams.get(option) for option, _ in named]
        for stream, tmp, target in files:
            stream.close()
            if tmp:
                with suppress(FileNotFoundError):
                    shutil.copymode(target, tmp)
                os.replace(tmp, target)
    finally:
        for stream, tmp, _ in files:
            stream.close()
            if tmp:
                with suppress(FileNotFoundError):
                    os.remove(tmp)


# ---------------------------------------------------------------------------
# table1


@main.command("table1")
@click.option("--params", "params_csv", default="1.04,150,1.12,250",
              show_default=True,
              help="Flat list of Pareto parameter pairs: alpha,b[,alpha,b...]")
@click.option("--out", default="-", show_default=True,
              help="Output CSV path, or - for stdout.")
def cmd_table1(params_csv: str, out: str):
    """Analytic summary of account-size distributions: mean, median, and
    upper percentiles per parameter pair."""
    try:
        raw = [float(tok) for tok in params_csv.split(",") if tok.strip()]
    except ValueError:
        _fail(f"could not parse --params {params_csv!r} as numbers")
    if not raw or len(raw) % 2 != 0:
        _fail("--params needs an even number of values: alpha,b[,alpha,b...]")
    try:
        pairs = [ParetoParams(raw[i], raw[i + 1]) for i in range(0, len(raw), 2)]
    except ValueError as exc:
        _fail(str(exc))

    with _outputs(("--out", out)) as (stream,):
        with np.errstate(over="ignore"):  # refused below, not warned about
            table = [[mean(p)] + [quantile(p, q) for q in TABLE1_PERCENTILES] for p in pairs]
        if not np.all(np.isfinite(table)):
            _fail(f"--params {params_csv!r}: a mean or percentile is not finite in float64")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(TABLE1_COLUMNS)
        for params, cells in zip(pairs, table):
            writer.writerow([f"{params.alpha:g}", f"{params.b:g}"] + [f"{v:.2f}" for v in cells])


# ---------------------------------------------------------------------------
# experiments


def _load_config(config_path: str | None, preset, runs, draws, accounts, seed,
                 caps_csv=None) -> experiments.ExperimentConfig:
    if config_path is not None:
        with open(config_path) as fh:
            try:
                config = experiments.config_from_dict(json.load(fh))
            except (json.JSONDecodeError, ValueError) as exc:
                _fail(f"invalid config {config_path}: {exc}")
    else:
        config = preset()

    flags = {"runs": runs, "draws_per_run": draws, "n_accounts": accounts,
             "master_seed": seed}
    overrides = {name: value for name, value in flags.items() if value is not None}
    if caps_csv is not None:
        try:
            overrides["caps"] = tuple(float(c) for c in caps_csv.split(","))
        except ValueError:
            _fail(f"could not parse --caps {caps_csv!r}")
    try:
        return replace(config, **overrides) if overrides else config
    except ValueError as exc:
        _fail(str(exc))


_experiment_options = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON config; flags override its fields."),
    click.option("--runs", type=int, default=None, help="Override run count."),
    click.option("--draws", type=int, default=None, help="Override draws per run."),
    click.option("--accounts", type=int, default=None, help="Override account count."),
    click.option("--seed", type=int, default=None, help="Override master seed."),
    click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
                 help="Worker processes; results are identical for any value."),
    click.option("--out", default="-", show_default=True,
                 help="Output CSV path, or - for stdout."),
    click.option("--json-out", default=None,
                 help="Also dump raw per-run values as JSON to this path."),
]


def _with_experiment_options(func):
    for option in reversed(_experiment_options):
        func = option(func)
    return func


def _experiment(name: str, protocol, config, threads: int, out: str,
                json_out: str | None):
    """Progress line, the run and its outputs, opened before the run and
    committed after it. The commands pass ``experiments.run_*`` as looked up
    when they run, not at import, so a wrapper installed on ``experiments``
    in the meantime sees the call."""
    try:
        experiments.require_caps(config, name == "caps")
    except ValueError as exc:
        _fail(str(exc))
    variants = (f"{len(config.schedules)} schedules" if config.caps is None
                else f"caps {','.join(f'{c:g}' for c in config.caps)}")
    with _outputs(("--out", out), ("--json-out", json_out)) as (stream, json_stream):
        click.echo(f"{name}: {config.runs} runs x {config.draws_per_run} draws, "
                   f"{variants}, seed {config.master_seed}", err=True)
        try:
            result = protocol(config, workers=threads)
        except ValueError as exc:
            _fail(str(exc))
        result.write_csv(stream)
        if json_stream is not None:
            json.dump(result.to_json_dict(), json_stream, indent=2)
            json_stream.write("\n")
    click.echo(f"{name}: done", err=True)


@main.command("bracketing")
@_with_experiment_options
def cmd_bracketing(config_path, runs, draws, accounts, seed, threads, out, json_out):
    """Compare random and bracketed drawings across repeated runs.

    Without --config, uses the full-scale preset: 100,000 accounts, four
    schedules, 10,000 draws per run, 200 runs.
    """
    config = _load_config(config_path, experiments.bracketing_config, runs, draws,
                          accounts, seed)
    _experiment("bracketing", experiments.run_bracketing, config, threads, out,
                json_out)


@main.command("caps")
@_with_experiment_options
@click.option("--caps", "caps_csv", default=None,
              help="Override cap levels, descending: c1,c2,c3")
def cmd_caps(config_path, runs, draws, accounts, seed, threads, out, json_out,
             caps_csv):
    """Re-price identical drawings under descending balance caps.

    Without --config, uses the full-scale preset: 1,000 draws per run,
    2,000 runs, caps 250000/50000/10000. A config without caps needs --caps.
    """
    config = _load_config(config_path, experiments.caps_config, runs, draws,
                          accounts, seed, caps_csv)
    _experiment("caps", experiments.run_caps, config, threads, out, json_out)


# ---------------------------------------------------------------------------
# cpt


@main.command("cpt")
@click.option("--model", type=click.Choice(CPT_MODELS), required=True)
@click.option("--x-min", type=float, required=True)
@click.option("--x-max", type=float, required=True)
@click.option("--points", type=int, required=True)
@click.option("--spacing", type=click.Choice(["log", "linear"]), default="log",
              show_default=True)
@click.option("--y", "prize", type=float, default=10_000.0, show_default=True,
              help="Fixed models: prize amount.")
@click.option("--c", "prob_per_unit", type=float, default=1e-6, show_default=True,
              help="Fixed models: win-probability slope per unit saved.")
@click.option("--r", "growth_rate", type=float, default=0.05, show_default=True,
              help="Assumed growth rate; --model fixed ignores it (r = 0).")
@click.option("--w", "multiple", type=float, default=1.0, show_default=True,
              help="Dynamic model: prize multiple.")
@click.option("--p", "win_prob", type=float, default=0.01, show_default=True,
              help="Dynamic model: win probability.")
@click.option("--out", default="-", show_default=True,
              help="Output CSV path, or - for stdout.")
def cmd_cpt(model, x_min, x_max, points, spacing, prize, prob_per_unit,
            growth_rate, multiple, win_prob, out):
    """Dump a utility curve: components, finite differences, and sign flags.

    Grids with fewer than two points get values only (no differences).
    """
    if points < 1:
        _fail("--points must be >= 1")
    for option, x in (("--x-min", x_min), ("--x-max", x_max)):
        if not np.isfinite(x):
            _fail(f"{option} must be finite, got {x}")
    if x_max < x_min:
        _fail("--x-max must be >= --x-min")
    try:
        if model == "dynamic":
            spec = cpt.DynamicPrizeSpec(multiple=multiple, win_prob=win_prob,
                                        growth_rate=growth_rate)
        else:
            rate = growth_rate if model == "fixed-growth" else 0.0
            spec = cpt.FixedPrizeSpec(prize=prize, prob_per_unit=prob_per_unit,
                                      growth_rate=rate)
    except ValueError as exc:
        _fail(str(exc))

    if points == 1:
        grid = np.array([x_min])
    elif spacing == "log":
        if x_min <= 0.0:
            _fail("log spacing requires --x-min > 0")
        grid = np.geomspace(x_min, x_max, points)
    else:
        grid = np.linspace(x_min, x_max, points)

    with _outputs(("--out", out)) as (stream,):
        try:
            report = cpt.sign_report(cpt.CptParams(), spec, grid)
        except ValueError as exc:
            _fail(str(exc))
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CPT_CSV_COLUMNS)
        for pt in report:
            diffs = (pt.gain_slope, pt.gain_curvature, pt.loss_slope,
                     pt.loss_curvature, pt.total_slope, pt.total_curvature)
            writer.writerow(
                [f"{v:.10g}" for v in (pt.x, pt.gain, pt.loss, pt.total)]
                + ["" if d is None else f"{d:.10g}" for d in diffs]
                + [cpt.sign_char(s) + cpt.sign_char(c)
                   for s, c in zip(diffs[::2], diffs[1::2])])


# ---------------------------------------------------------------------------
# draw


@main.command("draw")
@click.option("--alpha", type=float, required=True)
@click.option("--b", type=float, required=True)
@click.option("--accounts", type=int, required=True)
@click.option("--prizes", type=int, required=True)
@click.option("--multiple", type=float, required=True)
@click.option("--mechanism", type=click.Choice(drawing.MECHANISMS),
              default="random", show_default=True)
@click.option("--seed", type=int, default=experiments.DEFAULT_SEED,
              show_default=True)
@click.option("--dump-balances", "dump_path", default=None,
              help="Also write the generated balances, one per line.")
@click.option("--out", default="-", show_default=True)
def cmd_draw(alpha, b, accounts, prizes, multiple, mechanism, seed, dump_path, out):
    """Run a single drawing against a fresh population (debug tool)."""
    try:
        params = ParetoParams(alpha, b)
        sched = PrizeSchedule(prizes, multiple)
        require_float64_range(params, accounts, multiple)
    except ValueError as exc:
        _fail(str(exc))

    with _outputs(("--out", out), ("--dump-balances", dump_path)) as (stream, dump):
        try:
            rng = np.random.default_rng(seed)
            pop = generate(params, accounts, rng)
            outcome = draw(pop, sched, mechanism, rng)
        except ValueError as exc:
            _fail(str(exc))
        expected = expected_payout(pop, sched)
        if dump is not None:
            np.savetxt(dump, pop.balances, fmt="%.6f")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["mechanism", "accounts", "prizes", "multiple", "seed",
                         "payout", "expected", "scaled", "best", "worst"])
        writer.writerow([
            mechanism, accounts, prizes, f"{multiple:g}", seed,
            f"{outcome.payout:.6f}", f"{expected:.6f}",
            f"{outcome.payout / expected:.6f}",
            f"{best_payout(pop, sched, mechanism):.6f}",
            f"{worst_payout(pop, sched, mechanism):.6f}",
        ])


if __name__ == "__main__":
    main()
