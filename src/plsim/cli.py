"""Command-line front end: distribution tables, the two Monte Carlo
experiments, CPT curve dumps, and a single-drawing debug tool.

Every subcommand is deterministic given its inputs and the seed (default
42, documented in the README so published CSV outputs can be reproduced
verbatim). Data goes to --out (stdout by default); progress goes to stderr
so piped CSV stays clean.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace

import click
import numpy as np

from . import cpt, experiments
from .drawing import (
    PrizeSchedule,
    best_payout,
    draw_bracketed,
    draw_random,
    expected_payout,
    worst_payout,
)
from .pareto import ParetoParams, mean, quantile
from .population import generate

TABLE1_PERCENTILES = (0.5, 0.9, 0.95, 0.99, 0.999, 0.9999)
TABLE1_COLUMNS = ("alpha", "b", "mean", "median", "p90", "p95", "p99",
                  "p99.9", "p99.99")

_CPT_CSV_COLUMNS = (
    "x", "gain", "loss", "total",
    "gain_d1", "gain_d2", "loss_d1", "loss_d2", "total_d1", "total_d2",
    "gain_signs", "loss_signs", "total_signs",
)


@click.group()
def main():
    """Monte Carlo toolkit for dynamic prize-linked savings programs."""


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _fail(message: str):
    raise click.ClickException(message)


def _progress(message: str):
    click.echo(message, err=True)


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

    stream, close = _open_out(out)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(TABLE1_COLUMNS)
        for params in pairs:
            cells = [mean(params)] + [quantile(params, p) for p in TABLE1_PERCENTILES]
            writer.writerow([f"{params.alpha:g}", f"{params.b:g}"]
                            + [f"{v:.2f}" for v in cells])
    finally:
        if close:
            stream.close()


# ---------------------------------------------------------------------------
# experiments


def _load_config(config_path: str | None, want_caps: bool, runs, draws,
                 accounts, seed, caps_csv=None) -> experiments.ExperimentConfig:
    if config_path is not None:
        with open(config_path) as fh:
            try:
                config = experiments.config_from_dict(json.load(fh))
            except (json.JSONDecodeError, ValueError) as exc:
                _fail(f"invalid config {config_path}: {exc}")
    elif want_caps:
        config = experiments.caps_config()
    else:
        config = experiments.bracketing_config()

    overrides = {}
    if runs is not None:
        overrides["runs"] = runs
    if draws is not None:
        overrides["draws_per_run"] = draws
    if accounts is not None:
        overrides["n_accounts"] = accounts
    if seed is not None:
        overrides["master_seed"] = seed
    if caps_csv is not None:
        try:
            overrides["caps"] = tuple(float(c) for c in caps_csv.split(","))
        except ValueError:
            _fail(f"could not parse --caps {caps_csv!r}")
    if want_caps and config.caps is None and "caps" not in overrides:
        overrides["caps"] = experiments.DEFAULT_CAPS
    try:
        return replace(config, **overrides) if overrides else config
    except ValueError as exc:
        _fail(str(exc))


def _emit_result(result, out: str, json_out: str | None):
    stream, close = _open_out(out)
    try:
        result.write_csv(stream)
    finally:
        if close:
            stream.close()
    if json_out is not None:
        with open(json_out, "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2)
            fh.write("\n")


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


@main.command("bracketing")
@_with_experiment_options
def cmd_bracketing(config_path, runs, draws, accounts, seed, threads, out, json_out):
    """Compare random and bracketed drawings across repeated runs.

    Without --config, uses the full-scale preset: 100,000 accounts, four
    schedules, 10,000 draws per run, 200 runs.
    """
    config = _load_config(config_path, False, runs, draws, accounts, seed)
    if config.caps is not None:
        _fail("bracketing config must not define caps")
    _progress(f"bracketing: {config.runs} runs x {config.draws_per_run} draws, "
              f"{len(config.schedules)} schedules, seed {config.master_seed}")
    try:
        result = experiments.run_bracketing(config, workers=threads)
    except ValueError as exc:
        _fail(str(exc))
    _emit_result(result, out, json_out)
    _progress("bracketing: done")


@main.command("caps")
@_with_experiment_options
@click.option("--caps", "caps_csv", default=None,
              help="Override cap levels, descending: c1,c2,c3")
def cmd_caps(config_path, runs, draws, accounts, seed, threads, out, json_out,
             caps_csv):
    """Re-price identical drawings under descending balance caps.

    Without --config, uses the full-scale preset: 1,000 draws per run,
    2,000 runs, caps 250000/50000/10000.
    """
    config = _load_config(config_path, True, runs, draws, accounts, seed, caps_csv)
    _progress(f"caps: {config.runs} runs x {config.draws_per_run} draws, "
              f"caps {','.join(f'{c:g}' for c in config.caps)}, "
              f"seed {config.master_seed}")
    try:
        result = experiments.run_caps(config, workers=threads)
    except ValueError as exc:
        _fail(str(exc))
    _emit_result(result, out, json_out)
    _progress("caps: done")


# ---------------------------------------------------------------------------
# cpt


@main.command("cpt")
@click.option("--model", type=click.Choice(cpt.MODELS), required=True)
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
              help="Assumed growth rate.")
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

    try:
        report = cpt.sign_report(model, cpt.CptParams(), spec, grid)
    except ValueError as exc:
        _fail(str(exc))

    emit_diffs = points >= 2
    stream, close = _open_out(out)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CPT_CSV_COLUMNS)
        for pt in report:
            row = [f"{pt.x:.10g}", f"{pt.gain:.10g}", f"{pt.loss:.10g}",
                   f"{pt.total:.10g}"]
            diffs = (pt.gain_slope, pt.gain_curvature, pt.loss_slope,
                     pt.loss_curvature, pt.total_slope, pt.total_curvature)
            if emit_diffs:
                row += ["" if d is None else f"{d:.10g}" for d in diffs]
                row += [
                    cpt.sign_char(pt.gain_slope) + cpt.sign_char(pt.gain_curvature),
                    cpt.sign_char(pt.loss_slope) + cpt.sign_char(pt.loss_curvature),
                    cpt.sign_char(pt.total_slope) + cpt.sign_char(pt.total_curvature),
                ]
            else:
                row += [""] * 9
            writer.writerow(row)
    finally:
        if close:
            stream.close()


# ---------------------------------------------------------------------------
# draw


@main.command("draw")
@click.option("--alpha", type=float, required=True)
@click.option("--b", type=float, required=True)
@click.option("--accounts", type=int, required=True)
@click.option("--prizes", type=int, required=True)
@click.option("--multiple", type=float, required=True)
@click.option("--mechanism", type=click.Choice(["random", "bracketed"]),
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
        rng = np.random.default_rng(seed)
        pop = generate(params, accounts, rng)
        drawer = draw_random if mechanism == "random" else draw_bracketed
        outcome = drawer(pop, sched, rng)
    except ValueError as exc:
        _fail(str(exc))

    if dump_path is not None:
        np.savetxt(dump_path, pop.balances, fmt="%.6f")

    expected = expected_payout(pop, sched)
    stream, close = _open_out(out)
    try:
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
    finally:
        if close:
            stream.close()


if __name__ == "__main__":
    main()
