"""One plsim CLI invocation in a fresh interpreter, with its timings.

    python3 child.py REPORT MODE [PLSIM ARGS...]

MODE is ``plain`` (timestamps around the experiment call only), ``trace``
(spans at every layer boundary as well, see tracing.py) or ``probe``
(process-pool start and per-task dispatch cost on a trivial config; PLSIM
ARGS is then just ``bracketing`` or ``caps``). Timestamps are
``time.perf_counter`` readings, which on Linux come from CLOCK_MONOTONIC
like the parent's, so the parent places them against the moment it started
this process. The report is written as JSON to REPORT; the exit code is 0
only if the invocation succeeded.
"""

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

PROBE_TASKS = 200
PROBE_REPEATS = 5


def peak_rss_kb() -> int:
    # pool workers are joined before the CLI returns, so RUSAGE_CHILDREN
    # holds the largest of them
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def mark_experiment(experiments, report: dict) -> None:
    """Record when the CLI enters and leaves the experiment protocol.

    A protocol renamed away is skipped; the parent then times the experiment
    from the end of the import instead.
    """
    for name in ("run_bracketing", "run_caps"):
        protocol = getattr(experiments, name, None)
        if protocol is None:
            continue

        @functools.wraps(protocol)
        def marked(*args, _protocol=protocol, **kwargs):
            report["experiment_start"] = time.perf_counter()
            result = _protocol(*args, **kwargs)
            report["experiment_end"] = time.perf_counter()
            return result

        setattr(experiments, name, marked)


def pool_probe(experiments, kind: str) -> dict:
    """Pool start and per-task dispatch at two workers on a trivial config.

    A run of the trivial config takes well under a millisecond, so the
    marginal wall time per extra task at workers=2 is the dispatch cost and
    a one-task pooled call minus a serial run is the pool's start-up cost.
    """
    from plsim.drawing import PrizeSchedule

    make, protocol = ((experiments.caps_config, experiments.run_caps) if kind == "caps"
                      else (experiments.bracketing_config, experiments.run_bracketing))
    trivial = dict(n_accounts=10, schedules=(PrizeSchedule(1, 1.0),),
                   draws_per_run=1, var_levels=(0.5,))

    def timed(runs: int, workers: int) -> float:
        config = make(runs=runs, **trivial)
        start = time.perf_counter()
        protocol(config, workers=workers)
        return time.perf_counter() - start

    serial = statistics.median(timed(PROBE_TASKS, 1)
                               for _ in range(PROBE_REPEATS)) / PROBE_TASKS
    one = statistics.median(timed(1, 2) for _ in range(PROBE_REPEATS))
    many = statistics.median(timed(PROBE_TASKS, 2) for _ in range(PROBE_REPEATS))
    return {"serial_run_s": serial,
            "dispatch_per_run_s": (many - one) / (PROBE_TASKS - 1),
            "pool_start_s": one - serial}


def main(argv: list[str]) -> int:
    report_path, mode, *cli_args = argv
    report = {"mode": mode, "started": STARTED}
    try:
        before = time.perf_counter()
        import plsim.cli
        report["imported"] = time.perf_counter()
        report["import_s"] = report["imported"] - before

        import click
        from plsim import experiments

        report["plsim_file"] = plsim.cli.__file__
        if mode == "probe":
            report.update(pool_probe(experiments, cli_args[0]))
        else:
            tracer = None
            if mode == "trace":
                import tracing

                tracer = tracing.Tracer(report_path + ".spans")
                tracing.install(tracer)
                report["missing"] = tracer.missing
            mark_experiment(experiments, report)
            try:
                plsim.cli.main(cli_args, prog_name="plsim", standalone_mode=False)
            except click.ClickException as exc:
                report["error"] = exc.format_message()
            finally:
                if tracer is not None:
                    tracer.flush()
    except Exception:  # report any failure of the program under test
        report["error"] = traceback.format_exc()
    report["finished"] = time.perf_counter()
    report["peak_rss_kb"] = peak_rss_kb()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 1 if "error" in report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
