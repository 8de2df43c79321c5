#!/usr/bin/env python3
"""Benchmark of the plsim Monte Carlo engine, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 40] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed 42] [--seconds 40]

Run it from the repository root. Each repetition starts a fresh interpreter
(child.py) that imports ``plsim.cli`` from ``src/`` and calls its ``main``
with a config preset from ``configs/``, as a user's ``plsim`` command would.
Repetitions run back to back (a closed loop with one client) until
``--seconds`` have been used; every metric is the median over repetitions.
Every repetition's outputs are checked (checks.py) and a repetition that
exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced repetitions of the same workload and reports
per-layer self times from the traced ones (tracing.py), the pool costs from
a probe on a trivial config, and the tracing overhead as the difference
between the two kinds of repetition. ``all`` runs every workload in both
modes and prints every metric with its unit, error rate included.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record (manifest,
per-repetition values, CSV digests, missing layers) is written to
``perfbench/.runs/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".runs"

HARD_LIMIT_S = 165.0  # an invocation has to exit within 180 s
CANARY_CALLS = 1000
PRIZE_COUNTS = (1000, 500, 100, 10)
KERNELS = ("random_payouts", "bracketed_payouts", "random_winner_matrix")
GATHER_BYTES_PER_WINNER = 16  # one int64 index read plus one float64 balance read

END_TO_END_UNITS = {"runs_per_s": "1/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # plsim subcommand: bracketing or caps
    config: str  # preset, relative to the repository root
    runs: int
    threads: int
    why: str
    caps: tuple[float, ...] | None = None
    json_out: bool = False
    reference_threads: int | None = None  # worker count whose CSV must match
    accounts: int | None = None
    draws: int | None = None

    def effective_config(self, seed: int) -> dict:
        """The config the CLI will run, as ``config_to_dict`` writes it."""
        with open(ROOT / self.config) as fh:
            config = json.load(fh)
        config.update(runs=self.runs, master_seed=seed)
        if self.caps is not None:
            config["caps"] = list(self.caps)
        if self.accounts is not None:
            config["n_accounts"] = self.accounts
        if self.draws is not None:
            config["draws_per_run"] = self.draws
        return config

    def cli_args(self, seed: int, threads: int, out: Path, json_out: Path | None):
        args = [self.experiment, "--config", str(ROOT / self.config),
                "--runs", str(self.runs), "--seed", str(seed),
                "--threads", str(threads), "--out", str(out)]
        if self.caps is not None:
            args += ["--caps", ",".join(f"{c:g}" for c in self.caps)]
        if self.accounts is not None:
            args += ["--accounts", str(self.accounts)]
        if self.draws is not None:
            args += ["--draws", str(self.draws)]
        if json_out is not None:
            args += ["--json-out", str(json_out)]
        return args


# The paper's alpha=1.04, b=150 presets at full size (100,000 accounts, the
# four default schedules, 10,000 or 1,000 draws per run); only the run count
# is reduced, so one repetition takes a few seconds.
WORKLOADS = {w.name: w for w in (
    Workload("bracketing_serial", "bracketing", "configs/bracketing_full_a104_b150.json",
             runs=2, threads=1,
             why="bracketing at one worker: bound by the random and bracketed "
                 "drawing kernels, no process pool, no cap re-pricing"),
    Workload("bracketing_parallel", "bracketing", "configs/bracketing_full_a104_b150.json",
             runs=2, threads=2, reference_threads=1,
             why="the same runs on 2 workers: few long tasks, shows scaling and "
                 "pool cost; its CSV must equal the serial one byte for byte"),
    Workload("caps_parallel", "caps", "configs/caps_full_a104_b150.json",
             runs=20, threads=2, caps=(250_000.0, 50_000.0, 10_000.0), json_out=True,
             why="caps on 2 workers: many short runs, winner matrices re-priced at "
                 "4 levels, per-task dispatch and JSON output; no bracketed kernel"),
)}


PER_LAYER = [f"drawing.{kernel}.k{k}_s" for kernel in KERNELS for k in PRIZE_COUNTS] + [
    "drawing.worst_payout_s", "drawing.winners_drawn", "drawing.gather_bytes",
    "population.generate_s", "pareto.quantile_s", "population.sort_s",
    "population.apply_cap_s", "risk.scale.n10000_s", "risk.scale.n1000_s",
    "risk.var_approx_s", "risk.scale.n10000_calls", "risk.scale.n1000_calls",
    "risk.var_approx_calls", "experiments.run_self_s",
    "experiments.dispatch_per_run_s", "experiments.pool_start_s",
    "experiments.write_csv_s", "experiments.to_json_s", "cli.emit_self_s",
    "cli.import_s", "trace.overhead_s", "trace.overhead_pct",
]


def per_layer_unit(name: str) -> str:
    if name.endswith("_calls") or name == "drawing.winners_drawn":
        return "count"
    return {"drawing.gather_bytes": "B", "trace.overhead_pct": "%"}.get(name, "s")


# ---------------------------------------------------------------------------
# one repetition


@dataclasses.dataclass
class Rep:
    mode: str
    threads: int
    problems: list[str]
    elapsed: float  # parent's view: process start to exit
    report: dict
    csv_sha256: str | None = None
    canary_s: float = 0.0
    spans: list[dict] = dataclasses.field(default_factory=list)
    timed: bool = False  # the child completed and its timestamps are usable

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def experiment_s(self) -> float:
        r = self.report
        if "experiment_start" in r:
            return r["experiment_end"] - r["experiment_start"]
        return r["finished"] - r["imported"]


def canary() -> float:
    """Time a fixed numpy kernel, to make slow-host periods visible."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(CANARY_CALLS):
        rng.choice(100_000, size=1000, replace=False, shuffle=False)
    return time.perf_counter() - start


def run_child(args: list[str], deadline: float) -> tuple[int, float, float]:
    """Run child.py with ``args``; return (exit code, start, end)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
        proc.communicate()
        return -1, start, time.perf_counter()
    end = time.perf_counter()
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, start, end


def run_rep(w: Workload, seed: int, mode: str, threads: int, tag: str,
            workdir: Path, config: dict, deadline: float) -> Rep:
    report_path = workdir / f"{tag}.report.json"
    csv_path = workdir / f"{tag}.csv"
    json_path = workdir / f"{tag}.json" if w.json_out else None
    canary_s = canary()
    code, start, end = run_child(
        [str(report_path), mode] + w.cli_args(seed, threads, csv_path, json_path),
        deadline)
    rep = Rep(mode=mode, threads=threads, problems=[], elapsed=end - start,
              report={}, canary_s=canary_s)
    if code != 0:
        rep.problems.append(f"exit code {code}")
    try:
        rep.report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError):
        rep.problems.append("no timing report")
        return rep
    if "error" in rep.report:
        rep.problems.append(rep.report["error"].strip().splitlines()[-1])
        return rep
    if not Path(rep.report["plsim_file"]).resolve().is_relative_to(SRC):
        rep.problems.append(f"imported plsim from {rep.report['plsim_file']}, not {SRC}")
    marks = [start, rep.report["started"], rep.report["imported"],
             rep.report.get("experiment_start", rep.report["imported"]),
             rep.report.get("experiment_end", rep.report["imported"]),
             rep.report["finished"], end]
    if marks != sorted(marks):
        rep.problems.append(f"timestamps out of order: {marks}")
        return rep
    rep.report["t0"] = start
    rep.timed = True
    try:
        data = csv_path.read_bytes()
    except OSError:
        rep.problems.append("no CSV written")
        return rep
    rep.csv_sha256 = hashlib.sha256(data).hexdigest()
    text = data.decode()
    rep.problems += checks.check_csv(text, w.experiment, config)
    if json_path is not None:
        try:
            rep.problems += checks.check_caps_json(json_path.read_text(), text, config)
        except OSError:
            rep.problems.append("no JSON dump written")
    if mode == "trace":
        rep.spans = tracing.load_spans(workdir, f"{report_path.name}.spans")
    return rep


# ---------------------------------------------------------------------------
# metrics


def end_to_end(reps: list[Rep], runs: int) -> dict[str, float]:
    plain = [r for r in reps if r.mode == "plain"]
    med = statistics.median
    return {
        "runs_per_s": med(runs / r.experiment_s for r in plain),
        "wall_s": med(r.elapsed for r in plain),
        "setup_s": med(r.report.get("experiment_start", r.report["imported"]) - r.report["t0"]
                       for r in plain),
        "peak_rss_mb": med(r.report["peak_rss_kb"] / 1024.0 for r in plain),
    }


def layer_values(rep: Rep, runs: int) -> dict[str, float]:
    """Per-layer figures of one traced repetition; most are per Monte Carlo run."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    winners = 0
    for span in rep.spans:
        self_s[span["name"]] += span["self"]
        calls[span["name"]] += 1
        winners += span["winners"]
    out = {f"drawing.{kernel}.k{k}_s": self_s[f"drawing.{kernel}.k{k}"] / runs
           for kernel in KERNELS for k in PRIZE_COUNTS}
    for layer in ("drawing.worst_payout", "population.generate", "pareto.quantile",
                  "population.sort", "population.apply_cap", "risk.scale.n10000",
                  "risk.scale.n1000", "risk.var_approx"):
        out[f"{layer}_s"] = self_s[layer] / runs
    for layer in ("risk.scale.n10000", "risk.scale.n1000", "risk.var_approx"):
        out[f"{layer}_calls"] = calls[layer] / runs
    out["drawing.winners_drawn"] = winners / runs
    out["drawing.gather_bytes"] = winners * GATHER_BYTES_PER_WINNER / runs
    out["experiments.run_self_s"] = self_s["experiments.run"] / runs
    # once per CLI process, not per run
    out["experiments.write_csv_s"] = self_s["experiments.write_csv"]
    out["experiments.to_json_s"] = self_s["experiments.to_json"]
    out["cli.emit_self_s"] = self_s["cli.emit"]
    return out


def per_layer(reps: list[Rep], probe: dict, runs: int) -> dict[str, float]:
    traced = [r for r in reps if r.mode == "trace"]
    plain = [r for r in reps if r.mode == "plain"]
    med = statistics.median
    each = [layer_values(r, runs) for r in traced]
    out = {name: med(v[name] for v in each) for name in each[0]}
    out["experiments.dispatch_per_run_s"] = probe["dispatch_per_run_s"]
    out["experiments.pool_start_s"] = probe["pool_start_s"]
    out["cli.import_s"] = med(r.report["import_s"] for r in traced + plain)
    untraced_run = med(r.experiment_s for r in plain) / runs
    traced_run = med(r.experiment_s for r in traced) / runs
    out["trace.overhead_s"] = traced_run - untraced_run
    out["trace.overhead_pct"] = 100.0 * (traced_run - untraced_run) / untraced_run
    return {name: out[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# one invocation


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return its full record."""
    begun = time.perf_counter()
    deadline = begun + HARD_LIMIT_S
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = w.effective_config(seed)
    record = {"manifest": manifest(w, seed, seconds, trace), "why": w.why}

    probe = {}
    if trace:
        code, _, _ = run_child([str(workdir / "probe.json"), "probe", w.experiment],
                               deadline)
        if code == 0:
            report = json.loads((workdir / "probe.json").read_text())
            probe = {k: report[k] for k in ("serial_run_s", "dispatch_per_run_s",
                                            "pool_start_s")}
        record["probe"] = probe

    reps: list[Rep] = []
    started = time.perf_counter()
    min_reps = 4 if trace else 3
    while True:
        mode = "trace" if trace and len(reps) % 2 == 1 else "plain"
        rep = run_rep(w, seed, mode, w.threads, f"rep{len(reps)}", workdir, config,
                      deadline)
        reps.append(rep)
        now = time.perf_counter()
        if len(reps) >= min_reps and now - started + rep.elapsed > seconds:
            break
        if now + 2 * rep.elapsed > deadline:
            break
    digests = {r.csv_sha256 for r in reps if r.csv_sha256}
    record["labels"] = {"csv_sha256": sorted(digests)}
    for rep in reps[1:]:
        if rep.csv_sha256 and reps[0].csv_sha256 and rep.csv_sha256 != reps[0].csv_sha256:
            rep.problems.append("CSV differs from the first repetition's at the same seed")

    attempts = list(reps)
    if w.reference_threads is not None:
        ref = run_rep(w, seed, "plain", w.reference_threads, "reference", workdir,
                      config, deadline)
        attempts.append(ref)
        record["labels"]["reference_csv_sha256"] = ref.csv_sha256
        for rep in reps:
            if ref.csv_sha256 is None or rep.csv_sha256 != ref.csv_sha256:
                rep.problems.append(f"CSV at {w.threads} workers differs from the one "
                                    f"at {w.reference_threads}")

    failed = sum(not r.ok for r in attempts)
    record["attempted"], record["failed"] = len(attempts), failed
    record["error_rate"] = failed / len(attempts)
    record["repetitions"] = [
        {"mode": r.mode, "threads": r.threads, "ok": r.ok, "problems": r.problems[:5],
         "elapsed_s": r.elapsed, "canary_s": r.canary_s, "csv_sha256": r.csv_sha256,
         **{k: r.report.get(k) for k in ("import_s", "peak_rss_kb")},
         **({"experiment_s": r.experiment_s} if r.timed else {})}
        for r in attempts]
    record["missing_layers"] = sorted({m for r in reps for m in r.report.get("missing", [])})

    # timings of a repetition whose output failed a check are still timings;
    # the failure shows in "failed" and "correct"
    usable = [r for r in reps if r.timed]
    if trace:
        if probe and {r.mode for r in usable} == {"plain", "trace"}:
            record["per_layer"] = per_layer(usable, probe, w.runs)
    elif any(r.mode == "plain" for r in usable):
        record["end_to_end"] = end_to_end(usable, w.runs)
    record["wall_s"] = time.perf_counter() - begun
    shutil.rmtree(workdir, ignore_errors=True)
    with open(WORK / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict) -> None:
    m = record["manifest"]
    print(f"# {m['workload']} seed={m['seed']} trace={m['trace']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    print(f"manifest {json.dumps(m, sort_keys=True)}")
    print(f"labels {json.dumps(record['labels'], sort_keys=True)}")
    canaries = [r["canary_s"] for r in record["repetitions"]]
    print(f"host canary {min(canaries):.4f}..{max(canaries):.4f} s over "
          f"{len(canaries)} repetitions")
    for rep in record["repetitions"]:
        for problem in rep["problems"]:
            print(f"FAILED {rep['mode']} repetition: {problem}")
    if record["missing_layers"]:
        print(f"missing layers: {', '.join(record['missing_layers'])}")
    for name, value in record.get("end_to_end", {}).items():
        print(f"{name:<34} {value:>14.6g} {END_TO_END_UNITS[name]}")
    if m["trace"] == 0:
        print(f"{'error_rate':<34} {record['error_rate']:>14.6g} share")
    for name, value in record.get("per_layer", {}).items():
        print(f"{name:<34} {value:>14.6g} {per_layer_unit(name)}")


def result_line(record: dict) -> dict:
    if "end_to_end" in record:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in record["end_to_end"].items()}
    else:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in record["per_layer"].items()}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SRC / "plsim" / "cli.py"] + [ROOT / w.config for w in WORKLOADS.values()]
    absent = [str(p.relative_to(ROOT)) for p in dict.fromkeys(needed) if not p.is_file()]
    if absent:
        print(f"perfbench: run from a plsim checkout; missing {', '.join(absent)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    if args.workload != "all":
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
        print_record(record)
        if "end_to_end" not in record and "per_layer" not in record:
            print("perfbench: no metrics: every repetition or the pool probe failed",
                  file=sys.stderr)
            return 1
        print(json.dumps(result_line(record)))
        return 0

    records = {}
    for w in WORKLOADS.values():
        for trace in (False, True):
            record = measure(w, args.seed, args.seconds, trace)
            print_record(record)
            records[f"{w.name}/trace{int(trace)}"] = record
    with open(WORK / f"all-seed{args.seed}.json", "w") as fh:
        json.dump(records, fh, indent=1)
    summary = {key: {"error_rate": r["error_rate"],
                     **r.get("end_to_end", {}), **r.get("per_layer", {})}
               for key, r in records.items()}
    print(json.dumps(summary))
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
