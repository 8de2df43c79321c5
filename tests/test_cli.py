import atexit
import csv
import functools
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import plsim
from conftest import load
from plsim import cli, experiments
from plsim.cli import main
from plsim.drawing import MECHANISMS

GOLDEN = Path(__file__).parent / "golden"
JSON_GOLDEN = GOLDEN / "json_out"  # --json-out of the two golden configs
checks = load("perfbench/checks.py")
_CAPS_JSON = (GOLDEN / "golden_caps.json").read_text()
_CAPS_DOC = json.loads(_CAPS_JSON)


def _caps_doc(**fields) -> bytes:
    return json.dumps({**_CAPS_DOC, **fields}).encode()


# the caps golden's schedules at prize multiple 1e-300
_TINY_SCHEDULES = [{**s, "multiple": 1e-300} for s in _CAPS_DOC["schedules"]]


# config files that each experiment command must refuse, each with the end of
# its line after "Error: invalid config <path>: "; "..." stands for the
# wording of Python's own error
MALFORMED_CONFIGS = {
    "deep.json": (b"[" * 100_000 + b"]" * 100_000, "..."),  # json.load: RecursionError
    "latin-1.json": (b'{"runs": "\xe9"}', "..."),  # not UTF-8
    "list.json": (b"[]", "config must be an object, got []"),
    "pareto-only.json": (b'{"pareto": {"alpha": 1.04}}',
                         "config is missing required field 'n_accounts'"),
    "misspelled-caps.json": (_CAPS_JSON.replace('"caps"', '"capz"').encode(),
                             "unknown field 'capz' in config"),
    "null-pareto.json": (_caps_doc(pareto=None), "pareto must be an object, got None"),
    "string-caps.json": (_caps_doc(caps="321"), "caps must be a list, got '321'"),
    "string-cap.json": (_caps_doc(caps=[5000.0, "800"]),
                        "each cap must be a real number, got '800'"),
    "string-list.json": (_caps_doc(var_levels="0.05"), "var_levels must be a list, got '0.05'"),
    "bool-level.json": (_caps_doc(var_levels=[True]), "VaR level must be a real number, got True"),
    "fractional-runs.json": (_caps_doc(runs=4.5), "runs must be an integer, got 4.5"),
    # float() overflows on an integer beyond float64, which JSON can hold
    "huge-alpha.json": (_caps_doc(pareto={"alpha": 10**400, "b": 150}),
                        "alpha must be finite, got an integer of 401 digits"),
    # JSON reads 1e400 as infinity
    "infinite-scale.json": (_CAPS_JSON.replace('"b": 150.0', '"b": 1e400').encode(),
                            "scale b must be finite and positive, got inf"),
    "infinite-cap.json": (_CAPS_JSON.replace("5000.0", "1e400").encode(),
                          "caps must be finite and positive, got inf"),
    # finite, but its balances can sum past float64
    "overflowing-scale.json": (_CAPS_JSON.replace('"b": 150.0', '"b": 1e307').encode(),
                               "300 accounts of Pareto 1.04/1e+307 at prize multiple 2 "
                               "can overflow float64"),
    # finite and positive, but a payout can fall below float64's normal range
    "underflowing-payouts.json": (
        _caps_doc(caps=[], pareto={"alpha": 1.04, "b": 1e-300}, schedules=_TINY_SCHEDULES),
        "300 accounts of Pareto 1.04/1e-300 at prize multiple 1e-300 can underflow float64"),
    "underflowing-caps.json": (
        _caps_doc(caps=[1e-299, 1e-300], schedules=_TINY_SCHEDULES),
        "300 accounts of Pareto 1.04/150 at cap 1e-300 and prize multiple 1e-300 "
        "can underflow float64"),
    # a subnormal cap holds fewer bits than a balance
    "subnormal-cap.json": (_caps_doc(caps=[1e-307, 1e-310]),
                           "300 accounts of Pareto 1.04/150 at cap 1e-310 and prize multiple 1 "
                           "can underflow float64"),
    # json.load alone keeps the last of a repeated key
    "duplicate-runs.json": (_CAPS_JSON.replace('"runs": ', '"runs": 1, "runs": ').encode(),
                            "duplicate field 'runs'"),
    "ascending-levels.json": (_caps_doc(var_levels=[0.02, 0.05]),
                              "VaR levels must be strictly descending"),
    # strictly descending, but two levels or two caps of one label; two
    # schedules of one label
    "one-label-levels.json": (_caps_doc(var_levels=[0.05 + 1e-12, 0.05]),
                              "VaR levels 0.050000000001 and 0.05 share the label '5%'"),
    "one-label-caps.json": (_caps_doc(caps=[250000, 50000.01, 50000]),
                            "caps 50000.01 and 50000.0 share the label '50000'"),
    "one-label-schedules.json": (
        _caps_doc(schedules=[{"count": 3, "multiple": 1.0}, {"count": 3, "multiple": 1.000001}]),
        "schedules PrizeSchedule(count=3, multiple=1.0) and PrizeSchedule(count=3, "
        "multiple=1.000001) share the label '3x100%'"),
}


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fresh_python(script, *args, path=()):
    """stdout of ``script`` in a fresh interpreter that imports plsim from
    this tree, with ``path`` also on its import path; a fresh one, so that
    no other test has loaded a module already."""
    paths = [str(Path(plsim.__file__).parents[1]), *map(str, path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, check=True).stdout


def refusal(result, status=1) -> list[str]:
    """The stderr lines of a refused command, once it is checked that the
    command exited with ``status`` through SystemExit (CliRunner reports an
    uncaught exception as exit 1 too), wrote nothing to stdout and wrote one
    ``Error:`` line to stderr, its last."""
    assert result.exit_code == status
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert lines and [line for line in lines if line.startswith("Error:")] == [lines[-1]]
    return lines


# ---------------------------------------------------------------------------
# every refused input: a new refusal gets its row here


TMP = "$TMP"  # the test's tmp_path, in a row's arguments and line
TABLE1 = ["table1"]
BRACKETING = ["bracketing", "--config", str(GOLDEN / "golden_bracketing.json")]
CAPS = ["caps", "--config", str(GOLDEN / "golden_caps.json")]
CPT = ["cpt", "--model", "dynamic", "--x-min", "1", "--x-max", "100", "--points", "3"]
DRAW = ["draw", "--alpha", "1.04", "--b", "150", "--accounts", "100", "--prizes", "3",
        "--multiple", "1"]
DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
_NO_DIR = f"{TMP}/missing"
_FINITE_MEAN = "Error: alpha must be finite and exceed 1 for a finite mean, got"


def _row(id, argv, line, status=1, files=(), progress=(), marks=()):
    """``argv`` exits with ``status``, its stderr ``progress`` and then
    ``line`` (click's usage lines come first at status 2), and tmp_path
    holds ``files`` (name: bytes, written before the run) byte for byte,
    and nothing else."""
    return pytest.param(argv, status, line, dict(files), list(progress), id=id, marks=marks)


# click keeps the last value of a repeated option, so each row appends to its
# command's prefix the flags it breaks
REFUSALS = [
    _row("table1-odd-count", TABLE1 + ["--params", "1.04"],
         "Error: --params needs an even number of values: alpha,b[,alpha,b...]"),
    _row("table1-alpha=0.9", TABLE1 + ["--params", "0.9,150"], f"{_FINITE_MEAN} 0.9"),
    _row("table1-alpha=inf", TABLE1 + ["--params", "inf,150"], f"{_FINITE_MEAN} inf"),
    *(_row(f"table1-b={b}", TABLE1 + ["--params", f"1.04,{b}"],
           f"Error: scale b must be finite and positive, got {b}") for b in ["inf", "nan"]),
    # 1e307 is finite, but its mean and upper percentiles overflow float64
    _row("table1-overflowing-pair", TABLE1 + ["--params", "2,1,1.04,1e307"],
         "Error: --params pair 1.04/1e+307: a mean or percentile is not finite in float64"),
    # an empty field is refused, not dropped
    *(_row(f"table1-params={text}", TABLE1 + ["--params", text],
           f"Error: could not parse --params {text!r}")
      for text in ["abc,150", "1.04,,150", "1.04,150,", ",1.04,150"]),
    _row("table1-out=empty", TABLE1 + ["--out", ""],
         "Error: cannot write --out '': the path is empty"),
    _row("table1-out=/dev/full", TABLE1 + ["--out", "/dev/full"],
         "Error: [Errno 28] No space left on device", marks=DEV_FULL),
    *(_row(f"{command}-{name}", [command, "--config", f"{TMP}/{name}", "--out", f"{TMP}/o.csv"],
           f"Error: invalid config {TMP}/{name}: {message}", files={name: text})
      for name, (text, message) in MALFORMED_CONFIGS.items()
      for command in ["bracketing", "caps"]),
    *(_row(f"{name}-threads={n}", prefix + ["--threads", n], status=2,
           line=f"Error: Invalid value for '--threads': {n} is not in the range x>=1.")
      for name, prefix in [("bracketing", BRACKETING), ("caps", CAPS)] for n in ["0", "-3"]),
    _row("bracketing-negative-seed",
         BRACKETING + ["--seed", "-1", "--threads", "2", "--out", f"{TMP}/b.csv"],
         "Error: master_seed must be >= 0, got -1"),
    _row("bracketing-caps-config", BRACKETING + ["--config", CAPS[2], "--out", f"{TMP}/b.csv"],
         "Error: bracketing experiment takes a config without caps"),
    _row("bracketing-missing-out", BRACKETING + ["--out", f"{_NO_DIR}/b.csv"],
         f"Error: cannot write --out {_NO_DIR}/b.csv: No such file or directory"),
    # --out is open, under its temporary name, when --json-out fails
    _row("bracketing-missing-json-out",
         BRACKETING + ["--out", f"{TMP}/b.csv", "--json-out", f"{_NO_DIR}/b.json"],
         f"Error: cannot write --json-out {_NO_DIR}/b.json: No such file or directory"),
    _row("caps-bracketing-config", CAPS + ["--config", BRACKETING[2], "--out", f"{TMP}/c.csv"],
         "Error: cap experiment requires a config with caps"),
    _row("caps-missing-out-keeps-json-out",
         CAPS + ["--json-out", f"{TMP}/keep.json", "--out", f"{_NO_DIR}/c.csv"],
         f"Error: cannot write --out {_NO_DIR}/c.csv: No such file or directory",
         files={"keep.json": b'{"kept": true}\n'}),
    _row("caps-full-json-out-keeps-out",
         CAPS + ["--out", f"{TMP}/c.csv", "--json-out", "/dev/full"],
         "Error: [Errno 28] No space left on device", files={"c.csv": b"old\n"},
         progress=["caps: 3 runs x 40 draws, caps 5000,800, seed 5"], marks=DEV_FULL),
    _row("caps-out-is-json-out", CAPS + ["--out", f"{TMP}/f", "--json-out", f"{TMP}/f"],
         f"Error: --out and --json-out name the same output: {TMP}/f"),
    _row("caps-json-out-stdout", CAPS + ["--json-out", "-"],  # --out is stdout by default
         "Error: --out and --json-out name the same output: -"),
    _row("caps-ascending-caps", CAPS + ["--caps", "100,200"],
         "Error: caps must be strictly descending"),
    # two caps that would write two cap_50000 column pairs and one JSON key
    _row("caps-one-label-caps", CAPS + ["--caps", "250000,50000.01,50000"],
         "Error: caps 50000.01 and 50000.0 share the label '50000'"),
    *(_row(f"caps-caps={text}", CAPS + ["--caps", text, "--json-out", f"{TMP}/c.json"],
           f"Error: caps must be finite and positive, got {value}")
      for text, value in [("inf", "inf"), ("1e400", "inf"), ("5000,nan", "nan")]),
    *(_row(f"caps-caps={text}", CAPS + ["--caps", text], f"Error: could not parse --caps {text!r}")
      for text in ["abc", "5000,,800", "5000,"]),
    _row("caps-subnormal-cap", CAPS + ["--caps", "5000,1e-310"],
         "Error: 300 accounts of Pareto 1.04/150 at cap 1e-310 and prize multiple 1 "
         "can underflow float64"),
    # the flag is parsed as click reads it, before the config is opened
    _row("caps-caps=5000,-before-a-malformed-config",
         CAPS + ["--config", f"{TMP}/bad.json", "--caps", "5000,"],
         "Error: could not parse --caps '5000,'", files={"bad.json": b"{"}),
    _row("cpt-model=cubic", CPT + ["--model", "cubic"], status=2,
         line="Error: Invalid value for '--model': 'cubic' is not one of 'fixed', "
              "'fixed-growth', 'dynamic'."),
    _row("cpt-points=0", CPT + ["--points", "0"], "Error: --points must be >= 1"),
    _row("cpt-x-min=nan", CPT + ["--x-min", "nan"], "Error: --x-min must be finite, got nan"),
    _row("cpt-x-max=inf", CPT + ["--x-max", "inf"], "Error: --x-max must be finite, got inf"),
    _row("cpt-x-max-below-x-min", CPT + ["--x-min", "10", "--x-max", "5"],
         "Error: --x-max must be >= --x-min"),
    _row("cpt-log-from-0", CPT + ["--x-min", "0"], "Error: log spacing requires --x-min > 0"),
    _row("cpt-w=inf", CPT + ["--w", "inf"],
         "Error: prize multiple must be finite and exceed the growth rate, got inf"),
    _row("cpt-fixed-y=inf", CPT + ["--model", "fixed", "--y", "inf"],
         "Error: prize must be finite and positive, got inf"),
    # the other kind of model's flag, which would be taken unchecked and
    # ignored, at any value
    *(_row(f"cpt-{model}-{flag[2:]}={value}", CPT + ["--model", model, flag, value],
           f"Error: --model {model} does not read {flag}")
      for model, flag, value in [("fixed", "--w", "inf"), ("fixed", "--p", "5"),
                                 ("fixed-growth", "--w", "1"), ("fixed-growth", "--p", "0.01"),
                                 ("dynamic", "--y", "inf"), ("dynamic", "--c", "-1")]),
    *(_row(f"cpt-{model}-r={r}", CPT + ["--model", model, "--r", r],
           f"Error: growth rate must be finite and non-negative, got {float(r)}")
      for model, r in [("fixed-growth", "nan"), ("fixed", "-1")]),  # fixed then uses r = 0
    _row("cpt-beyond-growth-limit", CPT + ["--model", "fixed-growth", "--x-max", "500000"],
         "Error: grid points outside the model domain: 1 of 3, first 500000.0, last 500000.0"),
    # the count and the ends, not every point
    _row("cpt-grid-far-outside", CPT + ["--model", "fixed", "--x-min", "0", "--x-max", "1e9",
                                        "--points", "100000", "--spacing", "linear"],
         "Error: grid points outside the model domain: 99900 of 100000, "
         "first 1000010.000100001, last 1000000000.0"),
    # finite flags whose utility overflows float64
    _row("cpt-overflowing-gain", CPT + ["--x-max", "1e300", "--w", "1e300"],
         "Error: utility not finite in float64 at grid points: 2 of 3, first 1e+150, last 1e+300"),
    # X * c is subnormal at X = 1, so X - h and X + h give one p; from 1e150
    # on the second difference underflows
    _row("cpt-unresolved-differences", CPT + ["--model", "fixed", "--x-max", "1e300",
                                              "--c", "1e-320"],
         "Error: differences not resolved in float64 at grid points: 3 of 3, "
         "first 1.0, last 1e+300"),
    _row("cpt-absurd-points", CPT + ["--x-max", "2", "--points", str(10**21)],
         "Error: Maximum allowed size exceeded"),
    _row("draw-alpha=0.9", DRAW + ["--alpha", "0.9"], f"{_FINITE_MEAN} 0.9"),
    _row("draw-more-prizes-than-accounts", DRAW + ["--accounts", "10", "--prizes", "20"],
         "Error: cannot draw 20 distinct winners from 10 accounts"),
    _row("draw-multiple=inf", DRAW + ["--multiple", "inf"],
         "Error: prize multiple must be finite and positive, got inf"),
    *(_row(f"draw-overflowing-{flag[2:]}", DRAW + [flag, value],
           f"Error: 100 accounts of Pareto {pair} at prize multiple {multiple} "
           "can overflow float64")
      for flag, value, pair, multiple in [("--b", "1e307", "1.04/1e+307", "1"),
                                          ("--multiple", "1e306", "1.04/150", "1e+306")]),
    # payouts or balances below float64's normal range, where it keeps fewer
    # bits: at 1e-300 * 1e-300 both payouts are 0 and the scaled one 0 / 0
    *(_row(f"draw-underflowing-{name}", DRAW + ["--b", b, "--multiple", multiple],
           f"Error: 100 accounts of Pareto 1.04/{b} at prize multiple {shown} "
           "can underflow float64")
      for name, b, multiple, shown in [("payouts", "1e-300", "1e-300", "1e-300"),
                                       ("multiple", "0.1", "5e-324", "4.94066e-324"),
                                       ("b", "1e-310", "1", "1")]),
    _row("draw-negative-seed", DRAW + ["--seed", "-1"], status=2,
         line="Error: Invalid value for '--seed': -1 is not in the range x>=0."),
    _row("draw-dump-to-stdout", DRAW + ["--dump-balances", "-"],
         "Error: --out and --dump-balances name the same output: -"),
    _row("draw-missing-dump", DRAW + ["--dump-balances", f"{_NO_DIR}/d.txt"],
         f"Error: cannot write --dump-balances {_NO_DIR}/d.txt: No such file or directory"),
    _row("draw-missing-out-keeps-dump",
         DRAW + ["--dump-balances", f"{TMP}/d.txt", "--out", f"{_NO_DIR}/d.csv"],
         f"Error: cannot write --out {_NO_DIR}/d.csv: No such file or directory",
         files={"d.txt": b"1.0\n"}),
    _row("draw-out-is-dump", DRAW + ["--out", f"{TMP}/f", "--dump-balances", f"{TMP}/f"],
         f"Error: --out and --dump-balances name the same output: {TMP}/f",
         files={"f": b"1.0\n"}),
]


@pytest.mark.filterwarnings("error")  # a numpy warning would be a line of its own
@pytest.mark.parametrize("argv, status, line, files, progress", REFUSALS)
def test_refused(runner, tmp_path, argv, status, line, files, progress):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text)
    result = runner.invoke(main, [arg.replace(TMP, str(tmp_path)) for arg in argv])
    lines, line = refusal(result, status), line.replace(TMP, str(tmp_path))
    if line.endswith("..."):  # the rest is Python's own wording
        line, lines[-1] = line[:-3], lines[-1][:len(line) - 3]
    assert (lines if status == 1 else lines[-1:]) == progress + [line]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


class TestTable1:
    def test_golden(self, runner, tmp_path):
        out = tmp_path / "t1.csv"
        result = runner.invoke(main, ["table1", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "table1_default.csv").read_bytes()

    def test_custom_pair(self, runner):
        result = runner.invoke(main, ["table1", "--params", "2,1"])
        assert result.exit_code == 0
        row = next(csv.DictReader(result.stdout.splitlines()))
        assert float(row["mean"]) == pytest.approx(2.0)
        assert float(row["median"]) == pytest.approx(2.0**0.5, abs=0.005)


class TestBracketingCommand:
    def test_golden(self, runner, tmp_path):
        out = tmp_path / "b.csv"
        result = runner.invoke(main, [
            "bracketing", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "bracketing_small.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_json_out_golden(self, runner, tmp_path, threads):
        # every per-run value at full precision, which the CSV rounds away
        out = tmp_path / "b.json"
        result = runner.invoke(main, [
            "bracketing", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--threads", threads, "--out", str(tmp_path / "b.csv"), "--json-out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == (JSON_GOLDEN / "bracketing_small.json").read_bytes()

    def test_one_worker_loads_no_pool_and_no_cpt(self, tmp_path):
        out = tmp_path / "b.csv"
        script = (
            "import sys, plsim, plsim.cli\n"
            "plsim.cli.main(['bracketing', '--config', sys.argv[1], '--threads', '1',"
            " '--out', sys.argv[2]], standalone_mode=False)\n"
            "print(sorted({'concurrent.futures', 'multiprocessing', 'plsim.cpt'}"
            " & set(sys.modules)))\n")
        assert fresh_python(script, GOLDEN / "golden_bracketing.json", out) == "[]\n"
        assert out.read_bytes() == (GOLDEN / "bracketing_small.csv").read_bytes()

    def test_smoke_run_completes(self, runner):
        result = runner.invoke(main, [
            "bracketing", "--runs", "1", "--draws", "10", "--accounts", "2000",
            "--seed", "3"])
        assert result.exit_code == 0
        config = replace(experiments.bracketing_config(), runs=1, draws_per_run=10,
                         n_accounts=2000, master_seed=3)
        assert checks.check_csv(result.stdout, "bracketing",
                                experiments.config_to_dict(config)) == []

    def test_empty_caps_is_the_bracketing_experiment(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {**json.loads((GOLDEN / "golden_bracketing.json").read_text()), "caps": []}))
        result = runner.invoke(main, ["bracketing", "--config", str(config)])
        assert result.exit_code == 0
        assert result.stdout == (GOLDEN / "bracketing_small.csv").read_text()
        result = runner.invoke(main, ["caps", "--config", str(config)])
        assert refusal(result) == ["Error: cap experiment requires a config with caps"]

    def test_progress_stays_off_stdout(self, runner):
        result = runner.invoke(main, [
            "bracketing", "--runs", "1", "--draws", "5", "--accounts", "2000"])
        assert result.stdout.startswith("params,")
        assert "runs x" in result.stderr


class TestCapsCommand:
    def test_golden(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "caps_small.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_json_out_golden(self, runner, tmp_path, threads):
        out = tmp_path / "c.json"
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--threads", threads, "--out", str(tmp_path / "c.csv"), "--json-out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == (JSON_GOLDEN / "caps_small.json").read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_memory_policy_is_set_by_the_command_not_the_library(
            self, runner, tmp_path, monkeypatch, serial_pool, threads):
        # a library call leaves the caller's allocator as it is; the command
        # sets the policy in its own process at any --threads, and a pool's
        # initializer sets it in each worker
        calls = []
        monkeypatch.setattr(experiments, "prepare_engine_process", lambda: calls.append(1))
        golden = GOLDEN / "golden_caps.json"
        config = experiments.config_from_dict(json.loads(golden.read_text()))
        experiments.run_caps(config, workers=1)
        assert calls == []
        result = runner.invoke(main, ["caps", "--config", str(golden), "--threads", threads,
                                      "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 0
        assert calls == [1]
        assert serial_pool == ([] if threads == "1"
                               else [(2, experiments.prepare_engine_process)])
        assert (tmp_path / "c.csv").read_bytes() == (GOLDEN / "caps_small.csv").read_bytes()

    # a process that loaded OpenSSL before the command keeps it
    @pytest.mark.parametrize("prelude, state", [
        ("", "True True False"),
        ("import hashlib, _hashlib\n", "True False True"),
    ], ids=["fresh", "hashlib_first"])
    def test_one_worker_blocks_openssl_unless_loaded_first(self, tmp_path, prelude, state):
        out = tmp_path / "c.csv"
        script = prelude + (
            "import sys, plsim.cli\n"
            "plsim.cli.main(['caps', '--config', sys.argv[1], '--threads', '1',"
            " '--out', sys.argv[2]], standalone_mode=False)\n"
            "import hashlib, hmac\n"
            "openssl = sys.modules.get('_hashlib')\n"
            "print('numpy.random' in sys.modules, openssl is None,"
            " hashlib.sha256 is getattr(openssl, 'openssl_sha256', None))\n"
            "print(hashlib.sha256(b'x').hexdigest())\n"
            "print(hmac.new(b'k', b'm', 'sha256').hexdigest())\n")
        assert fresh_python(script, GOLDEN / "golden_caps.json", out).splitlines() == [
            state,
            "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881",
            "b60090e3052297aeb5a080889ce2fc4bca957e756faeb4df7d31800ca1e771ec"]
        assert out.read_bytes() == (GOLDEN / "caps_small.csv").read_bytes()

    # forced, so that every Python runs all three, whatever its default. From
    # CPython 3.14 the fork server authenticates each fork request with hmac
    # before it forks (read in CPython's source; no 3.14 run has checked it
    # yet), so it has loaded _hashlib, and its workers inherit OpenSSL
    @pytest.mark.parametrize("method", [
        "fork",
        pytest.param("forkserver", marks=pytest.mark.xfail(
            sys.version_info >= (3, 14), raises=AssertionError, strict=True,
            reason="the fork server loads _hashlib before it forks")),
        "spawn"])
    def test_pool_workers_load_no_openssl(self, tmp_path, method):
        # each run reports, from the worker that ran it, once numpy.random
        # has loaded there; the workers import this module by name
        log = tmp_path / "workers.txt"
        (tmp_path / "report_run.py").write_text(
            "import os, sys\n"
            "from plsim import experiments\n"
            "one_run = experiments._one_run\n"
            "def reported(config, r):\n"
            "    values = one_run(config, r)\n"
            f"    with open({str(log)!r}, 'a') as fh:\n"
            "        print(os.getpid(), 'numpy.random' in sys.modules,"
            " sys.modules.get('_hashlib', 'absent'), file=fh)\n"
            "    return values\n")
        out = tmp_path / "c.csv"
        script = (
            "import multiprocessing, os, sys, report_run\n"
            "from plsim import cli, experiments\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "experiments._one_run = report_run.reported\n"
            "cli.main(['caps', '--config', sys.argv[2], '--threads', '2',"
            " '--out', sys.argv[3]], standalone_mode=False)\n"
            "print(os.getpid())\n")
        parent = fresh_python(script, method, GOLDEN / "golden_caps.json", out,
                              path=[tmp_path]).strip()
        reports = [line.split() for line in log.read_text().splitlines()]
        assert out.read_bytes() == (GOLDEN / "caps_small.csv").read_bytes()
        assert len(reports) == 3  # one per run
        assert all(pid != parent for pid, *_ in reports)
        assert all(state == ["True", "None"] for _, *state in reports)

    def test_library_call_leaves_the_imports_as_they_were(self):
        script = (
            "import json, sys, plsim\n"
            "from plsim import experiments\n"
            "config = experiments.config_from_dict(json.load(open(sys.argv[1])))\n"
            "print('_hashlib' in sys.modules)\n"
            "experiments.run_caps(config, workers=1)\n"
            "print(sys.modules.get('_hashlib', 'absent') is not None)\n")
        # loaded or not, as numpy.random leaves it: never blocked
        assert fresh_python(script, GOLDEN / "golden_caps.json") == "False\nTrue\n"

    def test_caps_flag_completes_a_config_without_caps(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--caps", "5000,800", "--out", str(out)])
        assert result.exit_code == 0
        config = {**json.loads((GOLDEN / "golden_bracketing.json").read_text()),
                  "caps": [5000.0, 800.0]}
        assert checks.check_csv(out.read_text(), "caps", config) == []

    def test_outputs_leave_no_temporary_files(self, runner, tmp_path):
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--json-out", str(tmp_path / "c.json"), "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.json"]

    def test_out_through_a_symlink_replaces_its_target(self, runner, tmp_path):
        target = tmp_path / "data" / "c.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "c.csv"
        link.symlink_to(target)
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"), "--out", str(link)])
        assert result.exit_code == 0
        assert link.is_symlink()
        assert "cap_800_avg" in read_csv(target)[0]
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert [p.name for p in target.parent.iterdir()] == ["c.csv"]

    @pytest.mark.skipif(not os.path.islink("/dev/stdout"), reason="no /dev/stdout link")
    def test_out_dev_stdout_redirected_to_a_file(self, tmp_path):
        out = tmp_path / "c.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(plsim.__file__).parents[1])}
        with open(out, "w") as stdout:
            subprocess.run([
                sys.executable, "-c", "from plsim.cli import main; main()",
                "caps", "--config", str(GOLDEN / "golden_caps.json"), "--out", "/dev/stdout",
            ], stdout=stdout, stderr=subprocess.DEVNULL, env=env, check=True)
        assert os.path.islink("/dev/stdout")
        assert "cap_800_avg" in read_csv(out)[0]

    def test_out_through_a_symlink_to_the_json_out_file_fails(self, runner, tmp_path):
        target = tmp_path / "f"
        target.write_bytes(b"kept\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--out", str(link), "--json-out", str(target)])
        assert refusal(result) == [f"Error: --out and --json-out name the same output: {target}"]
        assert target.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "link"]

    def test_out_and_json_out_to_dev_null(self, runner):
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--out", os.devnull, "--json-out", os.devnull])
        assert result.exit_code == 0


@pytest.mark.parametrize("name, flags, fields", [
    ("bracketing", [], {}),
    ("caps", ["--caps", "9000,900"], {"caps": [9000.0, 900.0]}),
])
def test_every_experiment_flag_lands_on_its_field(runner, tmp_path, name, flags, fields):
    golden = GOLDEN / f"golden_{name}.json"
    json_out = tmp_path / "o.json"
    result = runner.invoke(main, [
        name, "--config", str(golden), "--runs", "2", "--draws", "30", "--accounts", "200",
        "--seed", "11", *flags, "--out", str(tmp_path / "o.csv"), "--json-out", str(json_out)])
    assert result.exit_code == 0
    # each value under its own field, and every other field as the file gave it
    assert json.loads(json_out.read_text())["config"] == {
        **json.loads(golden.read_text()),
        "runs": 2, "draws_per_run": 30, "n_accounts": 200, "master_seed": 11, **fields}


class TestOutputs:
    @pytest.mark.parametrize("command", ["bracketing", "caps"])
    @pytest.mark.parametrize("option", ["--out", "--json-out"])
    def test_unwritable_output_fails_before_the_run(self, runner, tmp_path, monkeypatch,
                                                    command, option):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(experiments, f"run_{command}", never)
        missing = tmp_path / "missing" / "x"
        for bad, why in [(str(missing), f"{missing}: No such file or directory"),
                         ("", "'': the path is empty")]:
            paths = {"--out": str(tmp_path / "o.csv"), "--json-out": str(tmp_path / "o.json")}
            paths[option] = bad
            result = runner.invoke(main, [
                command, "--config", str(GOLDEN / f"golden_{command}.json"),
                "--out", paths["--out"], "--json-out", paths["--json-out"]])
            assert refusal(result) == [f"Error: cannot write {option} {why}"]
            assert list(tmp_path.iterdir()) == []


class TestCptCommand:
    def test_golden(self, runner, tmp_path):
        out = tmp_path / "cpt.csv"
        result = runner.invoke(main, [
            "cpt", "--model", "dynamic", "--x-min", "1", "--x-max", "100",
            "--points", "5", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "cpt_dynamic_small.csv").read_bytes()

    @pytest.mark.parametrize("golden, args", [
        # ends at 1/c, so the last row has no differences
        ("cpt_fixed_small.csv", ["--model", "fixed", "--x-min", "0", "--x-max", "1e6",
                                 "--points", "11", "--spacing", "linear"]),
        ("cpt_fixed_growth_small.csv", ["--model", "fixed-growth", "--x-min", "1",
                                        "--x-max", "199999.99", "--points", "30"]),
    ])
    def test_fixed_golden(self, runner, tmp_path, golden, args):
        out = tmp_path / "cpt.csv"
        result = runner.invoke(main, ["cpt", *args, "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_dynamic_gain_slopes_positive(self, runner):
        result = runner.invoke(main, [
            "cpt", "--model", "dynamic", "--x-min", "0.5", "--x-max", "1e6",
            "--points", "40"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(result.stdout.splitlines()))
        assert len(rows) == 40
        assert all(r["gain_signs"] == "+-" for r in rows)

    def test_single_point_omits_differences(self, runner):
        result = runner.invoke(main, [
            "cpt", "--model", "dynamic", "--x-min", "5", "--x-max", "5",
            "--points", "1"])
        assert result.exit_code == 0
        row = next(csv.DictReader(result.stdout.splitlines()))
        assert row["gain_d1"] == "" and row["total_d2"] == ""
        assert row["gain_signs"] == ""
        assert float(row["gain"]) > 0

    def test_gain_vanishes_at_growth_limit(self, runner):
        # y/r = 200000 with the default spec; approach it from below
        result = runner.invoke(main, [
            "cpt", "--model", "fixed-growth", "--x-min", "1000",
            "--x-max", "199999.99", "--points", "30"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(result.stdout.splitlines()))
        gains = [float(r["gain"]) for r in rows]
        assert gains[-1] < 0.05
        assert gains[-1] < 0.01 * max(gains)

    def test_linear_spacing_allows_zero(self, runner):
        result = runner.invoke(main, [
            "cpt", "--model", "fixed", "--x-min", "0", "--x-max", "1000",
            "--points", "5", "--spacing", "linear"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(result.stdout.splitlines()))
        assert float(rows[0]["gain"]) == 0.0

    def test_overflowing_grid_through_standalone_main(self):
        # standalone mode prints a numpy warning as a line of its own, which
        # CliRunner under pytest would raise instead; so run it as a script
        env = {**os.environ, "PYTHONPATH": str(Path(plsim.__file__).parents[1])}
        result = subprocess.run([
            sys.executable, "-W", "error::RuntimeWarning", "-c",
            "from plsim.cli import main; main()", "cpt", "--model", "dynamic",
            "--x-min", "1", "--x-max", "1e300", "--points", "3", "--w", "1e300"],
            capture_output=True, text=True, env=env)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "Error: utility not finite in float64 at grid points: "
            "2 of 3, first 1e+150, last 1e+300"]


class TestDrawCommand:
    def test_golden(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "120",
            "--prizes", "4", "--multiple", "2", "--mechanism", "bracketed",
            "--seed", "9", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "draw_small.csv").read_bytes()

    def test_payout_within_bounds_and_scaled(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        result = runner.invoke(main, [
            "draw", "--alpha", "1.12", "--b", "250", "--accounts", "500",
            "--prizes", "10", "--multiple", "1", "--seed", "31",
            "--out", str(out)])
        assert result.exit_code == 0
        row = read_csv(out)[0]
        payout = float(row["payout"])
        assert float(row["best"]) <= payout <= float(row["worst"])
        assert float(row["scaled"]) == pytest.approx(
            payout / float(row["expected"]), abs=1e-6)

    def test_dump_balances(self, runner, tmp_path):
        dump = tmp_path / "balances.txt"
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "50",
            "--prizes", "2", "--multiple", "1", "--seed", "3",
            "--dump-balances", str(dump), "--out", str(tmp_path / "d.csv")])
        assert result.exit_code == 0
        lines = dump.read_text().strip().splitlines()
        assert len(lines) == 50
        assert all(float(v) >= 150.0 for v in lines)

    def test_population_beyond_the_32_bit_stream_fails_with_one_line(
            self, runner, monkeypatch):
        # refused before the population, 32 GiB of balances, is drawn
        def no_population(*args, **kwargs):
            raise AssertionError("a population was drawn")

        monkeypatch.setattr(cli, "generate", no_population)
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", str(2**32 + 1),
            "--prizes", "3", "--multiple", "1"])
        assert refusal(result) == [
            f"Error: cannot draw from {2**32 + 1} accounts: the 32-bit stream "
            "draws from at most 2**32"]


class TestFailurePath:
    """Impossible allocations end a command with exit status 1 and one
    ``Error:`` line, never a traceback; a closed stdout ends it quietly."""

    # the allocation is faked: where the kernel overcommits memory, a real
    # request of this size can succeed and exhaust the host when touched
    @staticmethod
    def unable_to_allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    def test_impossible_population_in_a_run(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "generate", self.unable_to_allocate)
        out = tmp_path / "b.csv"
        result = runner.invoke(main, [
            "bracketing", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--threads", "1", "--out", str(out)])
        assert refusal(result) == [
            "bracketing: 3 runs x 40 draws, 2 schedules, seed 5",
            "Error: Unable to allocate 72.8 TiB for an array"]
        assert not out.exists()

    def test_impossible_population_in_a_drawing(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "generate", self.unable_to_allocate)
        out = tmp_path / "d.csv"
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "50",
            "--prizes", "2", "--multiple", "1", "--out", str(out)])
        assert refusal(result) == ["Error: Unable to allocate 72.8 TiB for an array"]
        assert not out.exists()

    def test_bare_memory_error_still_names_itself(self, runner, monkeypatch):
        def bare(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "generate", bare)
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "50",
            "--prizes", "2", "--multiple", "1"])
        assert refusal(result) == ["Error: MemoryError"]

    def test_run_count_no_array_can_hold(self, runner, monkeypatch):
        # the result is sized before the first run, so no run may start and
        # no progress line is printed
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(experiments, "_one_run", no_run)
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--runs", str(10**19), "--out", "/dev/null"])
        assert refusal(result) == ["Error: Maximum allowed dimension exceeded"]

    def test_closed_stdout_is_left_to_click(self, runner, monkeypatch):
        # click's standalone main exits quietly on EPIPE; the boundary must
        # not turn it into an Error: line
        def closed(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "generate", closed)
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "50",
            "--prizes", "2", "--multiple", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == result.stderr == ""


def _mostly(common, *rare):
    """``common`` three times in four, so that later checks and the work are
    reached too; one of ``rare`` otherwise."""
    return st.sampled_from([common] * 3 + [st.one_of(*rare)]).flatmap(lambda s: s)


def _sizes(small: int):
    # mid-size values are left out: they would allocate for real
    return _mostly(st.integers(1, small), st.integers(-3, 0),
                   st.integers(10**19, 10**22)).map(str)


_WILD_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
                         st.floats())
# log-uniform from 1e-320 to 1e-300, across the smallest normal float64, 2.2e-308
_TINY_FLOATS = st.floats(-320.0, -300.0).map(lambda exponent: 10.0**exponent)


def _floats(lo: float, hi: float, *rare):
    return _mostly(st.floats(lo, hi), _WILD_FLOATS, *rare).map(repr)


def _options(draw_from, required: dict, optional: dict) -> list[str]:
    args = []
    for option, values in required.items():
        args += [option, draw_from(values)]
    for option, values in optional.items():
        if draw_from(st.booleans()):
            args += [option, draw_from(values)]
    return args


@st.composite
def _table1_args(draw_from):
    pairs = draw_from(st.lists(_floats(1.01, 1e3), max_size=6))
    return ["table1", "--params", ",".join(pairs)]


@functools.cache
def _malformed_configs() -> list[Path]:
    """``MALFORMED_CONFIGS`` as files, written on first use to a directory
    that is removed when the interpreter exits."""
    folder = Path(tempfile.mkdtemp(prefix="plsim-malformed-"))
    atexit.register(shutil.rmtree, folder, ignore_errors=True)
    for name, (text, _) in MALFORMED_CONFIGS.items():
        (folder / name).write_bytes(text)
    return sorted(folder.iterdir())


@st.composite
def _experiment_args(draw_from):
    name, other = draw_from(st.permutations(["bracketing", "caps"]))
    goldens = [GOLDEN / f"golden_{name}.json"] * 2 + [GOLDEN / f"golden_{other}.json"]
    config = draw_from(st.sampled_from([None, *goldens, "malformed"]))
    if config == "malformed":
        config = draw_from(st.sampled_from(_malformed_configs()))
    sizes = {"--runs": _sizes(3), "--draws": _sizes(50), "--accounts": _sizes(2_000)}
    optional = {"--seed": _sizes(10**6),
                "--threads": _mostly(st.just("1"), st.sampled_from(["0", "-2", "two"]))}
    if name == "caps":
        optional["--caps"] = st.lists(_floats(1.0, 1e5, _TINY_FLOATS), max_size=4).map(",".join)
    if config is None:  # the full-scale preset: its sizes must be overridden
        return [name] + _options(draw_from, sizes, optional)
    return [name, "--config", str(config)] + _options(draw_from, {}, {**sizes, **optional})


@st.composite
def _cpt_args(draw_from):
    model = draw_from(st.sampled_from(cli.CPT_MODELS))
    fixed = {"--y": _floats(1.0, 1e5), "--c": _floats(1e-9, 1e-5)}
    dynamic = {"--w": _floats(1.0, 5.0), "--p": _floats(0.0, 1.0)}
    own, other = (dynamic, fixed) if model == "dynamic" else (fixed, dynamic)
    # the other kind of model's flags, which are refused, one time in four
    flags = draw_from(_mostly(st.just(own), st.just({**own, **other})))
    return ["cpt", "--model", model] + _options(draw_from, {
        "--x-min": _floats(0.0, 1e3), "--x-max": _floats(1e3, 1e5), "--points": _sizes(50),
    }, {
        "--spacing": st.sampled_from(["log", "linear"]), "--r": _floats(0.0, 0.2), **flags,
    })


@st.composite
def _draw_args(draw_from):
    return ["draw"] + _options(draw_from, {
        "--alpha": _floats(1.01, 3.0), "--b": _floats(1.0, 1e3, _TINY_FLOATS),
        "--accounts": _sizes(2_000), "--prizes": _sizes(50),
        "--multiple": _floats(0.1, 100.0, _TINY_FLOATS),
    }, {
        "--mechanism": st.sampled_from(MECHANISMS), "--seed": _sizes(10**6),
    })


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_table1_args(), _experiment_args(), _cpt_args(), _draw_args()))
def test_no_input_makes_a_traceback(args):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        out.write_bytes(b"old\n")
        result = CliRunner().invoke(main, args + ["--out", str(out)])
        assert result.exit_code in (0, 1, 2), args
        if result.exit_code == 0:
            assert result.exception is None, args
        else:
            refusal(result, result.exit_code)
            assert out.read_bytes() == b"old\n", args
        assert os.listdir(tmp) == ["out.csv"], args
