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
_CAPS_DOC = json.loads((GOLDEN / "golden_caps.json").read_text())
# config files that each experiment command must refuse in one line
MALFORMED_CONFIGS = {
    "deep.json": b"[" * 100_000 + b"]" * 100_000,  # json.load: RecursionError
    "latin-1.json": b'{"runs": "\xe9"}',  # not UTF-8
    "list.json": b"[]",
    "string-list.json": json.dumps({**_CAPS_DOC, "var_levels": "0.05"}).encode(),
    "fractional-runs.json": json.dumps({**_CAPS_DOC, "runs": 4.5}).encode(),
    # float() overflows on an integer beyond float64, which JSON can hold
    "huge-alpha.json": json.dumps({**_CAPS_DOC, "pareto": {"alpha": 10**400, "b": 150}}).encode(),
    # json.load alone keeps the last of a repeated key
    "duplicate-runs.json": json.dumps(_CAPS_DOC).replace('"runs": ', '"runs": 1, "runs": ').encode(),
    "ascending-levels.json": json.dumps({**_CAPS_DOC, "var_levels": [0.02, 0.05]}).encode(),
    # strictly descending, but two levels or two caps of one label; two
    # schedules of one label
    "one-label-levels.json": json.dumps({**_CAPS_DOC, "var_levels": [0.05 + 1e-12, 0.05]}).encode(),
    "one-label-caps.json": json.dumps({**_CAPS_DOC, "caps": [250000, 50000.01, 50000]}).encode(),
    "one-label-schedules.json": json.dumps({**_CAPS_DOC, "schedules": [
        {"count": 3, "multiple": 1.0}, {"count": 3, "multiple": 1.000001}]}).encode(),
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

    @pytest.mark.parametrize("params, message", [
        ("1.04", "even number"), ("0.9,150", "exceed 1"), ("abc,150", "could not parse"),
        # an empty field is refused, not dropped
        ("1.04,,150", "could not parse"), ("1.04,150,", "could not parse"),
        (",1.04,150", "could not parse"),
        # 1e307 is finite, but its mean and upper percentiles overflow float64
        ("1.04,inf", "finite"), ("inf,150", "finite"), ("1.04,nan", "finite"),
        ("2,1,1.04,1e307", "finite")])
    def test_invalid_params_fail_with_one_line(self, runner, params, message):
        result = runner.invoke(main, ["table1", "--params", params])
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("Error: ") and message in line


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

    def test_negative_seed_fails_with_one_line(self, runner, tmp_path):
        out = tmp_path / "b.csv"
        result = runner.invoke(main, [
            "bracketing", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--seed", "-1", "--threads", "2", "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == ["Error: master_seed must be >= 0, got -1"]
        assert not out.exists()

    def test_infinite_scale_in_config_fails_with_one_line(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        # JSON reads 1e400 as infinity
        bad.write_text((GOLDEN / "golden_bracketing.json").read_text().replace(
            '"b": 150.0', '"b": 1e400'))
        result = runner.invoke(main, ["bracketing", "--config", str(bad)])
        assert result.exit_code == 1
        assert len(result.stderr.splitlines()) == 1
        assert "scale b must be finite" in result.stderr
        assert result.stdout == ""

    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
    def test_overflowing_scale_in_config_fails_with_one_line(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        # finite, but its balances can sum past float64
        bad.write_text((GOLDEN / "golden_bracketing.json").read_text().replace(
            '"b": 150.0', '"b": 1e307'))
        result = runner.invoke(main, ["bracketing", "--config", str(bad)])
        assert result.exit_code == 1
        assert len(result.stderr.splitlines()) == 1
        assert "can overflow float64" in result.stderr
        assert result.stdout == ""

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

    def test_invalid_config_fails(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"pareto\": {\"alpha\": 1.04}}")
        result = runner.invoke(main, ["bracketing", "--config", str(bad)])
        assert result.exit_code != 0

    def test_mistyped_config_fails_with_one_line(self, runner, tmp_path):
        doc = json.loads((GOLDEN / "golden_bracketing.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "pareto": None}))
        result = runner.invoke(main, ["bracketing", "--config", str(bad)])
        assert result.exit_code == 1
        assert "pareto must be an object, got None" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_fail(self, runner, threads):
        for command in ("bracketing", "caps"):
            result = runner.invoke(main, [
                command, "--config", str(GOLDEN / f"golden_{command}.json"),
                "--threads", threads])
            assert result.exit_code == 2
            assert "--threads" in result.stderr

    def test_unwritable_out_fails_with_one_line(self, runner, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        result = runner.invoke(main, [
            "bracketing", "--runs", "1", "--draws", "5", "--accounts", "2000",
            "--out", str(out)])
        assert result.exit_code == 1
        assert "--out" in result.stderr
        assert "Traceback" not in result.output

    def test_unwritable_json_out_leaves_no_csv(self, runner, tmp_path):
        out = tmp_path / "b.csv"
        result = runner.invoke(main, [
            "bracketing", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--out", str(out), "--json-out", str(tmp_path / "missing" / "b.json")])
        assert result.exit_code == 1
        assert "--json-out" in result.stderr
        assert not out.exists()

    def test_caps_config_fails_with_one_line(self, runner, tmp_path):
        out = tmp_path / "b.csv"
        result = runner.invoke(main, [
            "bracketing", "--config", str(GOLDEN / "golden_caps.json"),
            "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "Error: bracketing experiment takes a config without caps"]
        assert not out.exists()

    def test_empty_caps_is_the_bracketing_experiment(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {**json.loads((GOLDEN / "golden_bracketing.json").read_text()), "caps": []}))
        result = runner.invoke(main, ["bracketing", "--config", str(config)])
        assert result.exit_code == 0
        assert result.stdout == (GOLDEN / "bracketing_small.csv").read_text()
        result = runner.invoke(main, ["caps", "--config", str(config)])
        assert result.stderr.splitlines() == [
            "Error: cap experiment requires a config with caps"]

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

    @pytest.mark.parametrize("field, bad, message", [
        ("caps", "321", "caps must be a list, got '321'"),
        ("caps", [5000.0, "800"], "each cap must be a real number, got '800'"),
        ("var_levels", [True], "VaR level must be a real number, got True")],
        ids=["caps-321", "caps-bad1", "var_levels-bad2"])
    def test_mistyped_float_fields_fail_with_one_line(self, runner, tmp_path, field, bad,
                                                      message):
        doc = json.loads((GOLDEN / "golden_caps.json").read_text())
        doc[field] = bad
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "c.csv"
        result = runner.invoke(main, ["caps", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert len(result.stderr.splitlines()) == 1
        assert message in result.stderr
        assert not out.exists()

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

    def test_misspelled_caps_key_fails(self, runner, tmp_path):
        doc = json.loads((GOLDEN / "golden_caps.json").read_text())
        doc["capz"] = doc.pop("caps")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["caps", "--config", str(bad)])
        assert result.exit_code == 1
        assert "'capz'" in result.stderr

    def test_config_without_caps_fails_with_one_line(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "Error: cap experiment requires a config with caps"]
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_caps_flag_completes_a_config_without_caps(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--caps", "5000,800", "--out", str(out)])
        assert result.exit_code == 0
        config = {**json.loads((GOLDEN / "golden_bracketing.json").read_text()),
                  "caps": [5000.0, 800.0]}
        assert checks.check_csv(out.read_text(), "caps", config) == []

    def test_bad_out_leaves_existing_json_out_byte_identical(self, runner, tmp_path):
        keep = tmp_path / "keep.json"
        keep.write_bytes(b'{"kept": true}\n')
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--json-out", str(keep), "--out", str(tmp_path / "missing" / "x.csv")])
        assert result.exit_code == 1
        assert "--out" in result.stderr
        assert keep.read_bytes() == b'{"kept": true}\n'

    def test_outputs_leave_no_temporary_files(self, runner, tmp_path):
        args = ["caps", "--config", str(GOLDEN / "golden_caps.json"),
                "--json-out", str(tmp_path / "c.json")]
        result = runner.invoke(main, args + ["--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.json"]
        # the JSON target is already open when --out fails to open
        result = runner.invoke(main, args + ["--out", str(tmp_path / "missing" / "c.csv")])
        assert result.exit_code == 1
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

    def test_out_and_json_out_naming_one_file_fail(self, runner, tmp_path):
        same = tmp_path / "f"
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--out", str(same), "--json-out", str(same)])
        assert result.exit_code == 1
        assert "--out" in result.stderr and "--json-out" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert not same.exists()

    def test_out_through_a_symlink_to_the_json_out_file_fails(self, runner, tmp_path):
        target = tmp_path / "f"
        target.write_bytes(b"kept\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--out", str(link), "--json-out", str(target)])
        assert result.exit_code == 1
        assert "--json-out" in result.stderr
        assert target.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "link"]

    def test_out_and_json_out_to_dev_null(self, runner):
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--out", os.devnull, "--json-out", os.devnull])
        assert result.exit_code == 0

    def test_bad_caps_fail(self, runner):
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--caps", "100,200"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("caps", ["abc", "5000,,800", "5000,"])
    def test_unparsable_caps_fail_with_one_line(self, runner, caps):
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"), "--caps", caps])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"Error: could not parse --caps {caps!r}"]

    def test_unparsable_caps_reported_before_a_malformed_config(self, runner, tmp_path):
        # the flag is parsed as click reads it, before the config is opened
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        result = runner.invoke(main, ["caps", "--config", str(bad), "--caps", "5000,"])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == ["Error: could not parse --caps '5000,'"]


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
    @pytest.mark.parametrize("args, option", [
        (["caps", "--config", str(GOLDEN / "golden_caps.json")], "--json-out"),
        (["draw", "--alpha", "1.04", "--b", "150", "--accounts", "50", "--prizes", "2",
          "--multiple", "1"], "--dump-balances"),
    ])
    def test_stdout_named_twice_fails_with_one_line(self, runner, args, option):
        # --out is stdout by default
        result = runner.invoke(main, args + [option, "-"])
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert "--out" in line and option in line

    @pytest.mark.parametrize("command", ["bracketing", "caps"])
    @pytest.mark.parametrize("option", ["--out", "--json-out"])
    def test_unwritable_output_fails_before_the_run(self, runner, tmp_path, monkeypatch,
                                                    command, option):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(experiments, f"run_{command}", never)
        for bad in (str(tmp_path / "missing" / "x"), ""):
            paths = {"--out": str(tmp_path / "o.csv"), "--json-out": str(tmp_path / "o.json")}
            paths[option] = bad
            result = runner.invoke(main, [
                command, "--config", str(GOLDEN / f"golden_{command}.json"),
                "--out", paths["--out"], "--json-out", paths["--json-out"]])
            assert result.exit_code == 1
            [line] = result.stderr.splitlines()
            assert line.startswith(f"Error: cannot write {option} ")
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

    def test_unknown_model_rejected(self, runner):
        result = runner.invoke(main, [
            "cpt", "--model", "cubic", "--x-min", "1", "--x-max", "100",
            "--points", "3"])
        assert result.exit_code == 2
        assert result.stdout == ""

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

    def test_out_of_domain_fails_listing_points(self, runner):
        result = runner.invoke(main, [
            "cpt", "--model", "fixed-growth", "--x-min", "100",
            "--x-max", "500000", "--points", "3"])
        assert result.exit_code != 0
        assert "500000" in result.output

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

    @pytest.mark.parametrize("args", [
        ["--model", "dynamic", "--x-min", "nan", "--x-max", "100"],
        ["--model", "dynamic", "--x-min", "1", "--x-max", "inf"],
        ["--model", "dynamic", "--x-min", "1", "--x-max", "100", "--w", "inf"],
        ["--model", "fixed", "--x-min", "1", "--x-max", "100", "--y", "inf"],
        ["--model", "fixed-growth", "--x-min", "1", "--x-max", "100", "--r", "nan"],
        # finite flags whose utility overflows float64
        ["--model", "dynamic", "--x-min", "1", "--x-max", "1e300", "--w", "1e300"],
    ])
    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
    def test_non_finite_input_fails_with_one_line(self, runner, args):
        result = runner.invoke(main, ["cpt", *args, "--points", "3"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1

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

    def test_bad_grid_fails(self, runner):
        assert runner.invoke(main, [
            "cpt", "--model", "dynamic", "--x-min", "10", "--x-max", "5",
            "--points", "3"]).exit_code != 0
        assert runner.invoke(main, [
            "cpt", "--model", "dynamic", "--x-min", "0", "--x-max", "5",
            "--points", "3"]).exit_code != 0  # log spacing needs positive start


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

    def test_bad_out_leaves_existing_dump_byte_identical(self, runner, tmp_path):
        dump = tmp_path / "balances.txt"
        dump.write_bytes(b"1.0\n")
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "50",
            "--prizes", "2", "--multiple", "1", "--dump-balances", str(dump),
            "--out", str(tmp_path / "missing" / "d.csv")])
        assert result.exit_code == 1
        assert dump.read_bytes() == b"1.0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["balances.txt"]

    def test_out_and_dump_naming_one_file_fail_leaving_it_as_it_was(self, runner, tmp_path):
        same = tmp_path / "f"
        same.write_bytes(b"1.0\n")
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "100",
            "--prizes", "3", "--multiple", "1",
            "--out", str(same), "--dump-balances", str(same)])
        assert result.exit_code == 1
        assert "--out" in result.stderr and "--dump-balances" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert same.read_bytes() == b"1.0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_unwritable_dump_fails_with_one_line(self, runner, tmp_path):
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "50",
            "--prizes", "2", "--multiple", "1",
            "--dump-balances", str(tmp_path / "missing" / "balances.txt")])
        assert result.exit_code == 1
        assert "--dump-balances" in result.stderr
        assert "Traceback" not in result.output

    def test_infinite_multiple_fails_with_one_line(self, runner):
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "100",
            "--prizes", "3", "--multiple", "inf"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "Error: prize multiple must be finite and positive, got inf"]

    @pytest.mark.parametrize("b, multiple", [("1e307", "1"), ("150", "1e306")])
    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
    def test_float64_overflow_fails_with_one_line(self, runner, b, multiple):
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", b, "--accounts", "100", "--prizes", "3",
            "--multiple", multiple])
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert "can overflow float64" in line

    def test_population_beyond_the_32_bit_stream_fails_with_one_line(
            self, runner, monkeypatch):
        # refused before the population, 32 GiB of balances, is drawn
        def no_population(*args, **kwargs):
            raise AssertionError("a population was drawn")

        monkeypatch.setattr(cli, "generate", no_population)
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", str(2**32 + 1),
            "--prizes", "3", "--multiple", "1"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"Error: cannot draw from {2**32 + 1} accounts: the 32-bit stream "
            "draws from at most 2**32"]

    def test_negative_seed_fails_naming_its_option(self, runner):
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "10",
            "--prizes", "2", "--multiple", "1", "--seed", "-1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Invalid value for '--seed': -1 is not in the range x>=0." in result.stderr

    def test_invalid_inputs_fail(self, runner):
        assert runner.invoke(main, [
            "draw", "--alpha", "0.9", "--b", "150", "--accounts", "10",
            "--prizes", "2", "--multiple", "1"]).exit_code != 0
        assert runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "10",
            "--prizes", "20", "--multiple", "1"]).exit_code != 0


DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class TestFailurePath:
    """Refusals, impossible allocations and failed writes end a command with
    exit status 1 and one ``Error:`` line, never a traceback."""

    @staticmethod
    def assert_one_error_line(result):
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert lines[-1].startswith("Error: ")
        assert sum(line.startswith("Error:") for line in lines) == 1

    @pytest.mark.parametrize("name", MALFORMED_CONFIGS)
    @pytest.mark.parametrize("command", ["bracketing", "caps"])
    def test_malformed_config(self, runner, tmp_path, command, name):
        config = tmp_path / name
        config.write_bytes(MALFORMED_CONFIGS[name])
        result = runner.invoke(main, [command, "--config", str(config)])
        self.assert_one_error_line(result)
        assert result.stderr.startswith(f"Error: invalid config {config}: ")
        assert result.stdout == ""

    def test_repeated_key_is_named(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(MALFORMED_CONFIGS["duplicate-runs.json"])
        result = runner.invoke(main, ["caps", "--config", str(config)])
        assert result.stderr.splitlines() == [
            f"Error: invalid config {config}: duplicate field 'runs'"]

    def test_absurd_cpt_grid(self, runner):
        result = runner.invoke(main, [
            "cpt", "--model", "dynamic", "--x-min", "1", "--x-max", "2",
            "--points", str(10**21)])
        self.assert_one_error_line(result)
        assert result.stderr.splitlines() == ["Error: Maximum allowed size exceeded"]

    @DEV_FULL
    def test_table1_to_a_full_device(self, runner):
        result = runner.invoke(main, ["table1", "--out", "/dev/full"])
        self.assert_one_error_line(result)
        assert result.stderr.splitlines() == ["Error: [Errno 28] No space left on device"]

    @DEV_FULL
    def test_full_json_out_leaves_out_as_it_was(self, runner, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"old\n")
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--out", str(out), "--json-out", "/dev/full"])
        self.assert_one_error_line(result)
        assert "No space left on device" in result.stderr
        assert out.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

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
        self.assert_one_error_line(result)
        assert result.stderr.splitlines()[-1] == (
            "Error: Unable to allocate 72.8 TiB for an array")
        assert not out.exists()

    def test_impossible_population_in_a_drawing(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "generate", self.unable_to_allocate)
        out = tmp_path / "d.csv"
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "50",
            "--prizes", "2", "--multiple", "1", "--out", str(out)])
        self.assert_one_error_line(result)
        assert not out.exists()

    def test_bare_memory_error_still_names_itself(self, runner, monkeypatch):
        def bare(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "generate", bare)
        result = runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "50",
            "--prizes", "2", "--multiple", "1"])
        self.assert_one_error_line(result)
        assert result.stderr.splitlines() == ["Error: MemoryError"]

    def test_run_count_no_array_can_hold(self, runner, monkeypatch):
        # the result is sized before the first run, so no run may start and
        # no progress line is printed
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(experiments, "_one_run", no_run)
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--runs", str(10**19), "--out", "/dev/null"])
        self.assert_one_error_line(result)
        assert result.stderr.splitlines() == ["Error: Maximum allowed dimension exceeded"]

    @pytest.mark.parametrize("caps", ["inf", "1e400", "5000,nan"])
    def test_non_finite_cap_flag(self, runner, tmp_path, caps):
        json_out = tmp_path / "x.json"
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"), "--caps", caps,
            "--out", "/dev/null", "--json-out", str(json_out)])
        self.assert_one_error_line(result)
        assert result.stderr.startswith("Error: caps must be finite and positive, got ")
        assert not json_out.exists()

    def test_caps_flag_of_one_label(self, runner, tmp_path):
        # two caps that would write two cap_50000 column pairs and one JSON key
        out, json_out = tmp_path / "x.csv", tmp_path / "x.json"
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--caps", "250000,50000.01,50000", "--out", str(out), "--json-out", str(json_out)])
        self.assert_one_error_line(result)
        assert result.stderr.splitlines() == [
            "Error: caps 50000.01 and 50000.0 share the label '50000'"]
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_cap_in_config(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        # JSON reads 1e400 as infinity
        bad.write_text((GOLDEN / "golden_caps.json").read_text().replace(
            "5000.0", "1e400"))
        result = runner.invoke(main, ["caps", "--config", str(bad)])
        self.assert_one_error_line(result)
        assert "caps must be finite and positive, got inf" in result.stderr
        assert result.stdout == ""

    def test_grid_outside_the_domain_makes_a_short_line(self, runner):
        result = runner.invoke(main, [
            "cpt", "--model", "fixed", "--x-min", "0", "--x-max", "1e9",
            "--points", "100000", "--spacing", "linear"])
        self.assert_one_error_line(result)
        assert len(result.stderr.encode()) < 200
        assert result.stderr.splitlines() == [
            "Error: grid points outside the model domain: 99900 of 100000, "
            "first 1000010.000100001, last 1000000000.0"]

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
        assert result.stderr == ""


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


def _floats(lo: float, hi: float):
    return _mostly(st.floats(lo, hi), _WILD_FLOATS).map(repr)


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
    for name, text in MALFORMED_CONFIGS.items():
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
        optional["--caps"] = st.lists(_floats(1.0, 1e5), max_size=4).map(",".join)
    if config is None:  # the full-scale preset: its sizes must be overridden
        return [name] + _options(draw_from, sizes, optional)
    return [name, "--config", str(config)] + _options(draw_from, {}, {**sizes, **optional})


@st.composite
def _cpt_args(draw_from):
    return ["cpt"] + _options(draw_from, {
        "--model": st.sampled_from(cli.CPT_MODELS),
        "--x-min": _floats(0.0, 1e3), "--x-max": _floats(1e3, 1e5), "--points": _sizes(50),
    }, {
        "--spacing": st.sampled_from(["log", "linear"]), "--y": _floats(1.0, 1e5),
        "--c": _floats(1e-9, 1e-5), "--r": _floats(0.0, 0.2), "--w": _floats(1.0, 5.0),
        "--p": _floats(0.0, 1.0),
    })


@st.composite
def _draw_args(draw_from):
    return ["draw"] + _options(draw_from, {
        "--alpha": _floats(1.01, 3.0), "--b": _floats(1.0, 1e3),
        "--accounts": _sizes(2_000), "--prizes": _sizes(50), "--multiple": _floats(0.1, 100.0),
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
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        lines = result.stderr.splitlines()
        assert result.exit_code in (0, 1, 2), args
        if result.exit_code == 1:
            assert lines[-1].startswith("Error: "), args
            assert sum(line.startswith("Error:") for line in lines) == 1, args
        elif result.exit_code == 2:
            assert any(line.startswith("Error:") for line in lines), args
        if result.exit_code != 0:
            assert out.read_bytes() == b"old\n", args
        assert os.listdir(tmp) == ["out.csv"], args
