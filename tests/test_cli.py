import csv
import json
import os
import stat
import subprocess
import sys

from pathlib import Path

import pytest
from click.testing import CliRunner

import plsim
from plsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
JSON_GOLDEN = GOLDEN / "json_out"  # --json-out of the two golden configs


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestTable1:
    def test_default_matches_published_table(self, runner):
        result = runner.invoke(main, ["table1"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(result.stdout.splitlines()))
        published = {
            ("1.04", "150"): (3900.0, 292.11, 1372.87, 2673.51, 12565.16,
                              115002.33, 1052555.74),
            ("1.12", "250"): (2333.0, 464.21, 1953.43, 3627.22, 15263.51,
                              119264.56, 931898.43),
        }
        assert len(rows) == 2
        for row in rows:
            want = published[(row["alpha"], row["b"])]
            assert abs(float(row["mean"]) - want[0]) <= 0.5
            for col, ref in zip(("median", "p90", "p95", "p99", "p99.9", "p99.99"),
                                want[1:]):
                assert abs(float(row[col]) - ref) <= 0.0101

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

    def test_invalid_params_fail(self, runner):
        assert runner.invoke(main, ["table1", "--params", "1.04"]).exit_code != 0
        assert runner.invoke(main, ["table1", "--params", "0.9,150"]).exit_code != 0
        assert runner.invoke(main, ["table1", "--params", "abc,150"]).exit_code != 0

    @pytest.mark.parametrize("params", ["1.04,inf", "inf,150", "1.04,nan"])
    def test_non_finite_params_fail_with_one_line(self, runner, params):
        result = runner.invoke(main, ["table1", "--params", params])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "finite" in result.stderr


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

    def test_threads_do_not_change_output(self, runner, tmp_path):
        args = ["bracketing", "--config", str(GOLDEN / "golden_bracketing.json")]
        one = tmp_path / "one.csv"
        many = tmp_path / "many.csv"
        assert runner.invoke(main, args + ["--threads", "1", "--out", str(one)]).exit_code == 0
        assert runner.invoke(main, args + ["--threads", "3", "--out", str(many)]).exit_code == 0
        assert one.read_bytes() == many.read_bytes()

    def test_smoke_run_completes(self, runner):
        result = runner.invoke(main, [
            "bracketing", "--runs", "1", "--draws", "10", "--accounts", "2000",
            "--seed", "3"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(result.stdout.splitlines()))
        assert len(rows) == 4 * 5  # four schedules, four levels plus worst
        assert all(float(r["random_avg"]) > 0 for r in rows)

    def test_flag_overrides_config(self, runner, tmp_path):
        out = tmp_path / "o.csv"
        result = runner.invoke(main, [
            "bracketing", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--runs", "2", "--out", str(out)])
        assert result.exit_code == 0
        json_out = tmp_path / "o.json"
        result = runner.invoke(main, [
            "bracketing", "--config", str(GOLDEN / "golden_bracketing.json"),
            "--runs", "2", "--out", str(out), "--json-out", str(json_out)])
        assert result.exit_code == 0
        doc = json.loads(json_out.read_text())
        assert doc["config"]["runs"] == 2
        assert all(len(cell["random"]) == 2 for cell in doc["cells"])

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
        assert "wrong type" in result.stderr
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

    @pytest.mark.parametrize("field, bad", [
        ("caps", "321"), ("caps", [5000.0, "800"]), ("var_levels", [True])])
    def test_mistyped_float_fields_fail_with_one_line(self, runner, tmp_path, field, bad):
        doc = json.loads((GOLDEN / "golden_caps.json").read_text())
        doc[field] = bad
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "c.csv"
        result = runner.invoke(main, ["caps", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert len(result.stderr.splitlines()) == 1
        assert f"wrong type: {field}" in result.stderr
        assert not out.exists()

    def test_caps_flag_overrides(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--caps", "9000,900", "--out", str(out)])
        assert result.exit_code == 0
        rows = read_csv(out)
        assert "cap_9000_avg" in rows[0]
        assert "cap_900_pct_higher" in rows[0]

    def test_worst_rows_zero_pct(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--out", str(out)])
        for row in read_csv(out):
            if row["var_level"] == "worst":
                assert row["cap_5000_pct_higher"] == "0.00"
                assert row["cap_800_pct_higher"] == "0.00"

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
        assert "cap_800_avg" in read_csv(out)[0]

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

    def test_bad_caps_fail(self, runner):
        result = runner.invoke(main, [
            "caps", "--config", str(GOLDEN / "golden_caps.json"),
            "--caps", "100,200"])
        assert result.exit_code != 0


class TestCptCommand:
    def test_golden(self, runner, tmp_path):
        out = tmp_path / "cpt.csv"
        result = runner.invoke(main, [
            "cpt", "--model", "dynamic", "--x-min", "1", "--x-max", "100",
            "--points", "5", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "cpt_dynamic_small.csv").read_bytes()

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

    def test_invalid_inputs_fail(self, runner):
        assert runner.invoke(main, [
            "draw", "--alpha", "0.9", "--b", "150", "--accounts", "10",
            "--prizes", "2", "--multiple", "1"]).exit_code != 0
        assert runner.invoke(main, [
            "draw", "--alpha", "1.04", "--b", "150", "--accounts", "10",
            "--prizes", "20", "--multiple", "1"]).exit_code != 0
