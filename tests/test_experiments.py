import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from plsim import experiments
from plsim.drawing import (
    PrizeSchedule,
    expected_payout,
    payouts,
    winner_blocks,
    worst_payout,
)
from plsim.experiments import (
    Cell,
    ExperimentConfig,
    Result,
    bracketing_config,
    caps_config,
    config_from_dict,
    config_to_dict,
    level_label,
    run_bracketing,
    run_caps,
    var_rank,
)
from plsim.pareto import ParetoParams
from plsim.population import generate

P104 = ParetoParams(1.04, 150.0)
TWENTY = PrizeSchedule(20, 1.0)
ROOT = Path(__file__).parent.parent


def small_config(**overrides):
    base = dict(
        pareto=P104,
        n_accounts=400,
        schedules=(PrizeSchedule(20, 1.0), PrizeSchedule(5, 4.0)),
        draws_per_run=60,
        runs=4,
        var_levels=(0.05, 0.02),
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(runs=0)
        with pytest.raises(ValueError):
            small_config(draws_per_run=0)
        with pytest.raises(ValueError):
            small_config(n_accounts=10)  # below the 20-prize schedule
        with pytest.raises(ValueError):
            small_config(schedules=())
        with pytest.raises(ValueError):
            small_config(var_levels=(0.0,))
        with pytest.raises(ValueError):
            small_config(caps=(100.0, 100.0))  # not strictly descending
        with pytest.raises(ValueError):
            small_config(caps=(100.0, 200.0))
        with pytest.raises(ValueError):
            small_config(caps=())

    def test_json_round_trip(self):
        cfg = small_config(caps=(1000.0, 500.0))
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(data) == cfg

    def test_missing_field_message(self):
        with pytest.raises(ValueError, match="missing"):
            config_from_dict({"pareto": {"alpha": 2.0, "b": 1.0}})

    def test_mistyped_field_message(self):
        data = config_to_dict(small_config())
        for field, bad in (("pareto", None), ("schedules", 5), ("runs", [4])):
            with pytest.raises(ValueError, match="wrong type"):
                config_from_dict({**data, field: bad})

    @pytest.mark.parametrize("bad", [400.7, True, "7"])
    def test_integer_fields_take_only_json_integers(self, bad):
        data = config_to_dict(small_config())
        for field in ("n_accounts", "runs", "draws_per_run", "master_seed"):
            with pytest.raises(ValueError, match=f"wrong type: {field}"):
                config_from_dict({**data, field: bad})
        schedules = [{**data["schedules"][0], "count": bad}]
        with pytest.raises(ValueError, match="wrong type: count"):
            config_from_dict({**data, "schedules": schedules})

    @pytest.mark.parametrize("bad", ["1.04", True, None, [1.5]])
    def test_float_fields_take_only_json_numbers(self, bad):
        data = config_to_dict(small_config(caps=(1000.0,)))
        for field, changed in (
                ("alpha", {"pareto": {**data["pareto"], "alpha": bad}}),
                ("b", {"pareto": {**data["pareto"], "b": bad}}),
                ("multiple", {"schedules": [{**data["schedules"][0], "multiple": bad}]}),
                ("var_levels", {"var_levels": [0.05, bad]}),
                ("caps", {"caps": [bad]})):
            with pytest.raises(ValueError, match=f"wrong type: {field}"):
                config_from_dict({**data, **changed})

    @pytest.mark.parametrize("bad", ["7", True, b"9", np.True_, None],
                             ids=["str", "bool", "bytes", "numpy-bool", "None"])
    def test_caps_that_are_not_real_numbers_are_refused(self, bad):
        # float() would take "7", True and b"9" as 7.0, 1.0 and 9.0
        with pytest.raises(ValueError, match="caps must be real numbers, got "):
            small_config(caps=(1000.0, bad))
        pop = generate(P104, 40, 3)
        with pytest.raises(ValueError, match="caps must be real numbers, got "):
            payouts(pop, PrizeSchedule(2, 1.0), "random", np.random.default_rng(0), 3,
                    (bad,))

    def test_float_fields_take_json_integers(self):
        data = config_to_dict(small_config(caps=(1000.0,)))
        config = config_from_dict({**data, "pareto": {"alpha": 2, "b": 150},
                                   "caps": [1000]})
        assert config == small_config(pareto=ParetoParams(2.0, 150.0), caps=(1000.0,))
        assert isinstance(config.pareto.b, float)

    @pytest.mark.parametrize("field, bad", [
        ("schedules", {"count": 20, "multiple": 1.0}), ("var_levels", "0.05"),
        ("var_levels", 0.05), ("caps", "321"), ("caps", 1000.0)])
    def test_list_fields_take_only_json_lists(self, field, bad):
        data = config_to_dict(small_config(caps=(1000.0,)))
        with pytest.raises(ValueError, match=f"wrong type: {field}"):
            config_from_dict({**data, field: bad})

    def test_infinite_parameters_rejected(self):
        data = config_to_dict(small_config())
        # JSON reads 1e400 as infinity
        doc = json.loads(json.dumps(data).replace('"b": 150.0', '"b": 1e400'))
        assert doc["pareto"]["b"] == math.inf
        with pytest.raises(ValueError, match="finite"):
            config_from_dict(doc)
        schedules = [{**data["schedules"][0], "multiple": math.inf}]
        with pytest.raises(ValueError, match="finite"):
            config_from_dict({**data, "schedules": schedules})

    @pytest.mark.parametrize("caps", [[math.inf], [1e400, 100.0], [5000.0, math.nan]])
    def test_non_finite_caps_rejected(self, caps):
        # JSON reads 1e400 as infinity, and an infinite cap would be dumped
        # as Infinity, which is not JSON
        data = config_to_dict(small_config(caps=(1000.0,)))
        with pytest.raises(ValueError, match="caps must be finite and positive"):
            config_from_dict({**data, "caps": caps})
        doc = json.loads(json.dumps(data).replace("[1000.0]", "[1e400]"))
        assert doc["caps"] == [math.inf]
        with pytest.raises(ValueError, match="caps must be finite and positive, got inf"):
            config_from_dict(doc)

    @pytest.mark.parametrize("bad", [True, np.True_, 2.5, 4.0, "4", None],
                             ids=["bool", "numpy-bool", "fraction", "float", "str", "None"])
    def test_integer_fields_refuse_non_integers(self, bad):
        # True would run once with seed 1; the others would fail inside numpy
        for field in ("n_accounts", "runs", "draws_per_run", "master_seed"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
                small_config(**{field: bad})

    def test_integer_fields_take_numpy_integers(self):
        config = small_config(runs=np.int64(2), master_seed=np.uint32(7))
        assert run_bracketing(config).to_csv_string() == run_bracketing(
            small_config(runs=2, master_seed=7)).to_csv_string()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed"):
            small_config(master_seed=-1)
        assert small_config(master_seed=0).master_seed == 0

    def test_populations_beyond_the_32_bit_stream_rejected(self):
        # refused while the config is built, before any population is drawn
        assert small_config(n_accounts=2**32).n_accounts == 2**32
        with pytest.raises(ValueError, match="at most 2\\*\\*32"):
            small_config(n_accounts=2**32 + 1)

    def test_unknown_fields_rejected(self):
        data = config_to_dict(small_config(caps=(1000.0,)))
        with pytest.raises(ValueError, match="'capz' in config"):
            config_from_dict({**data, "capz": [100.0]})
        with pytest.raises(ValueError, match="'beta' in pareto"):
            config_from_dict({**data, "pareto": {**data["pareto"], "beta": 1.0}})
        schedules = [{**data["schedules"][0], "multple": 2.0}]
        with pytest.raises(ValueError, match="'multple' in schedule"):
            config_from_dict({**data, "schedules": schedules})

    def test_shipped_configs_load(self):
        paths = sorted(ROOT.glob("configs/*.json")) + sorted(
            ROOT.glob("tests/golden/*.json"))
        assert len(paths) == 6
        for path in paths:
            config_from_dict(json.loads(path.read_text()))

    def test_full_scale_presets(self):
        br = bracketing_config()
        assert br.runs == 200 and br.draws_per_run == 10_000
        assert br.n_accounts == 100_000 and br.caps is None
        cp = caps_config()
        assert cp.runs == 2000 and cp.draws_per_run == 1_000
        assert cp.caps == (250_000.0, 50_000.0, 10_000.0)

    @pytest.mark.parametrize("path, preset, pareto", [
        ("bracketing_full_a104_b150.json", bracketing_config, ParetoParams(1.04, 150.0)),
        ("bracketing_full_a112_b250.json", bracketing_config, ParetoParams(1.12, 250.0)),
        ("caps_full_a104_b150.json", caps_config, ParetoParams(1.04, 150.0)),
        ("caps_full_a112_b250.json", caps_config, ParetoParams(1.12, 250.0)),
    ])
    def test_shipped_configs_are_the_presets(self, path, preset, pareto):
        # so a run without --config and one with the shipped file are one experiment
        doc = json.loads((ROOT / "configs" / path).read_text())
        assert config_from_dict(doc) == preset(pareto)

    def test_level_label(self):
        assert level_label(0.05) == "5%"
        assert level_label(0.001) == "0.1%"
        assert level_label(0.0001) == "0.01%"
        assert level_label(None) == "worst"


class TestBracketing:
    def test_rejects_caps(self):
        with pytest.raises(ValueError):
            run_bracketing(small_config(caps=(1000.0,)))

    def test_deterministic_across_workers(self):
        cfg = small_config()
        serial = run_bracketing(cfg, workers=1)
        parallel = run_bracketing(cfg, workers=3)
        assert serial.to_csv_string() == parallel.to_csv_string()
        for a, b in zip(serial.cells, parallel.cells):
            np.testing.assert_array_equal(a.values[0], b.values[0])
            np.testing.assert_array_equal(a.values[1], b.values[1])

    def test_workers_clamped_to_runs(self, serial_pool):
        cfg = small_config(runs=2)
        pooled = run_bracketing(cfg, workers=3).to_csv_string()
        assert pooled == run_bracketing(cfg, workers=1).to_csv_string()
        # every worker sets the memory policy itself, however it was started
        assert serial_pool == [(2, experiments.prepare_engine_process)]

    def test_schedule_cells_invariant_to_later_schedules(self):
        # drawing streams are keyed by schedule index, so results for a
        # schedule do not move when more schedules are appended
        lone = run_bracketing(small_config(schedules=(PrizeSchedule(20, 1.0),)))
        both = run_bracketing(small_config())
        np.testing.assert_array_equal(
            lone.cell(0, 0.05).values[0], both.cell(0, 0.05).values[0])
        np.testing.assert_array_equal(
            lone.cell(0, None).values[1], both.cell(0, None).values[1])

    def test_degenerate_single_run_single_draw(self):
        cfg = small_config(runs=1, draws_per_run=1, var_levels=(0.5,))
        result = run_bracketing(cfg)
        # replay the run by hand from the same substreams
        pop = generate(cfg.pareto, cfg.n_accounts,
                       np.random.SeedSequence(cfg.master_seed, spawn_key=(0, 0)))
        for i, sched in enumerate(cfg.schedules):
            expected = expected_payout(pop, sched)
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.master_seed, spawn_key=(0, 1, i)))
            lone = payouts(pop, sched, "random", rng, 1)[0, 0] / expected
            cell = result.cell(i, 0.5)
            assert cell.values[0][0] == pytest.approx(lone, rel=1e-12)
            assert cell.averages[0] == pytest.approx(lone, rel=1e-12)
            assert cell.stds[0] is None
            worst_cell = result.cell(i, None)
            assert worst_cell.values[0][0] == pytest.approx(
                worst_payout(pop, sched, "random") / expected, rel=1e-12)

    def test_worst_cell_ordering(self):
        result = run_bracketing(small_config())
        for i in range(2):
            cell = result.cell(i, None)
            assert np.all(cell.values[1] <= cell.values[0])

    def test_csv_shape(self):
        result = run_bracketing(small_config())
        lines = result.to_csv_string().splitlines()
        header = lines[0].split(",")
        assert header == ["params", "schedule", "var_level", "random_avg",
                          "bracket_avg", "pct_bracket_higher", "random_std",
                          "bracket_std", "rel_diff_pct"]
        # 2 schedules x (2 levels + worst)
        assert len(lines) == 1 + 2 * 3
        assert lines[1].startswith("1.04/150,20x100%,5%,")

    def test_json_contains_per_run_values(self):
        cfg = small_config()
        doc = run_bracketing(cfg).to_json_dict()
        assert doc["experiment"] == "bracketing"
        assert config_from_dict(doc["config"]) == cfg
        assert len(doc["cells"]) == 6
        assert all(len(cell["random"]) == cfg.runs for cell in doc["cells"])

    def test_scaled_mean_near_one(self):
        # E[scaled payout] = 1 by construction; 3-SE band on a pinned run
        cfg = small_config(runs=1, draws_per_run=400, var_levels=(0.05,))
        pop = generate(cfg.pareto, cfg.n_accounts,
                       np.random.SeedSequence(cfg.master_seed, spawn_key=(0, 0)))
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.master_seed, spawn_key=(0, 1, 0)))
        scaled = payouts(pop, cfg.schedules[0], "random", rng, 400)[0] / expected_payout(
            pop, cfg.schedules[0])
        band = 3.0 * scaled.std(ddof=1) / math.sqrt(scaled.size)
        assert abs(scaled.mean() - 1.0) < band


class TestResultCell:
    def test_level_matched_despite_rounding(self):
        result = run_bracketing(small_config(runs=1))
        assert result.cell(1, 1 - 0.95) is result.cell(1, 0.05)
        assert result.cell(1, 0.2 / 10) is result.cell(1, 0.02)
        assert result.cell(1, None) is result.cells[-1]

    def test_unknown_level_names_configured_levels(self):
        result = run_bracketing(small_config(runs=1))
        with pytest.raises(ValueError, match=r"0\.03 .*\[0\.05, 0\.02\]"):
            result.cell(0, 0.03)


class TestVarRank:
    def test_order_statistic_convention(self):
        ranks = [var_rank(10_000, level) for level in (0.05, 0.01, 0.001)]
        assert ranks == [9499, 9899, 9989]
        # topmost resolvable level reports the largest payout
        assert var_rank(10_000, 0.0001) == 9999

    def test_thousand_draw_convention(self):
        assert [var_rank(1_000, level) for level in (0.05, 0.01, 0.001)] == [949, 989, 999]

    def test_below_resolution_reports_maximum(self):
        assert var_rank(10, 0.001) == 9

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            var_rank(0, 0.05)

    def test_level_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                var_rank(100, bad)


def bracketing_rows(*values):
    """CSV rows of a one-schedule bracketing result whose 5% cell and worst
    cell hold ``values``, each a (random, bracketed) pair of per-run rows."""
    config = small_config(schedules=(TWENTY,), var_levels=(0.05,), runs=len(values[0][0]))
    cells = tuple(Cell(TWENTY, level, np.array(rows, dtype=float))
                  for level, rows in zip((0.05, None), values))
    return list(csv.DictReader(io.StringIO(Result(config, cells).to_csv_string())))


class TestCellStatistics:
    def test_relative_difference_published_rows(self):
        rows = bracketing_rows([[2.044715], [1.864649]], [[60.90616], [14.42867]])
        assert [round(float(row["rel_diff_pct"]), 1) for row in rows] == [9.7, 322.1]
        rows = bracketing_rows([[3.0], [3.0]], [[3.0], [3.0]])
        assert [row["rel_diff_pct"] for row in rows] == ["0.00", "0.00"]

    def test_percentage_higher(self):
        # each variant against the previous one: 2 > 1 but 3 < 4
        assert Cell(TWENTY, 0.05, np.array([[1.0, 4.0], [2.0, 3.0]])).pct_higher == [
            None, 50.0]
        assert Cell(TWENTY, 0.05, np.ones((3, 2))).pct_higher == [None, 0.0, 0.0]

    def test_mutual_percentages_bounded(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 5, 200).astype(float)
        b = rng.integers(0, 5, 200).astype(float)
        b_higher = Cell(TWENTY, 0.05, np.array([a, b])).pct_higher[1]
        a_higher = Cell(TWENTY, 0.05, np.array([b, a])).pct_higher[1]
        assert b_higher + a_higher <= 100.0

    def test_known_standard_deviations(self):
        stds = Cell(TWENTY, None, np.array([[1.0, 1.0, 1.0], [0.0, 2.0, 1.0]])).stds
        assert stds == [0.0, 1.0]
        assert Cell(TWENTY, None, np.array([[0.0, 2.0]])).stds == [
            pytest.approx(np.sqrt(2.0))]


class TestCaps:
    def test_requires_caps(self):
        with pytest.raises(ValueError):
            run_caps(small_config())

    def test_deterministic_across_workers(self):
        cfg = small_config(caps=(5000.0, 800.0))
        serial = run_caps(cfg, workers=1)
        parallel = run_caps(cfg, workers=3)
        assert serial.to_csv_string() == parallel.to_csv_string()

    def test_first_cap_above_every_balance_equals_uncapped(self):
        cfg = small_config(caps=(np.finfo(float).max, 5000.0))
        result = run_caps(cfg)
        for cell in result.cells:
            np.testing.assert_array_equal(cell.values[0], cell.values[1])
            assert cell.pct_higher[1] == 0.0

    def test_worst_rows_never_increase(self):
        cfg = small_config(caps=(20_000.0, 2_000.0, 500.0), runs=6)
        result = run_caps(cfg)
        for i in range(len(cfg.schedules)):
            cell = result.cell(i, None)
            for prev, cur in zip(cell.values, cell.values[1:]):
                assert np.all(cur <= prev)
            assert all(p == 0.0 for p in cell.pct_higher[1:])

    def test_comparison_count(self):
        cfg = small_config(caps=(20_000.0, 2_000.0), runs=3)
        result = run_caps(cfg)
        assert result.raw_payout_comparisons == 3 * 2 * 60 * 2

    def test_uncapped_column_matches_bracketing_random_stream(self):
        # same master seed and schedule index means the same winner draws
        cfg = small_config()
        capped = run_caps(small_config(caps=(10_000.0,)))
        plain = run_bracketing(cfg)
        np.testing.assert_allclose(
            capped.cell(0, 0.05).values[0],
            plain.cell(0, 0.05).values[0], rtol=1e-12)

    def test_scaling_uses_capped_mean(self):
        cfg = small_config(caps=(2_000.0,), runs=1, draws_per_run=30,
                           var_levels=(0.05,))
        result = run_caps(cfg)
        pop = generate(cfg.pareto, cfg.n_accounts,
                       np.random.SeedSequence(cfg.master_seed, spawn_key=(0, 0)))
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.master_seed, spawn_key=(0, 1, 0)))
        blocks = winner_blocks(pop, cfg.schedules[0], "random", rng, 30)
        winners = np.concatenate([block for _, block in blocks])
        sched = cfg.schedules[0]
        capped = np.minimum(pop.balances, 2_000.0)
        raw = np.sort(capped[winners].sum(axis=1) * sched.multiple)
        expected = sched.count * sched.multiple * capped.mean()
        assert result.cell(0, 0.05).values[1][0] == pytest.approx(
            raw[var_rank(30, 0.05)] / expected, rel=1e-12)

    def test_csv_shape(self):
        cfg = small_config(caps=(5000.0, 800.0))
        result = run_caps(cfg)
        lines = result.to_csv_string().splitlines()
        assert lines[0].split(",") == [
            "params", "schedule", "var_level", "uncapped_avg",
            "cap_5000_avg", "cap_5000_pct_higher",
            "cap_800_avg", "cap_800_pct_higher"]
        assert len(lines) == 1 + 2 * 3

    def test_json_layout(self):
        cfg = small_config(caps=(5000.0,))
        doc = run_caps(cfg).to_json_dict()
        assert doc["experiment"] == "caps"
        cell = doc["cells"][0]
        assert set(cell["scaled"].keys()) == {"uncapped", "5000"}
        assert len(cell["scaled"]["uncapped"]) == cfg.runs


@pytest.mark.parametrize("rising", [(1, 0), (2, 5)], ids=["first-cap", "last-cap"])
def test_a_raw_payout_that_rises_under_a_lower_cap_is_refused(monkeypatch, rising):
    # the engine's payouts never rise as the cap falls; a stand-in that
    # makes one drawing's payout rise at one cap must stop the run
    real = experiments.payouts

    def rising_payouts(*args, **kwargs):
        raw = real(*args, **kwargs)
        level, drawing = rising
        raw[level, drawing] = raw[level - 1, drawing] + 1.0
        return raw

    monkeypatch.setattr(experiments, "payouts", rising_payouts)
    with pytest.raises(RuntimeError, match="raw payout increased after lowering the cap"):
        experiments._one_run(small_config(caps=(5000.0, 800.0)), 0)


# full-size runs reuse the memory that the runs before them freed
@pytest.mark.skipif(experiments._mallopt() is None, reason="no glibc mallopt")
@pytest.mark.parametrize("config", [
    caps_config(runs=1),
    bracketing_config(runs=1, draws_per_run=1000),
], ids=["caps", "bracketing"])
def test_runs_after_the_first_fault_in_almost_no_memory(config):
    import resource  # POSIX only, like mallopt

    def minor_faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    experiments.prepare_engine_process()
    experiments._one_run(config, 0)
    before = minor_faults()
    for r in range(1, 5):
        experiments._one_run(config, r)
    # on average, where a run makes about 1,300-3,300 under glibc's default
    # thresholds; the heap still grows by up to 130 pages once in a while,
    # when the free chunks of the runs before do not fit
    assert minor_faults() - before < 4 * 100
