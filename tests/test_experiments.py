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
    ExperimentConfig,
    bracketing_config,
    caps_config,
    config_from_dict,
    config_to_dict,
    level_label,
    run_bracketing,
    run_caps,
)
from plsim.pareto import ParetoParams
from plsim.population import apply_cap, generate
from plsim.risk import scale, var_approx

P104 = ParetoParams(1.04, 150.0)
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

    def test_workers_clamped_to_runs(self, monkeypatch):
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return map(func, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        cfg = small_config(runs=2)
        pooled = run_bracketing(cfg, workers=3).to_csv_string()
        assert pooled == run_bracketing(cfg, workers=1).to_csv_string()
        assert seen == [2]

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


class TestCaps:
    def test_requires_caps(self):
        with pytest.raises(ValueError):
            run_caps(small_config())

    def test_deterministic_across_workers(self):
        cfg = small_config(caps=(5000.0, 800.0))
        serial = run_caps(cfg, workers=1)
        parallel = run_caps(cfg, workers=3)
        assert serial.to_csv_string() == parallel.to_csv_string()

    def test_infinite_first_cap_equals_uncapped(self):
        cfg = small_config(caps=(math.inf, 5000.0))
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
        capped_pop = apply_cap(pop, 2_000.0)
        raw = capped_pop.balances[winners].sum(axis=1) * cfg.schedules[0].multiple
        dist = scale(raw, expected_payout(capped_pop, cfg.schedules[0]))
        assert result.cell(0, 0.05).values[1][0] == pytest.approx(
            var_approx(dist, 0.05), rel=1e-12)

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
