import dataclasses

import pytest

from modnudge import config as cfgmod
from modnudge.config import (
    OUTDIR_ENV,
    RunConfig,
    apply_overrides,
    config_from_mapping,
    default_config,
    load_config,
    parse_kv_text,
    resolve_outdir,
)


class TestParser:
    def test_basic_lines_and_comments(self):
        text = """
        # a comment
        n = 64          # trailing comment
        nu = 1e-3

        scheme = 2b
        """
        raw = parse_kv_text(text)
        assert raw == {"n": "64", "nu": "1e-3", "scheme": "2b"}

    def test_rejects_line_without_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_kv_text("n 64")

    def test_rejects_empty_value(self):
        with pytest.raises(ValueError, match="empty"):
            parse_kv_text("n =")

    def test_type_coercion(self):
        cfg = config_from_mapping(
            {
                "n": "64",
                "chi": "1e3",
                "chi_list": "0,1,1e4",
                "windows": "10:15, 15:20",
                "k_list": "0.25,0.125",
                "operator": "cell-average",
                "operator_scale": "8",
            }
        )
        assert cfg.n == 64
        assert cfg.chi == 1e3
        assert cfg.chi_list == (0.0, 1.0, 1e4)
        assert cfg.windows == ((10.0, 15.0), (15.0, 20.0))
        assert cfg.k_list == (0.25, 0.125)
        assert cfg.operator == "cell-average"

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ValueError, match="valid keys.*chi_list"):
            config_from_mapping({"chis": "1"})

    def test_bad_window_syntax(self):
        with pytest.raises(ValueError, match="start:end"):
            config_from_mapping({"windows": "10-15"})

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 32\nk = 0.02\nT = 0.4\nseed = 7\n")
        cfg = load_config(path)
        assert (cfg.n, cfg.k, cfg.T, cfg.seed) == (32, 0.02, 0.4, 7)

    def test_apply_overrides(self):
        cfg = apply_overrides(RunConfig(), ["chi=5", "seed=3"])
        assert cfg.chi == 5.0 and cfg.seed == 3
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides(cfg, ["chi"])

    def test_override_rejects_empty_value_like_a_config_file(self):
        # a string key would otherwise take "" and a list key the empty list
        for pair in ("outdir=", "kchi_list= ", "=3"):
            with pytest.raises(ValueError, match="empty key or value"):
                apply_overrides(RunConfig(), [pair])


class TestValidation:
    def test_explicit_scheme_rejects_differential_filter(self):
        with pytest.raises(ValueError, match="idempotent"):
            RunConfig(scheme="2a-explicit", operator="differential-filter")

    def test_filter_allowed_with_implicit_schemes(self):
        cfg = RunConfig(scheme="2a-implicit", operator="differential-filter",
                        operator_scale=0.5)
        assert cfg.operator == "differential-filter"

    @pytest.mark.parametrize("kind,scale,message", [
        ("spectral-projection", 8.7, "whole-number"),
        ("cell-average", 16.9, "whole-number"),
        ("cell-average", 7.0, "must divide"),
        ("spectral-projection", 0.0, "at least 1"),
        ("differential-filter", -1.0, "positive"),
    ])
    def test_operator_scale_must_suit_the_operator(self, kind, scale, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(n=64, scheme="2a-implicit", operator=kind, operator_scale=scale)

    def test_horizon_must_be_step_multiple(self):
        for T in (1.0, float("inf")):
            with pytest.raises(ValueError, match="integer number of steps"):
                RunConfig(k=0.3, T=T)

    def test_truth_step_must_divide(self):
        with pytest.raises(ValueError, match="evenly divide"):
            RunConfig(k=0.01, k_truth=0.003)
        assert RunConfig(k=0.01, k_truth=0.0025).truth_step == 0.0025
        assert RunConfig(k=0.01).truth_step == 0.0025

    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError, match="even"):
            RunConfig(n=63)

    @pytest.mark.parametrize("key", ["chi_list", "epsilons"])
    def test_empty_list_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} needs at least one entry"):
            RunConfig(**{key: ()})
        with pytest.raises(ValueError, match=key):
            apply_overrides(RunConfig(), [f"{key}="])

    @pytest.mark.parametrize("key,good", [
        ("chi_list", "0,1"), ("k_list", "0.5,0.25"), ("epsilons", "0.1"), ("kchi_list", "0,1"),
    ])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1"])
    def test_list_entries_must_be_finite(self, key, good, bad):
        cfg = apply_overrides(RunConfig(), [f"{key}={good}"])
        with pytest.raises(ValueError, match=f"{key} entries must be finite"):
            apply_overrides(cfg, [f"{key}={good},{bad}"])

    @pytest.mark.parametrize("key", ["k_list", "epsilons"])
    def test_zero_is_refused_where_entries_must_be_positive(self, key):
        with pytest.raises(ValueError, match="finite and positive"):
            apply_overrides(RunConfig(), [f"{key}=0.5,0"])

    def test_window_outside_horizon(self):
        with pytest.raises(ValueError, match="inside"):
            RunConfig(T=25.0, windows=((10.0, 30.0),))

    def test_unknown_scheme_and_operator(self):
        with pytest.raises(ValueError, match="scheme"):
            RunConfig(scheme="3c")
        with pytest.raises(ValueError, match="operator"):
            RunConfig(operator="lidar")

    def test_default_windows_cover_late_times(self):
        cfg = RunConfig(T=25.0)
        wins = cfg.horizon_windows()
        assert (10.0, 15.0) in wins and (12.5, 25.0) in wins
        explicit = RunConfig(T=25.0, windows=((1.0, 2.0),))
        assert explicit.horizon_windows() == ((1.0, 2.0),)

    def test_steps_property(self):
        assert RunConfig(k=0.01, T=25.0).steps == 2500


class TestDefaultsAndEnv:
    def test_manufactured_defaults(self):
        cfg = default_config("manufactured")
        assert (cfg.n, cfg.nu, cfg.T, cfg.chi) == (64, 1.0, 2.0, 1e3)
        assert cfg.operator_scale == 8.0

    def test_twin_defaults_match_experiment_regime(self):
        cfg = default_config("twin")
        assert (cfg.n, cfg.nu, cfg.k, cfg.T, cfg.chi) == (128, 1e-3, 0.01, 25.0, 1e4)

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        chosen = str(tmp_path / "chosen")
        monkeypatch.delenv(OUTDIR_ENV, raising=False)
        assert resolve_outdir(chosen) == tmp_path / "chosen"
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "from_env"))
        out = resolve_outdir(chosen)
        assert out == tmp_path / "from_env"
        assert out.is_dir()

    def test_parsers_registry_covers_all_fields(self):
        # every non-float field needs an explicit parser entry
        for f in dataclasses.fields(RunConfig):
            if f.name not in cfgmod._PARSERS:
                assert f.type in ("float",), f.name
