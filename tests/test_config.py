from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import pytest

from leapverify.config import (
    DEFAULT_CASCADES,
    DEFAULT_K_SET,
    OUT_ENV_VAR,
    RunConfig,
    config_dict,
    format_config,
    load_config,
    parse_config,
    resolve_out_root,
    save_config,
)


def custom_config() -> RunConfig:
    return RunConfig(
        task="char-seq", seeds=(1, 2, 3), steps=400, delta=20, lr=0.005,
        warmup_steps=40, tau_low=0.8, tau_high=0.95, k_set=(5, 20),
        epsilon=0.1, criterion="proximity", momentum_variant="descent",
        quad_variant="exact", ff_policy="decay", regime_gating=False,
        live_predictor="momentum", live_k=20, cascades=((2, 20), (3, 5)),
        batch_size=16, probe_count=10, out="results",
    )


def test_defaults_match_protocol():
    cfg = RunConfig()
    assert cfg.seeds == (42, 43, 44, 45, 46)
    assert cfg.steps == 2000
    assert cfg.delta == 50
    assert cfg.k_set == DEFAULT_K_SET == (5, 10, 25, 50, 75, 100)
    assert cfg.cascades == DEFAULT_CASCADES == ((4, 25), (2, 50), (10, 10))
    assert cfg.epsilon == 0.05
    assert cfg.calibration_seeds == (1, 2)
    assert cfg.criterion == "strict"


def test_format_parse_round_trip():
    cfg = custom_config()
    assert parse_config(format_config(cfg)) == cfg
    assert parse_config(format_config(RunConfig())) == RunConfig()


def test_format_spells_sentinels():
    text = format_config(RunConfig())
    assert "lr = none" in text
    assert "tau_low = none" in text
    assert "regime_gating = true" in text
    assert "seeds = 42,43,44,45,46" in text
    assert "cascades = 4x25,2x50,10x10" in text


def test_parse_skips_blank_lines_and_comments():
    cfg = parse_config("\n# a comment\nsteps = 500\n\n  # indented comment\n")
    assert cfg.steps == 500
    assert cfg.task == RunConfig().task


def test_parse_layers_onto_base():
    base = custom_config()
    cfg = parse_config("steps = 800", base=base)
    assert cfg.steps == 800
    assert cfg.task == "char-seq"
    assert cfg.k_set == (5, 20)


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ValueError, match="line 2.*learning_rate"):
        parse_config("steps = 100\nlearning_rate = 0.1\n")


def test_parse_rejects_duplicate_key_with_line_number():
    with pytest.raises(ValueError, match="line 3.*duplicate"):
        parse_config("steps = 100\ndelta = 10\nsteps = 200\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("steps 100")
    with pytest.raises(ValueError, match="bad value"):
        parse_config("steps = ten")
    with pytest.raises(ValueError, match="regime_gating"):
        parse_config("regime_gating = yes")


def test_save_load_round_trip(tmp_path):
    cfg = custom_config()
    save_config(cfg, tmp_path / "run.cfg")
    assert load_config(tmp_path / "run.cfg") == cfg


@pytest.mark.parametrize("kwargs", [
    {"task": "imagenet"},
    {"seeds": ()},
    {"seeds": (42, 42)},
    {"steps": 0},
    {"delta": 0},
    {"delta": 2001},
    {"lr": -0.1},
    {"warmup_steps": 5000},
    {"tau_low": 0.5},                      # partner missing
    {"tau_low": 0.9, "tau_high": 0.8},
    {"q_low": 0.9, "q_high": 0.1},
    {"calibration_seeds": ()},
    {"k_set": ()},
    {"k_set": (5, 5)},
    {"k_set": (0,)},
    {"epsilon": 0.0},
    {"epsilon": 1.0},
    {"adaptive_window": 1},
    {"criterion": "hopeful"},
    {"momentum_variant": "nesterov"},
    {"quad_variant": "cubic"},
    {"ff_policy": "rewind"},
    {"live_predictor": "quadratic_exact"},
    {"live_k": 0},
    {"cascades": ((0, 25),)},
    {"live_predictor": "momentum_descent"},  # formulas come from the variants
    {"cascades": ((4, 0),)},
])
def test_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


@pytest.mark.parametrize("line, error", [
    ("beta1 = 1.5", "betas must lie in"),
    ("eps = 0", "eps must be positive"),
    ("weight_decay = -0.1", "weight_decay must be >= 0"),
])
def test_parse_rejects_invalid_optimizer_settings(line, error):
    with pytest.raises(ValueError, match=error):
        parse_config(line)


def test_config_dict_is_json_friendly():
    d = config_dict(custom_config())
    assert d["seeds"] == [1, 2, 3]
    assert d["cascades"] == [[2, 20], [3, 5]]
    assert d["k_set"] == [5, 20]
    assert d["lr"] == 0.005
    import json
    json.dumps(d)


def test_resolve_out_root_precedence(monkeypatch):
    monkeypatch.delenv(OUT_ENV_VAR, raising=False)
    assert str(resolve_out_root(RunConfig(out="explicit"))) == "explicit"
    assert str(resolve_out_root(RunConfig())) == "out"
    monkeypatch.setenv(OUT_ENV_VAR, "/tmp/from-env")
    assert str(resolve_out_root(RunConfig())) == "/tmp/from-env"
    assert str(resolve_out_root(RunConfig(out="explicit"))) == "explicit"


def test_retired_jobs_key_is_rejected_by_name():
    with pytest.raises(ValueError, match="unknown config key 'jobs'"):
        parse_config("task = mlp-reg\njobs = 2\n")


def test_the_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [f.name for f in fields(RunConfig) if f"`{f.name}`" not in readme] == []
