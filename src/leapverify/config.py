"""Experiment configuration: one flat record, validated up front.

Configs live in a plain-text ``key = value`` format so an experiment's
effective settings can be written next to its outputs and fed back in to
reproduce it. Parsing rejects unknown keys outright; a silently ignored typo
in a threshold would otherwise cost a full rerun to notice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from .engine import FF_POLICIES
from .optim import AdamHyper
from .predict import LINEAR, SWEEP_PREDICTORS, resolve_predictor
from .tasks import TASK_NAMES
from .verify import CRITERIA

OUT_ENV_VAR = "LEAPVERIFY_OUT"

DEFAULT_K_SET = (5, 10, 25, 50, 75, 100)
DEFAULT_CASCADES = ((4, 25), (2, 50), (10, 10))


@dataclass(frozen=True)
class RunConfig:
    """Everything a full experiment needs; defaults run the full protocol."""

    task: str = "mlp-reg"
    seeds: tuple[int, ...] = (42, 43, 44, 45, 46)
    steps: int = 2000
    delta: int = 50

    # optimizer; lr None defers to the task's recommended rate
    lr: float | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    eps: float = 1e-8
    warmup_steps: int = 100

    # regime thresholds: explicit taus win, else quantile calibration
    tau_low: float | None = None
    tau_high: float | None = None
    q_low: float = 0.25
    q_high: float = 0.75
    calibration_seeds: tuple[int, ...] = (1, 2)

    # speculation grid and verification knobs
    k_set: tuple[int, ...] = DEFAULT_K_SET
    epsilon: float = 0.05
    adaptive_window: int = 5
    criterion: str = "strict"
    momentum_variant: str = "paper"
    quad_variant: str = "paper"
    ff_policy: str = "carry"
    regime_gating: bool = True
    live_predictor: str = LINEAR
    live_k: int = 50
    cascades: tuple[tuple[int, int], ...] = DEFAULT_CASCADES

    # task construction overrides (None keeps each task's default)
    batch_size: int | None = None
    probe_count: int | None = None
    noise: float | None = None
    dim: int | None = None
    data_seed: int = 7

    out: str | None = None

    def __post_init__(self) -> None:
        if self.task not in TASK_NAMES:
            raise ValueError(f"unknown task {self.task!r}; choose from {TASK_NAMES}")
        if not self.seeds:
            raise ValueError("at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate seeds")
        if self.steps < 1 or self.delta < 1:
            raise ValueError("steps and delta must be >= 1")
        if self.delta > self.steps:
            raise ValueError("delta exceeds steps; no checkpoint would be taken")
        # raises on a bad optimizer setting before any command deletes or trains anything
        AdamHyper(**({} if self.lr is None else {"lr": self.lr}), beta1=self.beta1,
                  beta2=self.beta2, weight_decay=self.weight_decay, eps=self.eps,
                  warmup_steps=self.warmup_steps, total_steps=self.steps)
        if (self.tau_low is None) != (self.tau_high is None):
            raise ValueError("set both tau_low and tau_high or neither")
        if self.tau_low is not None and not (-1.0 <= self.tau_low < self.tau_high <= 1.0):
            raise ValueError("need -1 <= tau_low < tau_high <= 1")
        if not (0.0 <= self.q_low < self.q_high <= 1.0):
            raise ValueError("need 0 <= q_low < q_high <= 1")
        if not self.calibration_seeds:
            raise ValueError("at least one calibration seed required")
        if not self.k_set or any(k < 1 for k in self.k_set):
            raise ValueError("k_set must be non-empty positive integers")
        if len(set(self.k_set)) != len(self.k_set):
            raise ValueError("duplicate K values")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.adaptive_window < 2:
            raise ValueError("adaptive_window must be >= 2")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.ff_policy not in FF_POLICIES:
            raise ValueError(f"unknown ff_policy {self.ff_policy!r}")
        if self.live_predictor not in SWEEP_PREDICTORS:
            raise ValueError(f"live_predictor must be one of {SWEEP_PREDICTORS}")
        # raises on an unknown momentum_variant or quad_variant
        resolve_predictor(self.live_predictor, self.quad_variant, self.momentum_variant)
        if self.live_k < 1:
            raise ValueError("live_k must be >= 1")
        if any(d < 1 or k < 1 for d, k in self.cascades):
            raise ValueError("cascade depth and K must be >= 1")


def _fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{d}x{k}" for d, k in value)
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_cascades(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        d, _, k = part.partition("x")
        out.append((int(d), int(k)))
    return tuple(out)


def _opt(convert):
    return lambda text: None if text == "none" else convert(text)


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def _parser_for(hint):
    if hint is bool:
        return _parse_bool
    if hint == tuple[int, ...]:
        return _parse_int_tuple
    if hint == tuple[tuple[int, int], ...]:
        return _parse_cascades
    optional = [a for a in get_args(hint) if a is not type(None)]
    return _opt(optional[0]) if optional else hint


# one parser per RunConfig field, from its annotated type
PARSERS = {name: _parser_for(hint) for name, hint in get_type_hints(RunConfig).items()}


def format_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_fmt_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse key = value lines onto `base` (default: all defaults).

    Blank lines and #-comments are skipped; keys outside RunConfig raise.
    """
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in PARSERS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in overrides:
            raise ValueError(f"line {lineno}: duplicate config key {key!r}")
        try:
            overrides[key] = PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    base = base if base is not None else RunConfig()
    return replace(base, **overrides)


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    """Parse a config file; a parse error names the file."""
    try:
        return parse_config(Path(path).read_text(), base)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(format_config(cfg))


def config_dict(cfg: RunConfig) -> dict:
    """JSON-friendly view of the effective config (tuples become lists)."""
    out: dict = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[f.name] = value
    return out


def resolve_out_root(cfg: RunConfig) -> Path:
    """Output root: explicit config/flag, else $LEAPVERIFY_OUT, else ./out."""
    if cfg.out:
        return Path(cfg.out)
    env = os.environ.get(OUT_ENV_VAR)
    return Path(env) if env else Path("out")
