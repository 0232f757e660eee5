"""Command-line entry point.

Subcommands mirror the experiment protocol: `calibrate` fixes regime
thresholds, `train`/`sweep`/`cascade` run the three passes individually,
`live` trains with leaps actually applied, `report` re-aggregates existing
outputs, and `run-all` does the whole pipeline. Options layer as
defaults < config file (--config) < flags. `run-all` writes the effective
config to config.txt in the output root, and `report` reads it back from
there; the single-pass commands and `live` write no config.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import OUT_ENV_VAR, RunConfig, config_dict, load_config, resolve_out_root
from .engine import FF_POLICIES, SpeculationSettings, train_run
from .harness import (
    aggregate,
    build_hyper,
    build_task,
    calibrate_thresholds,
    fresh_run_dir,
    pass1_train,
    pass2_ksweep,
    pass3_cascades,
    read_cascade_rows,
    read_sweep_csv,
    run_dir_for,
    run_experiment,
    sweep_formulas,
    write_atomic,
    write_cascade_rows,
    write_loss_log,
    write_report,
    write_sweep_csv,
)
from .predict import MOMENTUM_VARIANTS, QUAD_VARIANTS, SWEEP_PREDICTORS, resolve_predictor
from .regime import Thresholds
from .tasks import TASK_NAMES
from .trajectory import load_run_checkpoints
from .verify import CRITERIA

THRESHOLDS_FILE = "thresholds.txt"

_OVERRIDE_FIELDS = (
    "task", "steps", "delta", "lr", "epsilon", "criterion", "momentum_variant",
    "quad_variant", "ff_policy", "tau_low", "tau_high", "out",
    "live_predictor", "live_k",
)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="config file (key = value lines)")
    p.add_argument("--task", choices=TASK_NAMES)
    p.add_argument("--seeds", type=str, metavar="N,N,...", help="run seeds")
    p.add_argument("--steps", type=int)
    p.add_argument("--delta", type=int, help="steps between checkpoints")
    p.add_argument("--k-set", dest="k_set", type=str, metavar="K,K,...")
    p.add_argument("--epsilon", type=float, help="proximity tolerance fraction")
    p.add_argument("--criterion", choices=CRITERIA)
    p.add_argument("--momentum-variant", dest="momentum_variant", choices=MOMENTUM_VARIANTS)
    p.add_argument("--quad-variant", dest="quad_variant", choices=QUAD_VARIANTS)
    p.add_argument("--ff-policy", dest="ff_policy", choices=FF_POLICIES)
    p.add_argument("--tau-low", dest="tau_low", type=float)
    p.add_argument("--tau-high", dest="tau_high", type=float)
    p.add_argument("--out", type=str, help=f"output root (default ${OUT_ENV_VAR} or ./out)")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.add_argument("--lr", type=float, help="override the task's base learning rate")
    p.add_argument("--live-predictor", dest="live_predictor", choices=SWEEP_PREDICTORS)
    p.add_argument("--live-k", dest="live_k", type=int)


def build_config(args: argparse.Namespace, base_file: Path | None = None) -> RunConfig:
    config_file = args.config if args.config is not None else base_file
    cfg = load_config(config_file) if config_file else RunConfig()
    overrides: dict = {}
    for name in _OVERRIDE_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "seeds", None):
        overrides["seeds"] = _parse_int_list(args.seeds)
    if getattr(args, "k_set", None):
        overrides["k_set"] = _parse_int_list(args.k_set)
    return replace(cfg, **overrides)


def _write_thresholds(th: Thresholds, path: Path) -> None:
    write_atomic(path, f"tau_low = {th.tau_low!r}\ntau_high = {th.tau_high!r}\n")


def _read_thresholds(path: Path) -> Thresholds:
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() in ("tau_low", "tau_high"):
            values[key.strip()] = float(value.strip())
    if set(values) != {"tau_low", "tau_high"}:
        raise ValueError(f"{path}: expected tau_low and tau_high entries")
    return Thresholds(tau_low=values["tau_low"], tau_high=values["tau_high"])


def _resolve_thresholds(cfg: RunConfig, out_root: Path) -> Thresholds:
    """Explicit taus win; else a stored calibration; else calibrate now."""
    if cfg.tau_low is not None:
        return Thresholds(tau_low=cfg.tau_low, tau_high=cfg.tau_high)
    stored = out_root / THRESHOLDS_FILE
    if stored.exists():
        return _read_thresholds(stored)
    print("no thresholds configured; calibrating...")
    th = calibrate_thresholds(cfg)
    out_root.mkdir(parents=True, exist_ok=True)
    _write_thresholds(th, stored)
    print(f"calibrated tau_low={th.tau_low:.6f} tau_high={th.tau_high:.6f} -> {stored}")
    return th


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    out_root = resolve_out_root(cfg)
    out_root.mkdir(parents=True, exist_ok=True)
    if cfg.tau_low is not None:
        th = Thresholds(tau_low=cfg.tau_low, tau_high=cfg.tau_high)
        print("using explicit thresholds (calibration skipped)")
    else:
        th = calibrate_thresholds(cfg)
    _write_thresholds(th, out_root / THRESHOLDS_FILE)
    print(f"tau_low={th.tau_low:.6f} tau_high={th.tau_high:.6f} "
          f"-> {out_root / THRESHOLDS_FILE}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    task = build_task(cfg)
    out_root = resolve_out_root(cfg)
    for seed in cfg.seeds:
        fresh_run_dir(run_dir_for(out_root, task.name, seed), args.force)
    thresholds = _resolve_thresholds(cfg, out_root)
    for seed in cfg.seeds:
        result = pass1_train(task, seed, cfg, thresholds, out_root)
        print(f"seed {seed}: {len(result.checkpoints)} checkpoints, "
              f"final val loss {result.loss_log[-1]:.6f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    out_root = resolve_out_root(cfg)
    for seed in cfg.seeds:
        run_dir = run_dir_for(out_root, task.name, seed)
        cells = pass2_ksweep(run_dir, task, hyper, k_set=cfg.k_set,
                             epsilon=cfg.epsilon, adaptive_window=cfg.adaptive_window,
                             formulas=sweep_formulas(cfg))
        write_sweep_csv(cells, run_dir / "sweep.csv")
        eligible = sum(c.eligible for c in cells)
        print(f"seed {seed}: {len(cells)} cells ({eligible} eligible) -> {run_dir / 'sweep.csv'}")
    return 0


def cmd_cascade(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    out_root = resolve_out_root(cfg)
    for seed in cfg.seeds:
        run_dir = run_dir_for(out_root, task.name, seed)
        rows = pass3_cascades(run_dir, task, hyper, configs=cfg.cascades,
                              criterion=cfg.criterion, epsilon=cfg.epsilon,
                              adaptive_window=cfg.adaptive_window,
                              formulas=sweep_formulas(cfg))
        write_cascade_rows(rows, run_dir / "cascades.jsonl")
        if rows:
            print(f"seed {seed}: {len(rows)} cascade evaluations -> {run_dir / 'cascades.jsonl'}")
        else:
            print(f"seed {seed}: no stable checkpoints; cascade table empty (0 starts)")
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    out_root = resolve_out_root(cfg)
    live_dirs = {seed: out_root / "live" / task.name / str(seed) for seed in cfg.seeds}
    for live_dir in live_dirs.values():
        fresh_run_dir(live_dir, args.force)
    thresholds = _resolve_thresholds(cfg, out_root)
    speculation = SpeculationSettings(
        predictor=resolve_predictor(cfg.live_predictor, cfg.quad_variant, cfg.momentum_variant),
        k=cfg.live_k, criterion=cfg.criterion, apply=True,
        regime_gating=cfg.regime_gating)
    for seed, live_dir in live_dirs.items():
        result = train_run(task, seed, total_steps=cfg.steps, delta=cfg.delta,
                           hyper=hyper, thresholds=thresholds, epsilon=cfg.epsilon,
                           adaptive_window=cfg.adaptive_window,
                           ff_policy=cfg.ff_policy, speculation=speculation,
                           store_dir=live_dir)
        write_loss_log(result, live_dir)
        applied = sum(ev.applied for ev in result.events)
        print(f"seed {seed}: {len(result.events)} speculations, {applied} leaps, "
              f"{result.skipped_steps} steps skipped, final val loss {result.loss_log[-1]:.6f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    out_value = getattr(args, "out", None) or os.environ.get(OUT_ENV_VAR) or "out"
    stored_config = Path(out_value) / "config.txt"
    cfg = build_config(args, base_file=stored_config if stored_config.exists() else None)
    out_root = resolve_out_root(cfg)
    task_dir = out_root / "runs" / cfg.task
    if not task_dir.is_dir():
        raise FileNotFoundError(f"no run directories under {task_dir}")
    seed_dirs = sorted((p for p in task_dir.iterdir() if p.is_dir() and p.name.isdigit()),
                       key=lambda p: int(p.name))
    if not seed_dirs:
        raise FileNotFoundError(f"no run directories under {task_dir}")

    cells, cascade_rows, labels_by_seed = [], [], {}
    for seed_dir in seed_dirs:
        seed = int(seed_dir.name)
        ckpts = load_run_checkpoints(seed_dir)
        labels_by_seed[seed] = [c.regime for c in ckpts]
        sweep_file = seed_dir / "sweep.csv"
        if not sweep_file.exists():
            raise FileNotFoundError(f"{sweep_file} missing; run the sweep pass first")
        cells.extend(read_sweep_csv(sweep_file, cfg.epsilon))
        cascade_file = seed_dir / "cascades.jsonl"
        if cascade_file.exists():
            cascade_rows.extend(read_cascade_rows(cascade_file))
    report = aggregate(cells, cascade_rows, labels_by_seed, config_dict(cfg))
    write_report(report, out_root)
    print(f"report over seeds {list(report.seeds)} -> {out_root / 'report.json'}")
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    out_root = resolve_out_root(cfg)
    if (out_root / "report.json").exists() and not args.force:
        raise RuntimeError(f"{out_root / 'report.json'} already exists; pass --force to overwrite")
    for seed in cfg.seeds:
        fresh_run_dir(run_dir_for(out_root, cfg.task, seed), args.force)
    thresholds = _resolve_thresholds(cfg, out_root)
    cfg = replace(cfg, tau_low=thresholds.tau_low, tau_high=thresholds.tau_high,
                  out=str(out_root))
    report = run_experiment(cfg)
    print(f"report over seeds {list(report.seeds)} -> {out_root / 'report.json'}")
    if len(report.seeds) == 1:
        print("note: single seed; cross-seed spreads are 0 by convention")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leapverify",
        description="Speculative training: predict weights K steps ahead, "
                    "verify on held-out loss, leap on acceptance.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("calibrate", cmd_calibrate, "calibrate regime thresholds from fresh runs"),
        ("train", cmd_train, "pass 1: train seeds with periodic checkpoints"),
        ("sweep", cmd_sweep, "pass 2: predictor x K grid over stored checkpoints"),
        ("cascade", cmd_cascade, "pass 3: cascaded predictions from stable checkpoints"),
        ("live", cmd_live, "train with accepted leaps actually applied"),
        ("report", cmd_report, "re-aggregate stored outputs into a report"),
        ("run-all", cmd_run_all, "full pipeline: passes 1-3 plus report"),
    )
    for name, func, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
