"""Command-line entry point.

Subcommands mirror the experiment protocol: `calibrate` fixes regime
thresholds, `train`/`sweep`/`cascade` run the three passes individually,
`live` trains with leaps actually applied, `report` re-aggregates existing
outputs, and `run-all` does the whole pipeline through the same per-pass
functions. Options layer as defaults < config file (--config) < flags.
`run-all` writes the effective config to config.txt in the output root,
and `report` reads it back from there; `live` writes it into each seed's
live directory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import OUT_ENV_VAR, PARSERS, RunConfig, format_config, load_config, resolve_out_root
from .engine import SpeculationSettings, train_run
from .harness import (
    CASCADES_JSONL,
    SWEEP_CSV,
    THRESHOLDS_FILE,  # noqa: F401  (the benchmark reads cli.THRESHOLDS_FILE)
    build_hyper,
    build_task,
    calibrate_thresholds,
    cascade_pass,
    check_cascade_ks,
    each_seed,
    effective_config,
    fresh_run_dir,
    make_report,
    resolve_thresholds,
    run_dir_for,
    run_experiment,
    sweep_pass,
    train_pass,
    write_thresholds,
)
from .optim import FF_POLICIES
from .predict import MOMENTUM_VARIANTS, QUAD_VARIANTS, SWEEP_PREDICTORS, resolve_predictor
from .regime import Thresholds
from .tasks import TASK_NAMES
from .trajectory import write_atomic
from .verify import CRITERIA


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="config file (key = value lines)")
    p.add_argument("--task", choices=TASK_NAMES)
    p.add_argument("--seeds", type=PARSERS["seeds"], metavar="N,N,...", help="run seeds")
    p.add_argument("--steps", type=int)
    p.add_argument("--delta", type=int, help="steps between checkpoints")
    p.add_argument("--k-set", dest="k_set", type=PARSERS["k_set"], metavar="K,K,...")
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
    return replace(cfg, **{name: value for name, value in vars(args).items()
                           if name in PARSERS and value is not None})


def resolve_then_clear(cfg: RunConfig, out_root: Path, run_dirs: list[Path],
                       force: bool) -> Thresholds:
    """cfg's thresholds, resolved before --force clears run_dirs of an earlier run.

    Without force a run dir that holds outputs is refused first. Resolving
    may calibrate, so a calibration that fails leaves every file as it was.
    """
    if not force:
        for run_dir in run_dirs:
            fresh_run_dir(run_dir, force=False)
    thresholds = resolve_thresholds(cfg, out_root)
    for run_dir in run_dirs:
        fresh_run_dir(run_dir)
    return thresholds


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    build_task(cfg)  # refuses an override the task does not take, taus given or not
    if cfg.tau_low is not None:
        th = Thresholds(tau_low=cfg.tau_low, tau_high=cfg.tau_high)
        print("using explicit thresholds (calibration skipped)")
    else:
        th = calibrate_thresholds(cfg)
    path = write_thresholds(th, resolve_out_root(cfg))
    print(f"tau_low={th.tau_low:.6f} tau_high={th.tau_high:.6f} -> {path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    task = build_task(cfg)
    out_root = resolve_out_root(cfg)
    run_dirs = [run_dir_for(out_root, task.name, seed) for seed in cfg.seeds]
    thresholds = resolve_then_clear(cfg, out_root, run_dirs, args.force)
    for _, seed, (checkpoints, final_loss) in each_seed(
            [train_pass(cfg, task, thresholds, out_root)], cfg.seeds):
        print(f"seed {seed}: {checkpoints} checkpoints, final val loss {final_loss:.6f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    out_root = resolve_out_root(cfg)
    for _, seed, (cells, eligible) in each_seed([sweep_pass(cfg, build_task(cfg), out_root)],
                                                cfg.seeds):
        path = run_dir_for(out_root, cfg.task, seed) / SWEEP_CSV
        print(f"seed {seed}: {cells} cells ({eligible} eligible) -> {path}")
    return 0


def cmd_cascade(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    out_root = resolve_out_root(cfg)
    for _, seed, rows in each_seed([cascade_pass(cfg, build_task(cfg), out_root)], cfg.seeds):
        path = run_dir_for(out_root, cfg.task, seed) / CASCADES_JSONL
        if rows:
            print(f"seed {seed}: {rows} cascade evaluations -> {path}")
        else:
            print(f"seed {seed}: no stable checkpoints; cascade table empty (0 starts)")
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    out_root = resolve_out_root(cfg)
    live_dirs = {seed: out_root / "live" / task.name / str(seed) for seed in cfg.seeds}
    thresholds = resolve_then_clear(cfg, out_root, list(live_dirs.values()), args.force)
    # stored next to each run, so its events stay tied to the settings that made them
    config_text = format_config(effective_config(cfg, task, thresholds, out_root))
    speculation = SpeculationSettings(
        predictor=resolve_predictor(cfg.live_predictor, cfg.quad_variant, cfg.momentum_variant),
        k=cfg.live_k, criterion=cfg.criterion, apply=True,
        regime_gating=cfg.regime_gating)

    def live(seed: int) -> tuple[int, int, int, float]:
        result = train_run(task, seed, total_steps=cfg.steps, delta=cfg.delta,
                           hyper=hyper, thresholds=thresholds, epsilon=cfg.epsilon,
                           adaptive_window=cfg.adaptive_window,
                           ff_policy=cfg.ff_policy, speculation=speculation,
                           store_dir=live_dirs[seed])
        write_atomic(live_dirs[seed] / "config.txt", config_text)
        applied = sum(ev.applied for ev in result.events)
        return len(result.events), applied, result.skipped_steps, result.loss_log[-1]

    for _, seed, (events, applied, skipped, final_loss) in each_seed([("live", live)],
                                                                     cfg.seeds):
        print(f"seed {seed}: {events} speculations, {applied} leaps, "
              f"{skipped} steps skipped, final val loss {final_loss:.6f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    # the output root is where config.txt is read from, whatever out it stores
    out_root = resolve_out_root(build_config(args))
    stored_config = out_root / "config.txt"
    cfg = build_config(args, base_file=stored_config if stored_config.exists() else None)
    report = make_report(replace(cfg, out=str(out_root)))
    print(f"report over seeds {report['seeds']} -> {out_root / 'report.json'}")
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    check_cascade_ks(cfg)  # before --force deletes anything
    build_task(cfg)  # and a task override it refuses too
    out_root = resolve_out_root(cfg)
    if (out_root / "report.json").exists() and not args.force:
        raise RuntimeError(f"{out_root / 'report.json'} already exists; pass --force to overwrite")
    run_dirs = [run_dir_for(out_root, cfg.task, seed) for seed in cfg.seeds]
    resolve_then_clear(cfg, out_root, run_dirs, args.force)
    for name in ("report.json", "report.txt", "config.txt"):  # they describe the old runs
        (out_root / name).unlink(missing_ok=True)
    report = run_experiment(cfg)  # reads the thresholds resolved here
    print(f"report over seeds {report['seeds']} -> {out_root / 'report.json'}")
    if len(report["seeds"]) == 1:
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
