"""Three-pass experiment protocol, aggregation, and report emission.

Pass 1 trains each seed with periodic checkpoints and writes loss_log.csv,
the one record of each checkpoint's regime label, last. Pass 2
replays every non-chaotic checkpoint through the full predictor x K grid,
scoring all three acceptance criteria offline (nothing is applied to the
run). Pass 3 scores cascades, lines of leaps from stable checkpoints: it
predicts each cascade's stage 1, reads that sweep cell's loss from pass 2's
sweep.csv, so pass 2 must have run first with every cascade K in k_set, and
engine.run_cascade walks the later stages. The report is aggregated from
the files the passes leave on disk. Statistics follow the
per-seed-first convention: rates are computed within each seed, then
summarized as mean/std/CoV across seeds, with denominators carried
alongside every rate so each percentage is auditable.

Every command that runs many seeds goes through `each_seed`, one seed at a
time, so a failure names its pass and seed. No pass holds a seed's whole
run: training returns a RunResult without checkpoints, and replay_points
streams stored checkpoints through the history window. `run_experiment`
(`run-all`) is the composition of the per-pass functions `train_seeds`,
`sweep_seeds`, `cascade_seeds` and `make_report` that the single-pass
commands call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Callable, Collection, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import chain, product
from pathlib import Path
from typing import TypeVar

import numpy as np

from .config import RunConfig, config_dict, format_config, resolve_out_root
from .engine import (
    LeapEvent,
    RunResult,
    accepted_depth,
    run_cascade,
    speculate_grid,
    train_run,
)
from .optim import AdamHyper
from .predict import FORMULAS, SWEEP_PREDICTORS, Prediction, predict_grid, resolve_predictor
from .regime import RegimeLabel, Thresholds, calibrate, regime_breakdown
from .tasks import Task, make_task
from .trajectory import (
    Checkpoint,
    checkpoint_spacing,
    checkpoint_steps,
    history_at,
    load_checkpoint,
    recent_loss_std,
)
from .verify import CRITERIA, Decision, decide

T = TypeVar("T")

THRESHOLDS_FILE = "thresholds.txt"
LOSS_LOG = "loss_log.csv"
SWEEP_CSV = "sweep.csv"

SWEEP_CSV_HEADER = (
    "seed,step,regime,predictor,K,L_hat,L_t,"
    "strict,adaptive,proximity,displacement_norm,eligible"
)


class PassError(RuntimeError):
    """A protocol pass failed; message names the pass and seed."""


@dataclass(frozen=True)
class SweepCell:
    """One offline speculation: a checkpoint x predictor x K grid point.

    Ineligible cells (window too short for the predictor) keep their place in
    the grid with NaN prediction fields and no decision.
    """

    seed: int
    checkpoint_step: int
    regime: RegimeLabel
    predictor: str
    k: int
    l_hat: float
    l_t: float
    decision: Decision | None
    displacement_norm: float
    eligible: bool


@dataclass(frozen=True)
class CascadeRow:
    seed: int
    start_step: int
    depth: int
    k: int
    predictor: str
    criterion: str
    accepted_depth: int
    events: tuple[LeapEvent, ...]


@dataclass(frozen=True)
class PerSeedRate:
    seed: int
    accepted: int
    denominator: int

    @property
    def rate(self) -> float:
        return 100.0 * self.accepted / self.denominator


@dataclass(frozen=True)
class RateStat:
    """mean +/- std across seeds of a per-seed percentage, with receipts."""

    mean: float
    std: float
    cov: float | None   # None when mean == 0 (undefined, printed as a dash)
    per_seed: tuple[PerSeedRate, ...]
    single_seed: bool

    @property
    def accepted(self) -> int:
        return sum(p.accepted for p in self.per_seed)

    @property
    def denominator(self) -> int:
        return sum(p.denominator for p in self.per_seed)


@dataclass
class ExperimentReport:
    config: dict
    seeds: tuple[int, ...]
    regime_counts: dict[int, dict[str, int]]
    regime_summary: dict[str, dict[str, float]]
    acceptance: dict[tuple[str, str, int, str], RateStat]
    cov: dict[tuple[str, int, str], RateStat]
    ratios: dict[str, list[dict]]
    cascades: list[dict]
    cascade_note: str | None
    notes: list[str]


# ---------------------------------------------------------------- plumbing

def build_task(cfg: RunConfig) -> Task:
    return make_task(cfg.task, batch_size=cfg.batch_size, probe_count=cfg.probe_count,
                     noise=cfg.noise, dim=cfg.dim, data_seed=cfg.data_seed)


def build_hyper(cfg: RunConfig, task: Task) -> AdamHyper:
    lr = cfg.lr if cfg.lr is not None else task.recommended_lr
    return AdamHyper(lr=lr, beta1=cfg.beta1, beta2=cfg.beta2,
                     weight_decay=cfg.weight_decay, eps=cfg.eps,
                     warmup_steps=cfg.warmup_steps, total_steps=cfg.steps)


def run_dir_for(out_root: str | Path, task_name: str, seed: int) -> Path:
    return Path(out_root) / "runs" / task_name / str(seed)


def sweep_formulas(cfg: RunConfig) -> tuple[str, ...]:
    """The formula each predictor family evaluates under cfg's variants."""
    return tuple(resolve_predictor(p, cfg.quad_variant, cfg.momentum_variant)
                 for p in SWEEP_PREDICTORS)


def check_cascade_ks(cfg: RunConfig) -> None:
    """Refuse a cascade whose K is not in k_set: its stage 1 is the sweep cell at that K."""
    for d, k in cfg.cascades:
        if k not in cfg.k_set:
            raise ValueError(f"cascade {d}x{k}: K={k} is not in k_set "
                             f"{','.join(map(str, cfg.k_set))}")


RUN_OUTPUTS = ("ckpt_*.lpv", "events.jsonl", LOSS_LOG, SWEEP_CSV, "cascades.jsonl",
               "config.txt")


def fresh_run_dir(run_dir: str | Path, force: bool = True) -> Path:
    """Clear the outputs of any earlier run from `run_dir`.

    Checkpoints, events, the loss log and a live run's config are replaced
    by the new run, and the sweep and cascade files derived from the old
    checkpoints go with them, so no later pass mixes the two runs. With
    force=False a run dir that holds any of them is refused instead.
    """
    run_dir = Path(run_dir)
    stale = sorted(p for pattern in RUN_OUTPUTS for p in run_dir.glob(pattern))
    if stale and not force:
        raise RuntimeError(f"{stale[0]} already exists; pass --force to overwrite")
    for path in stale:
        path.unlink()
    return run_dir


def write_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ------------------------------------------------------------- the passes

def calibrate_thresholds(cfg: RunConfig) -> Thresholds:
    """Quantile-calibrate regime thresholds from fresh calibration runs."""
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    runs = each_seed("calibrate", cfg.calibration_seeds,
                     lambda seed: train_run(task, seed, total_steps=cfg.steps,
                                            delta=cfg.delta, hyper=hyper))
    traces = [[s for s in result.similarities if s is not None] for _, result in runs]
    return calibrate(traces, cfg.q_low, cfg.q_high)


def write_thresholds(th: Thresholds, out_root: str | Path) -> Path:
    path = Path(out_root) / THRESHOLDS_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, f"tau_low = {th.tau_low!r}\ntau_high = {th.tau_high!r}\n")
    return path


def read_thresholds(path: str | Path) -> Thresholds:
    values = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() in ("tau_low", "tau_high"):
            values[key.strip()] = float(value.strip())
    if set(values) != {"tau_low", "tau_high"}:
        raise ValueError(f"{path}: expected tau_low and tau_high entries")
    return Thresholds(tau_low=values["tau_low"], tau_high=values["tau_high"])


def stored_thresholds(cfg: RunConfig, out_root: str | Path) -> Thresholds | None:
    """Explicit taus win; else the calibration stored in out_root; else None."""
    if cfg.tau_low is not None:
        return Thresholds(tau_low=cfg.tau_low, tau_high=cfg.tau_high)
    stored = Path(out_root) / THRESHOLDS_FILE
    return read_thresholds(stored) if stored.exists() else None


def resolve_thresholds(cfg: RunConfig, out_root: str | Path) -> Thresholds:
    """The stored or explicit thresholds; calibrate and store them when there are none."""
    th = stored_thresholds(cfg, out_root)
    if th is None:
        print("no thresholds configured; calibrating...")
        th = calibrate_thresholds(cfg)
        path = write_thresholds(th, out_root)
        print(f"calibrated tau_low={th.tau_low:.6f} tau_high={th.tau_high:.6f} -> {path}")
    return th


def pass1_train(task: Task, seed: int, cfg: RunConfig, thresholds: Thresholds,
                out_root: str | Path) -> RunResult:
    """Train one seed, persisting checkpoints and the loss log to its run dir."""
    run_dir = fresh_run_dir(run_dir_for(out_root, task.name, seed))
    hyper = build_hyper(cfg, task)
    result = train_run(task, seed, total_steps=cfg.steps, delta=cfg.delta,
                       hyper=hyper, thresholds=thresholds, epsilon=cfg.epsilon,
                       adaptive_window=cfg.adaptive_window,
                       ff_policy=cfg.ff_policy, store_dir=run_dir)
    write_loss_log(result, run_dir)
    return result


def write_loss_log(result: RunResult, run_dir: str | Path) -> None:
    """Write loss_log.csv, the record of each checkpoint's label; last, once the run is over."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "val_loss", "similarity", "regime"])
    for step, val_loss, sim, label in zip(result.steps, result.loss_log, result.similarities,
                                          result.labels):
        writer.writerow([step, repr(val_loss),
                         "" if sim is None else repr(sim), label.value])
    write_atomic(Path(run_dir) / LOSS_LOG, buf.getvalue())


def read_loss_log(run_dir: str | Path) -> dict[int, tuple[float, RegimeLabel]]:
    """Each checkpoint's held-out loss and regime label by step, from the run's loss_log.csv.

    A run dir without loss_log.csv, or whose log lists other steps than its
    checkpoint files, holds an unfinished or mixed run and is refused.
    """
    path = Path(run_dir) / LOSS_LOG
    if not path.exists():
        raise FileNotFoundError(f"{path} missing; pass 1 (train) did not finish this run")
    with open(path, newline="") as fh:
        log = {int(row["step"]): (float(row["val_loss"]), RegimeLabel(row["regime"]))
               for row in csv.DictReader(fh)}
    mismatch = set(log).symmetric_difference(checkpoint_steps(run_dir))
    if mismatch:
        raise ValueError(f"{path} and the checkpoint files disagree at step {min(mismatch)}")
    return log


ReplayPoint = tuple[Checkpoint, RegimeLabel, Sequence[Checkpoint], int, float | None]


def replay_points(run_dir: str | Path, keep: Collection[RegimeLabel],
                  adaptive_window: int) -> Iterator[ReplayPoint]:
    """(checkpoint, label, history window, spacing, loss sigma) per checkpoint labelled in `keep`.

    Labels and losses come from loss_log.csv, read when this is called, so an
    unfinished or unevenly spaced run is refused before any point. The points
    then stream in step order: each checkpoint of some window is loaded once
    and dropped when the window moves past it, so at each point no more than
    WINDOW_CAPACITY are held.
    """
    log = read_loss_log(run_dir)
    steps = sorted(log)
    delta = checkpoint_spacing(steps)
    losses = [log[step][0] for step in steps]

    def points() -> Iterator[ReplayPoint]:
        window: list[Checkpoint] = []
        for i, step in enumerate(steps):
            if log[step][1] not in keep:
                continue
            needed = history_at(steps, i)
            held = {c.step: c for c in window if c.step in needed}
            window = [held.get(s) or load_checkpoint(Path(run_dir) / f"ckpt_{s}.lpv")
                      for s in needed]
            yield (window[-1], log[step][1], window, delta,
                   recent_loss_std(losses[: i + 1], adaptive_window))

    return points()


def pass2_ksweep(run_dir: str | Path, task: Task, hyper: AdamHyper, *,
                 k_set: tuple[int, ...], epsilon: float, adaptive_window: int = 5,
                 formulas: tuple[str, ...] = SWEEP_PREDICTORS) -> list[SweepCell]:
    """Score the full predictor x K grid at every non-chaotic checkpoint.

    `formulas` names the formula evaluated for each predictor family (see
    sweep_formulas); cells carry the family label. All three criteria are
    recorded per cell; checkpoints whose history is too short for a
    predictor yield ineligible placeholder cells so the grid stays
    rectangular.

    Each checkpoint's whole grid is scored in one held-out pass
    (engine.speculate_grid): every formula is affine in its coefficients, so
    one first-layer product per distinct direction serves every formula and
    K. Predictions, displacements and finiteness are bit-identical to a
    per-cell speculate(); L_hat agrees with its exact forward to rounding (at
    most 1.3e-15 relative measured, see speculate_grid), not bit for bit.
    Live speculation keeps the exact forward, and cascade stage 1 reads this
    L_hat.
    """
    cells: list[SweepCell] = []
    for ckpt, regime, window, delta, sigma in replay_points(
            run_dir, set(RegimeLabel) - {RegimeLabel.CHAOTIC}, adaptive_window):
        usable = [f for f in formulas if len(window) >= FORMULAS[f].history]
        scored = dict(zip(usable, speculate_grid(window, delta, usable, k_set, task, hyper)))
        for formula in formulas:
            preds, l_hats = scored.get(formula, ([None] * len(k_set),
                                                 [float("nan")] * len(k_set)))
            for k, pred, l_hat in zip(k_set, preds, l_hats):
                eligible = pred is not None
                cells.append(SweepCell(
                    seed=ckpt.seed, checkpoint_step=ckpt.step,
                    regime=regime, predictor=FORMULAS[formula].family, k=k,
                    l_hat=l_hat, l_t=ckpt.val_loss,
                    decision=decide(l_hat, ckpt.val_loss, sigma, epsilon) if eligible else None,
                    displacement_norm=pred.displacement_norm if eligible else float("nan"),
                    eligible=eligible))
    return cells


def pass3_cascades(run_dir: str | Path, task: Task, hyper: AdamHyper, *,
                   configs: tuple[tuple[int, int], ...], criterion: str,
                   epsilon: float, adaptive_window: int = 5,
                   formulas: tuple[str, ...] = SWEEP_PREDICTORS) -> list[CascadeRow]:
    """Evaluate cascaded predictions from every stable checkpoint.

    Returns one row per (stable checkpoint, config, predictor) whose history
    admits the predictor; an empty list simply means the run had no usable
    stable checkpoints. A cascade's stage 1 is the sweep cell of its
    checkpoint, family and K: pass 3 predicts a checkpoint's cascade Ks in
    one predict_grid call, takes each L_hat from sweep.csv instead of scoring
    it again, and run_cascade walks the later stages. A missing sweep.csv, or
    a needed cell that is missing or holds another prediction (another
    checkpoint or formula variant), is refused before any stage is scored.
    So the cascades that score a held-out forward, those of depth > 1 whose
    sweep cell accepts stage 1 under `criterion`, wait for every cell to be
    matched; they alone keep their start and prediction until then. A start
    is the checkpoint without its Adam moments, which neither run_cascade
    nor the row reads.
    """
    points = replay_points(run_dir, {RegimeLabel.STABLE}, adaptive_window)
    sweep_file = Path(run_dir) / SWEEP_CSV
    if not sweep_file.exists():
        raise FileNotFoundError(f"{sweep_file} missing; run the sweep pass first")
    swept = {(c.checkpoint_step, c.predictor, c.k): c
             for c in read_sweep_csv(sweep_file, regime=RegimeLabel.STABLE)}
    ks = tuple(dict.fromkeys(k for _, k in configs))

    def cascade(start: Checkpoint, pred: Prediction, d: int, l_hat: float,
                sigma: float | None) -> CascadeRow:
        events = run_cascade(start, pred, d, criterion, task, l_hat=l_hat,
                             sigma_l=sigma, epsilon=epsilon)
        return CascadeRow(
            seed=start.seed, start_step=start.step, depth=d, k=pred.k,
            predictor=FORMULAS[pred.predictor].family, criterion=criterion,
            accepted_depth=accepted_depth(events, criterion),
            events=tuple(events))

    rows: list[CascadeRow | tuple] = []  # a row, or the arguments of a waiting cascade
    for ckpt, _, window, delta, sigma in points:
        usable = [f for f in formulas if len(window) >= FORMULAS[f].history]
        grids = predict_grid(usable, [c.theta for c in window], delta, ks,
                             ckpt.m, ckpt.v, ckpt.step, hyper)
        preds = {(p.predictor, p.k): p for _, _, grid in grids for p in grid}
        start = replace(ckpt, m=None, v=None)
        for (d, k), formula in product(configs, usable):
            family = FORMULAS[formula].family
            cell = swept.get((ckpt.step, family, k))
            where = f"step {ckpt.step}, predictor {family}, K={k}"
            if cell is None:
                raise ValueError(f"{sweep_file} has no cell for {where}; run the sweep pass again")
            pred = preds[formula, k]
            if pred.displacement_norm != cell.displacement_norm:
                raise ValueError(f"{sweep_file} holds another prediction at {where}; "
                                 f"run the sweep pass again")
            args = (start, pred, d, cell.l_hat, sigma)
            waits = d > 1 and cell.decision.verdict(criterion) is True
            rows.append(args if waits else cascade(*args))
    return [cascade(*row) if isinstance(row, tuple) else row for row in rows]


# --------------------------------------------------------- CSV and JSONL

def _csv_bool(value: bool | None) -> str:
    return "" if value is None else ("1" if value else "0")


def write_sweep_csv(cells: list[SweepCell], path: str | Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    for c in cells:
        d = c.decision
        writer.writerow([
            c.seed, c.checkpoint_step, c.regime.value, c.predictor, c.k,
            repr(c.l_hat) if c.eligible else "",
            repr(c.l_t),
            _csv_bool(d.strict if d else None),
            _csv_bool(d.adaptive if d else None),
            _csv_bool(d.proximity if d else None),
            repr(c.displacement_norm) if c.eligible else "",
            "1" if c.eligible else "0",
        ])
    write_atomic(path, buf.getvalue())


def read_sweep_csv(path: str | Path, epsilon: float = 0.05,
                   regime: RegimeLabel | None = None) -> list[SweepCell]:
    """Rebuild sweep cells from CSV (criterion verdicts are authoritative).

    With `regime`, only the eligible cells of checkpoints labelled `regime`
    are built, and the other rows are skipped.
    """
    cells: list[SweepCell] = []
    regimes = {label.value: label for label in RegimeLabel}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SWEEP_CSV_HEADER.split(","):
            raise ValueError(f"{path}: unexpected sweep CSV header {header}")
        # the columns of SWEEP_CSV_HEADER, in order
        for (seed, step, label, predictor, k, l_hat, l_t,
             strict, adaptive, proximity, disp, eligible) in reader:
            if regime is not None and (label != regime.value or eligible != "1"):
                continue
            l_t = float(l_t)
            if eligible == "1":
                l_hat, disp = float(l_hat), float(disp)
                decision = Decision(strict == "1", None if adaptive == "" else adaptive == "1",
                                    proximity == "1", l_hat, l_t, None, epsilon)
            else:
                l_hat, decision, disp = math.nan, None, math.nan
            cells.append(SweepCell(int(seed), int(step), regimes[label], predictor, int(k),
                                   l_hat, l_t, decision, disp, eligible == "1"))
    return cells


def _cascade_row_json(row: CascadeRow) -> dict:
    return {
        "seed": row.seed,
        "start_step": row.start_step,
        "depth": row.depth,
        "k": row.k,
        "predictor": row.predictor,
        "criterion": row.criterion,
        "accepted_depth": row.accepted_depth,
        "events": [ev.to_json() for ev in row.events],
    }


def write_cascade_rows(rows: list[CascadeRow], path: str | Path) -> None:
    text = "".join(json.dumps(_cascade_row_json(r)) + "\n" for r in rows)
    write_atomic(path, text)


def read_cascade_rows(path: str | Path) -> list[CascadeRow]:
    """Reload cascade rows; per-stage events are not reconstructed."""
    rows: list[CascadeRow] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        rows.append(CascadeRow(
            seed=obj["seed"], start_step=obj["start_step"], depth=obj["depth"],
            k=obj["k"], predictor=obj["predictor"], criterion=obj["criterion"],
            accepted_depth=obj["accepted_depth"], events=()))
    return rows


# ------------------------------------------------------------ aggregation

def _rate_stat(per_seed: dict[int, list[int]]) -> RateStat | None:
    entries = tuple(PerSeedRate(seed, acc, den)
                    for seed, (acc, den) in sorted(per_seed.items()) if den > 0)
    if not entries:
        return None
    rates = [e.rate for e in entries]
    mean = float(np.mean(rates))
    std = 0.0 if len(rates) < 2 else float(np.std(rates, ddof=1))
    cov = None if mean == 0.0 else 100.0 * std / mean
    return RateStat(mean=mean, std=std, cov=cov, per_seed=entries,
                    single_seed=len(entries) == 1)


def ratio_table(cells: list[SweepCell], predictor: str) -> list[dict]:
    """Per K: mean predicted loss vs mean actual loss over evaluated cells.

    Cells with a non-finite prediction are excluded from both means and
    counted, so a predictor that overflows outright still reports honestly.
    """
    by_k: dict[int, list[SweepCell]] = {}
    for c in cells:
        if c.predictor == predictor and c.eligible:
            by_k.setdefault(c.k, []).append(c)
    table = []
    for k in sorted(by_k):
        # canonical order: float means must not depend on input cell order
        group = sorted(by_k[k], key=lambda c: (c.seed, c.checkpoint_step))
        finite = [c for c in group if math.isfinite(c.l_hat)]
        excluded = len(group) - len(finite)
        if not finite:
            table.append({"k": k, "n": 0, "excluded_nonfinite": excluded,
                          "mean_predicted": None, "mean_actual": None, "ratio": None})
            continue
        mean_pred = float(np.mean([c.l_hat for c in finite]))
        mean_actual = float(np.mean([c.l_t for c in finite]))
        table.append({
            "k": k,
            "n": len(finite),
            "excluded_nonfinite": excluded,
            "mean_predicted": mean_pred,
            "mean_actual": mean_actual,
            "ratio": mean_pred / mean_actual if mean_actual > 0 else None,
        })
    return table


def aggregate(cells: list[SweepCell], cascade_rows: list[CascadeRow],
              labels_by_seed: dict[int, list[RegimeLabel]],
              config: dict) -> ExperimentReport:
    """Reduce all seeds' cells to the experiment report.

    Pure function of its inputs up to reordering: every grouping is keyed and
    sorted, so seed or cell order cannot change a single output value.
    """
    seeds = tuple(sorted(labels_by_seed))
    notes: list[str] = []
    if len(seeds) == 1:
        notes.append("single seed: cross-seed std is 0 by convention")

    regime_counts = {
        seed: {label.value: count
               for label, count in regime_breakdown(labels_by_seed[seed]).items()}
        for seed in seeds
    }
    regime_summary = {}
    for label in RegimeLabel:
        counts = [regime_counts[s][label.value] for s in seeds]
        std = 0.0 if len(counts) < 2 else float(np.std(counts, ddof=1))
        regime_summary[label.value] = {"mean": float(np.mean(counts)), "std": std}

    acc_groups: dict[tuple[str, str, int, str], dict[int, list[int]]] = {}
    cov_groups: dict[tuple[str, int, str], dict[int, list[int]]] = {}
    for c in cells:
        if not c.eligible:
            continue
        for criterion in CRITERIA:
            verdict = c.decision.verdict(criterion)
            if verdict is None:
                continue
            for groups, key in ((acc_groups, (c.regime.value, c.predictor, c.k, criterion)),
                                (cov_groups, (c.predictor, c.k, criterion))):
                tally = groups.setdefault(key, {}).setdefault(c.seed, [0, 0])
                tally[0] += int(verdict)
                tally[1] += 1

    def stats(groups: dict) -> dict:
        return {key: stat for key in sorted(groups)
                if (stat := _rate_stat(groups[key])) is not None}
    acceptance, cov = stats(acc_groups), stats(cov_groups)

    ratios = {p: ratio_table(cells, p) for p in SWEEP_PREDICTORS}

    cascades = []
    by_cfg: dict[tuple[int, int, str], list[CascadeRow]] = {}
    for row in cascade_rows:
        by_cfg.setdefault((row.depth, row.k, row.predictor), []).append(row)
    for (depth, k, predictor) in sorted(by_cfg):
        rows = by_cfg[(depth, k, predictor)]
        depth_by_seed: dict[int, list[int]] = {}
        for r in rows:
            depth_by_seed.setdefault(r.seed, []).append(r.accepted_depth)
        per_seed_means = [float(np.mean(depth_by_seed[s])) for s in sorted(depth_by_seed)]
        std = 0.0 if len(per_seed_means) < 2 else float(np.std(per_seed_means, ddof=1))
        cascades.append({
            "depth": depth,
            "k": k,
            "predictor": predictor,
            "starts": len(rows),
            "seeds": len(depth_by_seed),
            "mean_accepted_depth": float(np.mean(per_seed_means)),
            "std_accepted_depth": std,
            "max_accepted_depth": max(r.accepted_depth for r in rows),
            "full_depth_count": sum(r.accepted_depth == depth for r in rows),
        })
    cascade_note = None
    if not cascade_rows:
        cascade_note = "no stable checkpoints with sufficient history: cascade table has zero denominators"

    return ExperimentReport(
        config=config,
        seeds=seeds,
        regime_counts=regime_counts,
        regime_summary=regime_summary,
        acceptance=acceptance,
        cov=cov,
        ratios=ratios,
        cascades=cascades,
        cascade_note=cascade_note,
        notes=notes,
    )


# ---------------------------------------------------------------- reports

def _stat_json(stat: RateStat) -> dict:
    return {
        "mean": stat.mean,
        "std": stat.std,
        "cov": stat.cov,
        "single_seed": stat.single_seed,
        "accepted": stat.accepted,
        "denominator": stat.denominator,
        "per_seed": [
            {"seed": p.seed, "accepted": p.accepted,
             "denominator": p.denominator, "rate": p.rate}
            for p in stat.per_seed
        ],
    }


def report_to_json(report: ExperimentReport) -> dict:
    return {
        "config": report.config,
        "seeds": list(report.seeds),
        "regime_counts": {str(s): report.regime_counts[s] for s in report.seeds},
        "regime_summary": report.regime_summary,
        "acceptance": {
            f"{regime}|{predictor}|{k}|{criterion}": _stat_json(stat)
            for (regime, predictor, k, criterion), stat in report.acceptance.items()
        },
        "cov": {
            f"{predictor}|{k}|{criterion}": _stat_json(stat)
            for (predictor, k, criterion), stat in report.cov.items()
        },
        "ratios": report.ratios,
        "cascades": report.cascades,
        "cascade_note": report.cascade_note,
        "notes": report.notes,
    }


def _fmt_float(x: float | None, nd: int = 2) -> str:
    if x is None:
        return "-"
    if not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return f"{x:.{nd}f}"


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    def fmt(row: list[str]) -> str:
        return "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), rule] + [fmt(r) for r in rows])


def _k_table(title: str, predictors: list[str], k_values: list[int],
             stat_at: Callable[[str, int], RateStat | None],
             fmt: Callable[[RateStat | None], str]) -> list[str]:
    """A predictor x K table with its title; predictors without any stat are left out."""
    rows = []
    for predictor in predictors:
        stats = [stat_at(predictor, k) for k in k_values]
        if any(stat is not None for stat in stats):
            rows.append([predictor] + [fmt(stat) for stat in stats])
    if not rows:
        return []
    return [title, _render_table(["predictor"] + [f"K={k}" for k in k_values], rows), ""]


def format_report_text(report: ExperimentReport) -> str:
    out: list[str] = []
    out.append(f"Seeds: {', '.join(str(s) for s in report.seeds)}")
    for note in report.notes:
        out.append(f"Note: {note}")
    out.append("")

    out.append("Regime breakdown (checkpoints per run, mean +/- std across seeds)")
    rows = []
    for label in RegimeLabel:
        s = report.regime_summary[label.value]
        per_seed = " ".join(str(report.regime_counts[sd][label.value]) for sd in report.seeds)
        rows.append([label.value, f"{_fmt_float(s['mean'], 1)} +/- {_fmt_float(s['std'], 1)}", per_seed])
    out.append(_render_table(["regime", "count", "per-seed"], rows))
    out.append("")

    k_values = sorted({k for (_, _, k, _) in report.acceptance})
    regimes = sorted({r for (r, _, _, _) in report.acceptance})
    predictors = sorted({p for (_, p, _, _) in report.acceptance})
    def rate(stat: RateStat | None) -> str:
        if stat is None:
            return "-"
        return f"{_fmt_float(stat.mean, 1)}+/-{_fmt_float(stat.std, 1)} (n={stat.denominator})"
    for criterion in CRITERIA:
        for regime in regimes:
            out += _k_table(f"Acceptance rate % ({criterion} criterion, {regime} regime)",
                            predictors, k_values,
                            lambda p, k: report.acceptance.get((regime, p, k, criterion)), rate)

    mom = report.ratios.get("momentum", [])
    if mom:
        out.append("Momentum predictor: predicted vs actual held-out loss")
        rows = []
        for row in mom:
            rows.append([
                str(row["k"]),
                _fmt_float(row["mean_predicted"], 4),
                _fmt_float(row["mean_actual"], 4),
                ("-" if row["ratio"] is None else f"{row['ratio']:.1f}x"),
                str(row["n"]),
                str(row["excluded_nonfinite"]),
            ])
        out.append(_render_table(["K", "predicted", "actual", "ratio", "n", "nonfinite"], rows))
        out.append("")

    for criterion in CRITERIA:
        out += _k_table(f"Cross-seed CoV % of acceptance rate ({criterion} criterion)",
                        predictors, k_values, lambda p, k: report.cov.get((p, k, criterion)),
                        lambda stat: "-" if stat is None or stat.cov is None
                        else _fmt_float(stat.cov, 1))

    out.append("Cascades (accepted depth out of configured depth)")
    if report.cascade_note:
        out.append(f"Note: {report.cascade_note}")
    if report.cascades:
        rows = []
        for c in report.cascades:
            rows.append([
                f"({c['depth']},{c['k']})", c["predictor"], str(c["starts"]),
                f"{_fmt_float(c['mean_accepted_depth'])} +/- {_fmt_float(c['std_accepted_depth'])}",
                str(c["max_accepted_depth"]), str(c["full_depth_count"]),
            ])
        out.append(_render_table(["(D,K)", "predictor", "starts", "mean depth", "max", "full"], rows))
    out.append("")
    return "\n".join(out)


def write_report(report: ExperimentReport, out_root: str | Path) -> None:
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    write_atomic(out_root / "report.json", json.dumps(report_to_json(report), indent=2) + "\n")
    write_atomic(out_root / "report.txt", format_report_text(report))


# ------------------------------------------------------------ experiment

def each_seed(stage: str, seeds: tuple[int, ...],
              fn: Callable[[int], T]) -> Iterator[tuple[int, T]]:
    """Yield (seed, fn(seed)) seed by seed; a failure raises a PassError naming both."""
    for seed in seeds:
        try:
            result = fn(seed)
        except Exception as exc:
            raise PassError(f"{stage} failed for seed {seed}: {exc}") from exc
        yield seed, result


def effective_config(cfg: RunConfig, task: Task, thresholds: Thresholds | None,
                     out_root: str | Path) -> RunConfig:
    """cfg with the learning rate, thresholds and output root a run resolved."""
    if thresholds is not None:
        cfg = replace(cfg, tau_low=thresholds.tau_low, tau_high=thresholds.tau_high)
    return replace(cfg, lr=build_hyper(cfg, task).lr, out=str(out_root))


def train_seeds(cfg: RunConfig, task: Task, thresholds: Thresholds,
                out_root: str | Path) -> Iterator[tuple[int, RunResult]]:
    """Pass 1 for every seed of cfg."""
    return each_seed("pass1 (train)", cfg.seeds,
                     lambda seed: pass1_train(task, seed, cfg, thresholds, out_root))


def sweep_seeds(cfg: RunConfig, task: Task,
                out_root: str | Path) -> Iterator[tuple[int, list[SweepCell]]]:
    """Pass 2 for every seed of cfg, each seed's cells written to its sweep.csv."""
    hyper, formulas = build_hyper(cfg, task), sweep_formulas(cfg)

    def sweep(seed: int) -> list[SweepCell]:
        run_dir = run_dir_for(out_root, task.name, seed)
        cells = pass2_ksweep(run_dir, task, hyper, k_set=cfg.k_set, epsilon=cfg.epsilon,
                             adaptive_window=cfg.adaptive_window, formulas=formulas)
        write_sweep_csv(cells, run_dir / SWEEP_CSV)
        return cells

    return each_seed("pass2 (sweep)", cfg.seeds, sweep)


def cascade_seeds(cfg: RunConfig, task: Task,
                  out_root: str | Path) -> Iterator[tuple[int, list[CascadeRow]]]:
    """Pass 3 for every seed of cfg, each seed's rows written to its cascades.jsonl."""
    check_cascade_ks(cfg)  # before any seed
    hyper, formulas = build_hyper(cfg, task), sweep_formulas(cfg)

    def cascade(seed: int) -> list[CascadeRow]:
        run_dir = run_dir_for(out_root, task.name, seed)
        rows = pass3_cascades(run_dir, task, hyper, configs=cfg.cascades,
                              criterion=cfg.criterion, epsilon=cfg.epsilon,
                              adaptive_window=cfg.adaptive_window, formulas=formulas)
        write_cascade_rows(rows, run_dir / "cascades.jsonl")
        return rows

    return each_seed("pass3 (cascade)", cfg.seeds, cascade)


def make_report(cfg: RunConfig) -> ExperimentReport:
    """Aggregate the stored outputs of cfg's seeds; write report.json and report.txt.

    `run-all` and `report` both build their report here, from the files on
    disk, so re-running `report` reproduces `run-all`'s report exactly. It reads
    labels from loss_log.csv, no checkpoint, and records the resolved lr and
    the stored thresholds in the config, but never calibrates.
    """
    out_root = resolve_out_root(cfg)
    task_dir = out_root / "runs" / cfg.task
    if not task_dir.is_dir():
        raise FileNotFoundError(f"no run directories under {task_dir}")
    cfg = effective_config(cfg, build_task(cfg), stored_thresholds(cfg, out_root), out_root)

    cells, cascade_rows, labels_by_seed = [], [], {}

    def load(seed: int) -> None:
        run_dir = task_dir / str(seed)
        labels_by_seed[seed] = [label for _, label in read_loss_log(run_dir).values()]
        sweep_file, cascade_file = run_dir / SWEEP_CSV, run_dir / "cascades.jsonl"
        for path, stage in ((sweep_file, "sweep"), (cascade_file, "cascade")):
            if not path.exists():
                raise FileNotFoundError(f"{path} missing; run the {stage} pass first")
        cells.extend(read_sweep_csv(sweep_file, cfg.epsilon))
        cascade_rows.extend(read_cascade_rows(cascade_file))

    for _ in each_seed("report", cfg.seeds, load):
        pass
    report = aggregate(cells, cascade_rows, labels_by_seed, config_dict(cfg))
    write_report(report, out_root)
    return report


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    """Pass 1 for every seed, then pass 2, then pass 3, then the report.

    The effective config is written to config.txt before the report is
    aggregated from disk, as `leapverify report` aggregates it.
    """
    check_cascade_ks(cfg)  # before thresholds are resolved or calibrated
    task = build_task(cfg)
    out_root = resolve_out_root(cfg)
    thresholds = resolve_thresholds(cfg, out_root)
    for _ in chain(train_seeds(cfg, task, thresholds, out_root),
                   sweep_seeds(cfg, task, out_root), cascade_seeds(cfg, task, out_root)):
        pass
    effective = effective_config(cfg, task, thresholds, out_root)
    write_atomic(out_root / "config.txt", format_config(effective))
    return make_report(effective)
