"""Three-pass experiment protocol, aggregation, and report emission.

Pass 1 trains each seed with periodic checkpoints; the run writes
loss_log.csv, the one record of each checkpoint's regime label, last. Pass 2
replays every non-chaotic checkpoint through the full predictor x K grid,
scoring all three acceptance criteria offline (nothing is applied to the
run). Pass 3 scores cascades, lines of leaps from stable checkpoints: it
predicts each cascade's stage 1, reads that sweep cell's loss from pass 2's
sweep.csv, so pass 2 must have run first with every cascade K in k_set, and
engine.run_cascade walks the later stages. The report is aggregated from
the files the passes leave on disk into one document, the dict `aggregate`
returns: report.json holds it as is, and report.txt is rendered from it
alone, so a new table is one key in `aggregate` and one block in
`format_report_text`. Statistics follow the per-seed-first convention:
rates are computed within each seed, then summarized as mean/std/CoV across
seeds, with denominators carried alongside every rate so each percentage is
auditable.

Every command that runs many seeds goes through `each_seed`, which takes
one or more passes and runs their jobs, one pass of one seed each, at the
same time in forked workers, one per CPU; a seed's pass starts once its
previous pass is done, not once every seed's is. It hands the results back
in (pass, seed) order and names the pass and seed of a failure. No pass
holds a seed's whole run: training returns a RunResult without checkpoints,
and replay_points streams stored checkpoints through the history window.
`run_experiment` (`run-all`) runs the passes `train_pass`, `sweep_pass` and
`cascade_pass`, which the single-pass commands run one at a time, in one
call of each_seed, then `make_report`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable, Collection, Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .config import RunConfig, config_dict, format_config, resolve_out_root
from .engine import (
    LeapEvent,
    RunResult,
    accepted_depth,
    run_cascade,
    speculate_grid,
    train_run,
    usable_cpus,
)
from .optim import AdamHyper
from .predict import FORMULAS, SWEEP_PREDICTORS, Prediction, predict_grid, resolve_predictor
from .regime import RegimeLabel, Thresholds, calibrate, regime_breakdown
from .tasks import Task, make_task
from .trajectory import (  # noqa: F401  (write_loss_log: the benchmark calls harness's)
    EVENTS_JSONL,
    LOSS_LOG,
    Checkpoint,
    checkpoint_path,
    checkpoint_spacing,
    history_at,
    load_checkpoint,
    read_loss_log,
    recent_loss_std,
    write_atomic,
    write_jsonl,
    write_loss_log,
)
from .verify import CRITERIA, Decision, decide

THRESHOLDS_FILE = "thresholds.txt"
SWEEP_CSV = "sweep.csv"
CASCADES_JSONL = "cascades.jsonl"

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
    """A cascade start; its cascades.jsonl line's keys are these fields, in order."""

    seed: int
    start_step: int
    depth: int
    k: int
    predictor: str
    criterion: str
    accepted_depth: int
    events: tuple[LeapEvent, ...]


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


RUN_OUTPUTS = ("ckpt_*.lpv", EVENTS_JSONL, LOSS_LOG, SWEEP_CSV, CASCADES_JSONL, "config.txt")


def fresh_run_dir(run_dir: str | Path, force: bool = True) -> Path:
    """Clear the outputs of any earlier run from `run_dir`.

    Checkpoints, events, the loss log and a live run's config are replaced
    by the new run, and the sweep and cascade files derived from the old
    checkpoints go with them, so no later pass mixes the two runs. So do
    the `.tmp` files that an interrupted trajectory.write_atomic, by the run
    or its batch producer, leaves beside them. With force=False a
    run dir that holds any of them is refused instead.
    """
    run_dir = Path(run_dir)
    stale = sorted(p for pattern in RUN_OUTPUTS for name in (pattern, pattern + ".tmp")
                   for p in run_dir.glob(name))
    if stale and not force:
        raise RuntimeError(f"{stale[0]} already exists; pass --force to overwrite")
    for path in stale:
        path.unlink()
    return run_dir


# ------------------------------------------------------------- the passes

def calibrate_thresholds(cfg: RunConfig) -> Thresholds:
    """Quantile-calibrate regime thresholds from fresh calibration runs."""
    if cfg.steps // cfg.delta < 3:  # each run needs 2 similarities, so 3 checkpoints
        raise ValueError(f"calibrate needs steps // delta >= 3, got steps={cfg.steps}, "
                         f"delta={cfg.delta}")
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    runs = each_seed([("calibrate", lambda seed: train_run(
        task, seed, total_steps=cfg.steps, delta=cfg.delta, hyper=hyper).similarities)],
        cfg.calibration_seeds)
    traces = [[s for s in similarities if s is not None] for _, _, similarities in runs]
    return calibrate(traces, cfg.q_low, cfg.q_high)


def write_thresholds(th: Thresholds, out_root: str | Path) -> Path:
    path = Path(out_root) / THRESHOLDS_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, f"tau_low = {th.tau_low!r}\ntau_high = {th.tau_high!r}\n")
    return path


def read_thresholds(path: str | Path) -> Thresholds:
    values = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        key, _, value = line.partition("=")
        if key.strip() in ("tau_low", "tau_high"):
            try:
                values[key.strip()] = float(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from exc
    if set(values) != {"tau_low", "tau_high"}:
        raise ValueError(f"{path}: expected tau_low and tau_high entries")
    try:
        return Thresholds(tau_low=values["tau_low"], tau_high=values["tau_high"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
    return train_run(task, seed, total_steps=cfg.steps, delta=cfg.delta,
                     hyper=hyper, thresholds=thresholds, store_dir=run_dir)


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
            window = [held.get(s) or load_checkpoint(checkpoint_path(run_dir, s))
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
             for c in read_sweep_csv(sweep_file, epsilon, regime=RegimeLabel.STABLE)}
    ks = tuple(dict.fromkeys(k for _, k in configs))

    def cascade(start: Checkpoint, pred: Prediction, d: int, l_hat: float,
                sigma: float | None) -> CascadeRow:
        events = run_cascade(start, pred, d, criterion, task, l_hat=l_hat,
                             sigma_l=sigma, epsilon=epsilon, regime=RegimeLabel.STABLE)
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


def read_sweep_csv(path: str | Path, epsilon: float,
                   regime: RegimeLabel | None = None) -> list[SweepCell]:
    """Rebuild sweep cells from CSV (criterion verdicts are authoritative).

    A row that does not parse is refused, and so is a sweep whose stored
    proximity verdict disagrees with `epsilon`, recomputed from the exact
    L_hat and L_t: it was scored under another epsilon. With `regime`, only
    the eligible cells of checkpoints labelled `regime` are built.
    """
    cells: list[SweepCell] = []
    regimes = {label.value: label for label in RegimeLabel}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SWEEP_CSV_HEADER.split(","):
            raise ValueError(f"{path}: unexpected sweep CSV header {header}")
        for row in reader:
            try:  # the columns of SWEEP_CSV_HEADER, in order
                (seed, step, label, predictor, k, l_hat, l_t,
                 strict, adaptive, proximity, disp, eligible) = row
                if regime is not None and (label != regime.value or eligible != "1"):
                    continue
                seed, step, label, k, l_t = int(seed), int(step), regimes[label], int(k), float(l_t)
                l_hat, disp = (float(l_hat), float(disp)) if eligible == "1" else (math.nan,) * 2
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}, line {reader.line_num} is not a sweep row: {exc}; "
                                 f"run the sweep pass again") from exc
            decision = None
            if eligible == "1":
                if (proximity == "1") != (abs(l_hat - l_t) < epsilon * l_t):
                    raise ValueError(f"{path} was swept under another epsilon than {epsilon} "
                                     f"(step {step}, predictor {predictor}, K={k}); "
                                     f"run the sweep pass again")
                decision = Decision(strict == "1", None if adaptive == "" else adaptive == "1",
                                    proximity == "1", l_hat, l_t, None, epsilon)
            cells.append(SweepCell(seed, step, label, predictor, k, l_hat, l_t, decision, disp,
                                   eligible == "1"))
    return cells


def write_cascade_rows(rows: list[CascadeRow], path: str | Path) -> None:
    write_jsonl(path, rows)


def read_cascade_rows(path: str | Path, epsilon: float) -> list[CascadeRow]:
    """Reload cascade rows; per-stage events are not reconstructed.

    A line that is not JSON of CascadeRow's fields is refused by its number,
    and a row whose events record another epsilon than `epsilon` is refused.
    """
    rows: list[CascadeRow] = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = CascadeRow(**json.loads(line))
            scored = [event["decision"]["epsilon"] for event in row.events]
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}, line {number} is not a cascade row: {exc}; "
                             f"run the cascade pass again") from exc
        for eps in scored:
            if eps != epsilon:
                raise ValueError(f"{path} was scored under epsilon {eps}, not the "
                                 f"configured {epsilon}; run the cascade pass again")
        rows.append(replace(row, events=()))
    return rows


# ------------------------------------------------------------ aggregation

def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean, and std across seeds with ddof=1, which is 0 for a single value."""
    return float(np.mean(values)), 0.0 if len(values) < 2 else float(np.std(values, ddof=1))


def _rate_stat(per_seed: dict[int, list[int]]) -> dict | None:
    """mean +/- std across seeds of a per-seed percentage, with receipts; cov is None
    (undefined, printed as a dash) when the mean is 0."""
    entries = [{"seed": seed, "accepted": acc, "denominator": den, "rate": 100.0 * acc / den}
               for seed, (acc, den) in sorted(per_seed.items()) if den > 0]
    if not entries:
        return None
    mean, std = _mean_std([e["rate"] for e in entries])
    return {"mean": mean, "std": std, "cov": None if mean == 0.0 else 100.0 * std / mean,
            "single_seed": len(entries) == 1,
            "accepted": sum(e["accepted"] for e in entries),
            "denominator": sum(e["denominator"] for e in entries),
            "per_seed": entries}


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
              config: dict) -> dict:
    """Reduce all seeds' cells to the report document, which report.json holds as is.

    It holds config, seeds, regime_counts (keyed by str(seed)),
    regime_summary, acceptance and cov (keyed "regime|predictor|K|criterion"
    and "predictor|K|criterion"), ratios, cascades, cascade_note and notes;
    format_report_text renders report.txt from it alone. So a new table is
    one key here and one block in format_report_text.

    Pure function of its inputs up to reordering: every grouping is keyed and
    sorted, so seed or cell order cannot change a single output value.
    """
    seeds = sorted(labels_by_seed)
    regime_counts = {
        str(seed): {label.value: count
                    for label, count in regime_breakdown(labels_by_seed[seed]).items()}
        for seed in seeds
    }
    regime_summary = {}
    for label in RegimeLabel:
        mean, std = _mean_std([regime_counts[str(s)][label.value] for s in seeds])
        regime_summary[label.value] = {"mean": mean, "std": std}

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

    def stats(groups: dict) -> dict:  # in key order, K compared as a number
        return {"|".join(map(str, key)): stat for key in sorted(groups)
                if (stat := _rate_stat(groups[key])) is not None}

    cascades = []
    by_cfg: dict[tuple[int, int, str], list[CascadeRow]] = {}
    for row in cascade_rows:
        by_cfg.setdefault((row.depth, row.k, row.predictor), []).append(row)
    for (depth, k, predictor) in sorted(by_cfg):
        rows = by_cfg[(depth, k, predictor)]
        depth_by_seed: dict[int, list[int]] = {}
        for r in rows:
            depth_by_seed.setdefault(r.seed, []).append(r.accepted_depth)
        mean, std = _mean_std([float(np.mean(depth_by_seed[s])) for s in sorted(depth_by_seed)])
        cascades.append({
            "depth": depth,
            "k": k,
            "predictor": predictor,
            "starts": len(rows),
            "seeds": len(depth_by_seed),
            "mean_accepted_depth": mean,
            "std_accepted_depth": std,
            "max_accepted_depth": max(r.accepted_depth for r in rows),
            "full_depth_count": sum(r.accepted_depth == depth for r in rows),
        })

    return {
        "config": config,
        "seeds": seeds,
        "regime_counts": regime_counts,
        "regime_summary": regime_summary,
        "acceptance": stats(acc_groups),
        "cov": stats(cov_groups),
        "ratios": {p: ratio_table(cells, p) for p in SWEEP_PREDICTORS},
        "cascades": cascades,
        "cascade_note": None if cascade_rows else ("no stable checkpoints with sufficient "
                                                   "history: cascade table has zero denominators"),
        "notes": ["single seed: cross-seed std is 0 by convention"] if len(seeds) == 1 else [],
    }


# ---------------------------------------------------------------- reports

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
             stat_at: Callable[[str, int], dict | None],
             fmt: Callable[[dict | None], str]) -> list[str]:
    """A predictor x K table with its title; predictors without any stat are left out."""
    rows = []
    for predictor in predictors:
        stats = [stat_at(predictor, k) for k in k_values]
        if any(stat is not None for stat in stats):
            rows.append([predictor] + [fmt(stat) for stat in stats])
    if not rows:
        return []
    return [title, _render_table(["predictor"] + [f"K={k}" for k in k_values], rows), ""]


def format_report_text(report: dict) -> str:
    """report.txt, rendered from the report document (aggregate's dict) alone.

    So json.loads of report.json renders the same text; a new table is one
    key in aggregate and one block here.
    """
    out: list[str] = []
    out.append(f"Seeds: {', '.join(str(s) for s in report['seeds'])}")
    for note in report["notes"]:
        out.append(f"Note: {note}")
    out.append("")

    out.append("Regime breakdown (checkpoints per run, mean +/- std across seeds)")
    rows = []
    for label in RegimeLabel:
        s = report["regime_summary"][label.value]
        per_seed = " ".join(str(report["regime_counts"][str(sd)][label.value])
                            for sd in report["seeds"])
        rows.append([label.value, f"{_fmt_float(s['mean'], 1)} +/- {_fmt_float(s['std'], 1)}", per_seed])
    out.append(_render_table(["regime", "count", "per-seed"], rows))
    out.append("")

    acceptance, cov = report["acceptance"], report["cov"]
    keys = [key.split("|") for key in acceptance]
    k_values = sorted({int(k) for (_, _, k, _) in keys})
    regimes = sorted({r for (r, _, _, _) in keys})
    predictors = sorted({p for (_, p, _, _) in keys})
    def rate(stat: dict | None) -> str:
        if stat is None:
            return "-"
        return (f"{_fmt_float(stat['mean'], 1)}+/-{_fmt_float(stat['std'], 1)} "
                f"(n={stat['denominator']})")
    for criterion in CRITERIA:
        for regime in regimes:
            out += _k_table(f"Acceptance rate % ({criterion} criterion, {regime} regime)",
                            predictors, k_values,
                            lambda p, k: acceptance.get(f"{regime}|{p}|{k}|{criterion}"), rate)

    mom = report["ratios"].get("momentum", [])
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
                        predictors, k_values, lambda p, k: cov.get(f"{p}|{k}|{criterion}"),
                        lambda stat: "-" if stat is None or stat["cov"] is None
                        else _fmt_float(stat["cov"], 1))

    out.append("Cascades (accepted depth out of configured depth)")
    if report["cascade_note"]:
        out.append(f"Note: {report['cascade_note']}")
    if report["cascades"]:
        rows = []
        for c in report["cascades"]:
            rows.append([
                f"({c['depth']},{c['k']})", c["predictor"], str(c["starts"]),
                f"{_fmt_float(c['mean_accepted_depth'])} +/- {_fmt_float(c['std_accepted_depth'])}",
                str(c["max_accepted_depth"]), str(c["full_depth_count"]),
            ])
        out.append(_render_table(["(D,K)", "predictor", "starts", "mean depth", "max", "full"], rows))
    out.append("")
    return "\n".join(out)


def write_report(report: dict, out_root: str | Path) -> None:
    """Write the report document as report.json and its rendering as report.txt."""
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    write_atomic(out_root / "report.json", json.dumps(report, indent=2) + "\n")
    write_atomic(out_root / "report.txt", format_report_text(report))


# ------------------------------------------------------------ experiment

Pass = tuple[str, Callable[[int], object]]  # a stage name and its job for one seed


def each_seed(passes: Sequence[Pass], seeds: tuple[int, ...], *,
              inline: bool = False) -> Iterator[tuple[str, int, object]]:
    """Yield (stage, seed, fn(seed)) for each pass (stage, fn) and seed, pass-major.

    A job is one pass of one seed, and it runs once the seed's previous pass
    has succeeded. The jobs run at the same time, one per CPU, in worker
    processes forked by workers.results, which hands each idle worker the
    next ready job; fn must depend only on its seed and on that seed's
    earlier passes, and write only that seed's outputs. They run inline,
    pass by pass, when there is one seed or one CPU, when the caller is
    itself a worker, on another platform than Linux, where fork may not be
    safe with the system's libraries, or with `inline`, for results that
    cost as much to send back as to compute. Either way the first failure
    in (pass, seed) order raises a PassError naming both, no later pass of
    that seed starts, and no worker outlives the generator, however it ends.
    """
    n_workers = 1 if inline else min(len(seeds), usable_cpus())
    results = (fn(seed) for _, fn in passes for seed in seeds)
    if n_workers > 1:
        from . import workers  # here, so a command with one seed never loads multiprocessing

        if not workers.in_worker():
            results = workers.results([fn for _, fn in passes], seeds, n_workers)
    with closing(results):
        for stage, _ in passes:
            for seed in seeds:
                try:
                    result = next(results)
                except Exception as exc:
                    raise PassError(f"{stage} failed for seed {seed}: {exc}") from exc
                yield stage, seed, result


def effective_config(cfg: RunConfig, task: Task, thresholds: Thresholds | None,
                     out_root: str | Path) -> RunConfig:
    """cfg with the learning rate, thresholds and output root a run resolved."""
    if thresholds is not None:
        cfg = replace(cfg, tau_low=thresholds.tau_low, tau_high=thresholds.tau_high)
    return replace(cfg, lr=build_hyper(cfg, task).lr, out=str(out_root))


def train_pass(cfg: RunConfig, task: Task, thresholds: Thresholds, out_root: str | Path) -> Pass:
    """Pass 1 of cfg's seeds; a seed's job returns (checkpoints, final val loss).

    Like those of sweep_pass and cascade_pass, it returns only counts, so a
    worker sends back no more than the caller prints.
    """
    def train(seed: int) -> tuple[int, float]:
        result = pass1_train(task, seed, cfg, thresholds, out_root)
        return len(result.steps), result.loss_log[-1]

    return "pass1 (train)", train


def sweep_pass(cfg: RunConfig, task: Task, out_root: str | Path) -> Pass:
    """Pass 2 of cfg's seeds, each seed's cells written to its sweep.csv;
    a seed's job returns (cells, eligible cells)."""
    hyper, formulas = build_hyper(cfg, task), sweep_formulas(cfg)

    def sweep(seed: int) -> tuple[int, int]:
        run_dir = run_dir_for(out_root, task.name, seed)
        cells = pass2_ksweep(run_dir, task, hyper, k_set=cfg.k_set, epsilon=cfg.epsilon,
                             adaptive_window=cfg.adaptive_window, formulas=formulas)
        write_sweep_csv(cells, run_dir / SWEEP_CSV)
        return len(cells), sum(c.eligible for c in cells)

    return "pass2 (sweep)", sweep


def cascade_pass(cfg: RunConfig, task: Task, out_root: str | Path) -> Pass:
    """Pass 3 of cfg's seeds, each seed's rows written to its cascades.jsonl;
    a seed's job returns its row count."""
    check_cascade_ks(cfg)  # before any seed
    hyper, formulas = build_hyper(cfg, task), sweep_formulas(cfg)

    def cascade(seed: int) -> int:
        run_dir = run_dir_for(out_root, task.name, seed)
        rows = pass3_cascades(run_dir, task, hyper, configs=cfg.cascades,
                              criterion=cfg.criterion, epsilon=cfg.epsilon,
                              adaptive_window=cfg.adaptive_window, formulas=formulas)
        write_cascade_rows(rows, run_dir / CASCADES_JSONL)
        return len(rows)

    return "pass3 (cascade)", cascade


def make_report(cfg: RunConfig) -> dict:
    """Aggregate the stored outputs of cfg's seeds; write report.json and report.txt.

    It returns aggregate's report document, which report.json holds and
    report.txt renders: a new table is one key in aggregate and one block in
    format_report_text. `run-all` and `report` both build their report here,
    from the files on disk, so re-running `report` reproduces `run-all`'s
    report exactly. It reads labels from loss_log.csv, no checkpoint, and
    records the resolved lr and the stored thresholds in the config, but
    never calibrates.
    """
    out_root = resolve_out_root(cfg)
    task_dir = out_root / "runs" / cfg.task
    if not task_dir.is_dir():
        raise FileNotFoundError(f"no run directories under {task_dir}")
    cfg = effective_config(cfg, build_task(cfg), stored_thresholds(cfg, out_root), out_root)

    def load(seed: int) -> tuple[list[RegimeLabel], list[SweepCell], list[CascadeRow]]:
        run_dir = task_dir / str(seed)
        labels = [label for _, label in read_loss_log(run_dir).values()]
        sweep_file, cascade_file = run_dir / SWEEP_CSV, run_dir / CASCADES_JSONL
        for path, stage in ((sweep_file, "sweep"), (cascade_file, "cascade")):
            if not path.exists():
                raise FileNotFoundError(f"{path} missing; run the {stage} pass first")
        cells = read_sweep_csv(sweep_file, cfg.epsilon)
        rows = read_cascade_rows(cascade_file, cfg.epsilon)
        for row in rows:
            if row.criterion != cfg.criterion:
                raise ValueError(f"{cascade_file} was scored under criterion {row.criterion}, "
                                 f"not the configured {cfg.criterion}; run the cascade pass again")
        return labels, cells, rows

    cells, cascade_rows, labels_by_seed = [], [], {}
    # inline: pickling the parsed rows back would cost as much as parsing them
    for _, seed, (labels, seed_cells, rows) in each_seed([("report", load)], cfg.seeds,
                                                         inline=True):
        labels_by_seed[seed] = labels
        cells.extend(seed_cells)
        cascade_rows.extend(rows)
    report = aggregate(cells, cascade_rows, labels_by_seed, config_dict(cfg))
    write_report(report, out_root)
    return report


def run_experiment(cfg: RunConfig) -> dict:
    """Calibrate if need be, run passes 1, 2 and 3 of every seed, then write the report.

    The stored or calibrated thresholds label pass 1's checkpoints. The
    three passes are one call of each_seed, so a worker that has no seed
    left to train sweeps and cascades the seeds already trained while
    another worker still trains. The effective config is written to
    config.txt before the report is aggregated from disk, as `leapverify
    report` aggregates it.
    """
    check_cascade_ks(cfg)  # before thresholds are resolved or calibrated
    task = build_task(cfg)
    out_root = resolve_out_root(cfg)
    thresholds = resolve_thresholds(cfg, out_root)
    passes = [train_pass(cfg, task, thresholds, out_root), sweep_pass(cfg, task, out_root),
              cascade_pass(cfg, task, out_root)]
    for _ in each_seed(passes, cfg.seeds):
        pass
    effective = effective_config(cfg, task, thresholds, out_root)
    write_atomic(out_root / "config.txt", format_config(effective))
    return make_report(effective)
