from __future__ import annotations

import struct

import numpy as np
import pytest

from leapverify.trajectory import (
    FORMAT_VERSION,
    MAGIC,
    WINDOW_CAPACITY,
    CheckpointCorruptionError,
    CheckpointFormatError,
    history_at,
    load_checkpoint,
    load_run_checkpoints,
    recent_loss_std,
    save_checkpoint,
)

from conftest import make_checkpoint


def _history_steps(ckpts, i, since=0):
    return [c.step for c in history_at(ckpts, i, since)]


def test_window_orders_and_trims_to_capacity():
    ckpts = [make_checkpoint(50 * (i + 1), np.ones(2)) for i in range(6)]
    assert WINDOW_CAPACITY == 3
    assert _history_steps(ckpts, 0) == [50]
    assert _history_steps(ckpts, 1) == [50, 100]
    assert _history_steps(ckpts, 4) == [150, 200, 250]  # trimmed to the newest 3, oldest first


def test_window_clear_and_restart_at_any_step():
    ckpts = [make_checkpoint(50 * (i + 1), np.ones(2)) for i in range(6)]
    assert _history_steps(ckpts, 4, since=3) == [200, 250]  # nothing from before `since`
    assert _history_steps(ckpts, 4, since=4) == [250]  # history restarts at `since`
    assert _history_steps(ckpts, 5, since=4) == [250, 300]  # and grows again from there


def test_recent_loss_std_uses_tail_with_sample_std():
    assert recent_loss_std([1.0, 2.0, 3.0, 4.0, 5.0], window=3) == pytest.approx(1.0)
    assert recent_loss_std([1.0, 2.0], window=5) == pytest.approx(np.sqrt(0.5))


def test_recent_loss_std_history_requirements():
    with pytest.raises(ValueError):
        recent_loss_std([1.0, 2.0, 3.0], window=1)
    assert recent_loss_std([1.0], window=3) is None
    assert recent_loss_std([], window=3) is None


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    ckpt = make_checkpoint(
        150,
        rng.standard_normal(17),
        val_loss=0.037519,
        seed=43,
        m=rng.standard_normal(17),
        v=rng.random(17),
    )
    path = tmp_path / "ckpt_150.lpv"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.step == 150
    assert back.seed == 43
    assert back.val_loss == ckpt.val_loss
    for name in ("theta", "m", "v"):
        a, b = getattr(ckpt, name), getattr(back, name)
        assert a.tobytes() == b.tobytes()
        assert not b.flags.writeable


def test_checkpoint_file_bytes_match_layout(tmp_path):
    theta = np.array([1.5, -2.0])
    m = np.array([0.25, 0.5])
    v = np.array([1.0, 4.0])
    ckpt = make_checkpoint(100, theta, val_loss=0.625, seed=42, m=m, v=v)
    path = tmp_path / "ckpt_100.lpv"
    save_checkpoint(ckpt, path)

    expected = (
        b"LPVF"
        + struct.pack("<IQQ", 2, 100, 2)
        + theta.astype("<f8").tobytes()
        + m.astype("<f8").tobytes()
        + v.astype("<f8").tobytes()
        + struct.pack("<d", 0.625)
        + struct.pack("<Q", 42)
    )
    assert FORMAT_VERSION == 2
    assert path.read_bytes() == expected
    assert len(expected) == 24 + 24 * 2 + 16


def test_save_refuses_non_finite_val_loss(tmp_path):
    bad = make_checkpoint(50, np.ones(2), val_loss=float("nan"))
    with pytest.raises(ValueError):
        save_checkpoint(bad, tmp_path / "ckpt_50.lpv")
    assert not (tmp_path / "ckpt_50.lpv").exists()


@pytest.fixture
def stored_blob(tmp_path):
    ckpt = make_checkpoint(100, np.array([1.5, -2.0]))
    path = tmp_path / "ckpt_100.lpv"
    save_checkpoint(ckpt, path)
    return path, path.read_bytes()


def _expect_load_error(tmp_path, blob, exc):
    path = tmp_path / "mutated.lpv"
    path.write_bytes(blob)
    with pytest.raises(exc):
        load_checkpoint(path)


def test_load_rejects_short_file(tmp_path, stored_blob):
    _, blob = stored_blob
    _expect_load_error(tmp_path, blob[:10], CheckpointCorruptionError)


def test_load_rejects_bad_magic(tmp_path, stored_blob):
    _, blob = stored_blob
    _expect_load_error(tmp_path, b"XXXX" + blob[4:], CheckpointFormatError)


def test_load_rejects_unknown_version(tmp_path, stored_blob):
    _, blob = stored_blob
    mutated = MAGIC + struct.pack("<I", 99) + blob[8:]
    _expect_load_error(tmp_path, mutated, CheckpointFormatError)


def test_load_refuses_a_version_1_file(tmp_path):
    # version 1 also stored the fingerprint and a regime byte
    blob = (MAGIC + struct.pack("<IQQ", 1, 100, 1) + np.ones(3).tobytes()
            + struct.pack("<dQ", 0.5, 1) + np.ones(1).tobytes() + struct.pack("<BQ", 3, 42))
    _expect_load_error(tmp_path, blob, CheckpointFormatError)


def test_load_rejects_truncated_payload(tmp_path, stored_blob):
    _, blob = stored_blob
    _expect_load_error(tmp_path, blob[:40], CheckpointCorruptionError)


def test_load_rejects_trailing_garbage(tmp_path, stored_blob):
    _, blob = stored_blob
    _expect_load_error(tmp_path, blob + b"\x00", CheckpointCorruptionError)


def test_load_run_checkpoints_sorts_numerically(tmp_path):
    for step in (100, 1000, 50, 500):
        save_checkpoint(make_checkpoint(step, np.full(2, float(step))),
                        tmp_path / f"ckpt_{step}.lpv")
    steps = [c.step for c in load_run_checkpoints(tmp_path)]
    assert steps == [50, 100, 500, 1000]


def test_load_run_checkpoints_empty_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_run_checkpoints(tmp_path)
