"""Command-line surface: config parsing, artifacts, manifests, exit codes."""
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import configs_equal, trajectory_csv_oracle

import polycbf
from polycbf import (InvarianceSettings, SafetyConfig, ScenarioConfig, TrajectoryLog,
                     TrialMetrics, TrialRecord, experiment_behavior_sweep,
                     experiment_invariance, experiment_prediction,
                     experiment_prediction_in_loop, invariance_trial_setup, simulate)
from polycbf import adaptive, cli, scenario


INVARIANCE_SMALL = """\
[run]
experiment = invariance

[invariance]
trials = 3
dt = 0.01
n_steps = 300
ramp_angle_deg = 8.0
speed_range = 9.0 10.5
progress_range = -90.0 -60.0

[safety]
r_safe = 5.0
q = 2
"""

SWEEP_HOT = """\
[run]
experiment = sweep

[sweep]
styles = 8.0
other_alpha = 5.0 5.0
dt = 0.01
n_steps = 2200
ramp_angle_deg = 8.0
ego_progress = -75.0
other_progress = -75.0
ego_speed = 9.75
other_speed = 9.75
accel_bound = 5.0

[safety]
r_safe = 5.0
q = 2
"""


PREDICT = cli._preset_text("predict")
ADAPTIVE = cli._preset_text("adaptive")
NO_SAMPLE = ADAPTIVE.replace("alpha = 0.9 0.1", "alpha = 0.5 0.5")
PRESETS = Path(polycbf.__file__).parent / "presets"


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def run_cli(args):
    return cli.main([str(a) for a in args])


# --- trajectory CSV ----------------------------------------------------------

def test_trajectory_csv_round_trip(tmp_path):
    cfg = invariance_trial_setup(0, InvarianceSettings(n_steps=200), seed=7)
    log = simulate(cfg).log
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(path, log)
    back = cli.read_trajectory_csv(path, dt=cfg.dt)
    assert back.names == log.names
    assert back.pairs == log.pairs
    assert back.dt == log.dt
    assert np.array_equal(back.states, log.states)
    assert np.array_equal(back.inputs, log.inputs)
    assert np.array_equal(back.pair_h, log.pair_h)
    assert np.array_equal(back.feasible, log.feasible)


def test_trajectory_csv_header_names_pairs(tmp_path):
    cfg = invariance_trial_setup(0, InvarianceSettings(n_steps=50), seed=7)
    log = simulate(cfg).log
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(path, log)
    header = path.read_text().splitlines()[0].split(",")
    assert tuple(header[: len(cli.TRAJECTORY_COLUMNS)]) == cli.TRAJECTORY_COLUMNS
    for col, (i, j) in zip(header[len(cli.TRAJECTORY_COLUMNS):], log.pairs):
        assert col == f"h:{log.names[i]}:{log.names[j]}"


def _small_log(names, pairs, n_rows=3):
    rng = np.random.default_rng(3)
    return TrajectoryLog(names=names, pairs=pairs, dt=0.01,
                         states=rng.normal(size=(n_rows, len(names), 4)),
                         inputs=rng.normal(size=(n_rows, len(names), 2)),
                         pair_h=rng.normal(size=(n_rows, len(pairs))),
                         feasible=rng.random((n_rows, len(names))) < 0.5)


def test_trajectory_csv_round_trips_names_with_colons(tmp_path):
    log = _small_log(("a:1", "b"), ((0, 1),))
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(path, log)
    back = cli.read_trajectory_csv(path, dt=log.dt)
    assert back.names == log.names
    assert back.pairs == log.pairs
    assert np.array_equal(back.states, log.states)
    assert np.array_equal(back.pair_h, log.pair_h)
    assert np.array_equal(back.feasible, log.feasible)


def test_trajectory_csv_reads_back_pair_columns_that_read_alike(tmp_path):
    # with these names the columns of pairs (a, b:c) and (a:b, c) are both
    # "h:a:b:c"; simulate's columns are taken by position
    names = ("a", "b:c", "a:b", "c")
    cfg = ScenarioConfig(geometry=scenario.RoadGeometry(), n_steps=5, vehicles=tuple(
        scenario.VehicleSpec(name=name, start_progress=-80.0 + 15.0 * k)
        for k, name in enumerate(names)))
    log = simulate(cfg).log
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(path, log)
    assert path.read_text().splitlines()[0].count("h:a:b:c") == 2
    back = cli.read_trajectory_csv(path, dt=log.dt)
    assert back.names == names
    assert back.pairs == log.pairs
    assert np.array_equal(back.pair_h, log.pair_h)


@pytest.mark.parametrize("names, column", [
    (("a:1", "b"), "h:x:y"),        # names absent from the body
    (("a", "a:b", "b:c", "c"), "h:a:b:c"),  # splits as a|b:c and as a:b|c
    (("a", "b"), "g:a:b"),          # not a clearance column
])
def test_trajectory_csv_unresolvable_pair_column_is_config_error(tmp_path, names, column):
    # the last of simulate's clearance columns renamed to one it never writes
    log = _edge_log(names, 3)
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(path, log)
    lines = path.read_text().split("\n")
    lines[0] = ",".join(lines[0].split(",")[:-1] + [column])
    path.write_text("\n".join(lines))
    with pytest.raises(cli.ConfigurationError,
                       match=f"traj.csv: clearance columns .*'{column}'.*, expected"):
        cli.read_trajectory_csv(path, dt=log.dt)


@pytest.mark.parametrize("edit", [lambda cols: cols[::-1], lambda cols: cols[:-1]],
                         ids=["reordered", "subset"])
def test_trajectory_csv_pair_columns_out_of_roster_order_are_config_error(tmp_path, edit):
    # the clearance columns of every line rearranged, so only the header's
    # names are wrong: simulate logs every pair i < j in roster order
    log = _edge_log(["a", "b", "c"], 3)
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(path, log)
    base = len(cli.TRAJECTORY_COLUMNS)
    lines = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("".join(",".join(f[:base] + edit(f[base:])) + "\n" for f in lines))
    expected = ["h:a:b", "h:a:c", "h:b:c"]
    with pytest.raises(cli.ConfigurationError, match=re.escape(
            f"traj.csv: clearance columns {edit(expected)}, expected {expected}")):
        cli.read_trajectory_csv(path, dt=log.dt)


@pytest.mark.parametrize("row, match", [
    ("1,a,1,2", "line 4 has 4 fields"),                       # truncated
    ("1", "line 4 has 1 fields"),                             # one field
    ("1,a,1,2,3,4,5,6,yes,7", "line 4: feasible must be 0 or 1"),
    ("1,a,1,2,3,x,5,6,1,7", "line 4: could not convert"),     # not a float
    ("one,a,1,2,3,4,5,6,1,7", "line 4: invalid literal"),     # not a step
    ("1,\xe9,1,2,3,4,5,6,1,7", "traj.csv: not UTF-8"),         # latin-1 byte
])
def test_trajectory_csv_bad_body_row_is_config_error(tmp_path, row, match):
    log = _small_log(("a", "b"), ((0, 1),))
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(path, log)
    lines = path.read_text().split("\n")
    lines[3] = row  # the second step's first row
    path.write_bytes("\n".join(lines).encode("latin-1"))
    with pytest.raises(cli.ConfigurationError, match=match):
        cli.read_trajectory_csv(path, dt=log.dt)


# Floats whose .17g text is special: signed zero, non-finite values, the
# smallest subnormal, the largest double, and values that need all 17 digits.
EDGE_FLOATS = (-0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
               1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0e-7, 9007199254740993.0)


def _edge_log(names, rows=7):
    n = len(names)
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return TrajectoryLog(
        names=tuple(names), pairs=pairs, dt=0.01,
        states=np.resize(np.array(EDGE_FLOATS), (rows, n, 4)),
        inputs=np.resize(np.array(EDGE_FLOATS[::-1]), (rows, n, 2)),
        pair_h=np.resize(np.array(EDGE_FLOATS[3:]), (rows, len(pairs))),
        feasible=np.resize(np.array([2, 0, 1]), (rows, n)))  # written as int(bool(x))


def _early_stop_log():
    cfg = invariance_trial_setup(0, InvarianceSettings(n_steps=37), seed=3)
    log = simulate(cfg).log
    assert log.states.shape[0] == 38
    return log


def _adaptive_logs():
    comparison = experiment_prediction_in_loop(cli.load_preset("adaptive")["scenario"])
    return [comparison.enabled.trial.log, comparison.disabled.trial.log]


# Steps per formatted block of the three-vehicle edge log.
BLOCK = cli._block_steps(3, 3)


def _block_length_logs():
    """Logs of 1 step and of one step around one and two blocks; a name
    with "%" stays literal, and a name's own NUL is written."""
    logs = []
    for names in (["plain", "100%d"], ["solo"], ["nul\0", "x"]):
        block = cli._block_steps(len(names), len(names) * (len(names) - 1) // 2)
        logs += [_edge_log(names, rows)
                 for rows in (1, block - 1, block, block + 1, 2 * block + 1)]
    return logs


@pytest.mark.parametrize("make_logs", [
    lambda: [_edge_log(["plain", "a,b", 'say "hi"'])],
    lambda: [_edge_log(["solo"])],
    lambda: [_early_stop_log()],
    _adaptive_logs,
    _block_length_logs,
], ids=["edge-values-quoted-names", "one-vehicle", "early-stop", "adaptive-preset",
        "block-lengths"])
def test_trajectory_csv_matches_csv_writer_oracle(tmp_path, make_logs):
    logs = make_logs()
    for k, log in enumerate(logs):
        path = tmp_path / f"traj{k}.csv"
        cli.write_trajectory_csv(path, log)
        assert path.read_bytes() == trajectory_csv_oracle(log)
    if make_logs is _adaptive_logs:
        # the CLI writes the preset's two logs in one pass, as a twin
        enabled, disabled = logs
        path, twin_path = tmp_path / "enabled.csv", tmp_path / "disabled.csv"
        cli.write_trajectory_csv(path, enabled, twin=(twin_path, disabled))
        assert path.read_bytes() == trajectory_csv_oracle(enabled)
        assert twin_path.read_bytes() == trajectory_csv_oracle(disabled)


# Block sizes the writers must give the same bytes at: one float, a prime,
# the old block and the current one.
BLOCK_SIZES = sorted({1, 97, 1024, cli._TRAJECTORY_BLOCK})


def entry_on_disk(path):
    """The manifest entry of the file at path, hashed from what is on disk."""
    return (path.name, hashlib.sha256(path.read_bytes()).hexdigest(), path.stat().st_size)


def _widening_log(n_steps=700, wide_at=300):
    """A two-vehicle log whose values are all below 10 in magnitude but one
    state at step wide_at, 12345.678: the block that holds that step lays
    out two groups of integer digits, every other block one."""
    rng = np.random.default_rng(5)
    log = TrajectoryLog(names=("a", "b"), pairs=((0, 1),), dt=0.01,
                        states=rng.uniform(-9.9, 9.9, (n_steps, 2, 4)),
                        inputs=rng.uniform(-9.9, 9.9, (n_steps, 2, 2)),
                        pair_h=rng.uniform(0.0, 9.9, (n_steps, 1)),
                        feasible=rng.random((n_steps, 2)) < 0.9)
    log.states[wide_at, 1, 0] = 12345.678
    return log


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_trajectory_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block):
    monkeypatch.setattr(cli, "_TRAJECTORY_BLOCK", block)
    edge = _edge_log(["plain", "a,b", 'say "hi"'], 2 * BLOCK + 3)
    path = tmp_path / "edge.csv"
    assert cli.write_trajectory_csv(path, edge) == [entry_on_disk(path)]
    assert path.read_bytes() == trajectory_csv_oracle(edge)

    log = _widening_log()
    # Shares its first 301 steps with log: a prefix that ends inside a
    # block at every size but 1.
    twin = _changed_at(log, 301, "states")
    assert cli._shared_steps(log, twin) == 301
    assert 301 % cli._block_steps(2, 1) != 0 or block == 1
    path, twin_path = tmp_path / "log.csv", tmp_path / "twin.csv"
    entries = cli.write_trajectory_csv(path, log, twin=(twin_path, twin))
    assert path.read_bytes() == trajectory_csv_oracle(log)
    assert twin_path.read_bytes() == trajectory_csv_oracle(twin)
    assert entries == [entry_on_disk(path), entry_on_disk(twin_path)]


def _series_values(kind, length):
    if kind == "edge":
        return np.resize(np.array(EDGE_FLOATS), length)
    values = np.random.default_rng(6).uniform(-9.9, 9.9, length)
    values[length // 2:length // 2 + 1] = 12345.678  # one block of wider integers
    return values


# Lengths of one block and one past it at the old block size and the current one.
@pytest.mark.parametrize("length", sorted({0, 1, 1024, 1025, cli._TRAJECTORY_BLOCK,
                                           cli._TRAJECTORY_BLOCK + 1, 10_001}))
def test_series_csv_matches_csv_writer_oracle(tmp_path, monkeypatch, length):
    path = tmp_path / "series.csv"
    for kind in ("edge", "widening"):
        values = _series_values(kind, length)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["step", "distance"]]
            + [[t, format(v, ".17g")] for t, v in enumerate(values.tolist())])
        expected = buf.getvalue().encode("utf-8")
        for block in BLOCK_SIZES:
            monkeypatch.setattr(cli, "_TRAJECTORY_BLOCK", block)
            entry = cli._write_series_csv(path, ["step", "distance"], values)
            assert path.read_bytes() == expected, (kind, block)
            assert entry == entry_on_disk(path)


def _changed_at(log, k, field):
    """A copy of log that differs from it in the bits of field at step k only."""
    arrays = {name: getattr(log, name).copy()
              for name in ("states", "inputs", "pair_h", "feasible")}
    row = arrays[field][k].reshape(-1)
    # negation flips the sign bit of every float, NaN and zero included
    row[0] = not row[0] if field == "feasible" else -row[0]
    return dataclasses.replace(log, **arrays)


def write_sharing(tmp_path, monkeypatch, log, primary):
    """write_trajectory_csv(path, primary, twin=(twin_path, log)): the twin
    file's bytes and the number of leading steps formatted once for both,
    after checking the primary file and that every other step of either
    file is formatted once."""
    spans = []
    blocks = cli._trajectory_blocks
    monkeypatch.setattr(cli, "_trajectory_blocks", lambda lg, start, stop:
                        spans.append((start, stop)) or blocks(lg, start, stop))
    path, twin = tmp_path / "primary.csv", tmp_path / "twin.csv"
    cli.write_trajectory_csv(path, primary, twin=(twin, log))
    assert path.read_bytes() == trajectory_csv_oracle(primary)
    shared = spans[0][1]
    assert spans == [(0, shared), (shared, len(primary.states)), (shared, len(log.states))]
    return twin.read_bytes(), shared


@pytest.mark.parametrize("field", ["states", "inputs", "pair_h", "feasible"])
@pytest.mark.parametrize("k", [0, 1, BLOCK, "copy", None],
                         ids=["k0", "k1", "kB", "alike", "same-log"])
def test_trajectory_csv_copies_the_rows_two_logs_share(tmp_path, monkeypatch, k, field):
    primary = _edge_log(["plain", "a,b", "100%d"], 2 * BLOCK + 3)
    if k is None:
        log = primary
    elif k == "copy":  # an equal log, but another object
        log = dataclasses.replace(primary)
    else:
        log = _changed_at(primary, k, field)
    data, shared = write_sharing(tmp_path, monkeypatch, log, primary)
    assert data == trajectory_csv_oracle(log)
    # the rows before the first differing step are formatted once for both
    assert shared == (k if isinstance(k, int) else len(log.states))


class _Unreadable:
    def __getitem__(self, key):
        raise AssertionError("the log was read")


def test_shared_steps_of_a_log_with_itself_reads_no_array():
    log = dataclasses.replace(_edge_log(["a", "b"], 5), inputs=_Unreadable())
    assert cli._shared_steps(log, log) == 5
    with pytest.raises(AssertionError, match="was read"):
        cli._shared_steps(log, dataclasses.replace(log))


def test_trajectory_csv_shares_a_prefix_of_logs_of_other_lengths(tmp_path, monkeypatch):
    long = _edge_log(["a", "b"], BLOCK + 9)
    short = dataclasses.replace(long, **{name: getattr(long, name)[:BLOCK + 2]
                                         for name in ("states", "inputs", "pair_h", "feasible")})
    for log, primary in ((short, long), (long, short)):
        data, shared = write_sharing(tmp_path, monkeypatch, log, primary)
        assert data == trajectory_csv_oracle(log)
        assert shared == BLOCK + 2
        monkeypatch.undo()


@pytest.mark.parametrize("make_log", [
    lambda log: dataclasses.replace(log, names=("a", "b", "d")),
    lambda log: dataclasses.replace(log, pairs=log.pairs[::-1]),
    lambda log: _edge_log(["a", "b"], 5),
], ids=["renamed", "pairs-reordered", "fewer-vehicles"])
def test_trajectory_csv_shares_nothing_with_another_roster(tmp_path, make_log):
    # a twin must log the same vehicles and pairs: one of another roster is
    # refused before either file is created
    primary = _edge_log(["a", "b", "c"], 5)
    path, twin = tmp_path / "primary.csv", tmp_path / "twin.csv"
    with pytest.raises(cli.ConfigurationError, match="twin.csv: a twin trajectory must log"):
        cli.write_trajectory_csv(path, primary, twin=(twin, make_log(primary)))
    assert list(tmp_path.iterdir()) == []


# --- run: artifacts and manifest ---------------------------------------------

def assert_manifest_matches_disk(exp_dir, experiment):
    """manifest.json of exp_dir names every other file there, in name
    order, each with the sha256 and size of the file on disk; returns its
    entries by name."""
    manifest = json.loads((exp_dir / "manifest.json").read_text())
    assert manifest["experiment"] == experiment
    assert manifest["seed"] == 0
    declared = [f["name"] for f in manifest["files"]]
    assert declared == sorted(declared)
    assert sorted(p.name for p in exp_dir.iterdir()) == sorted(declared + ["manifest.json"])
    entries = {f["name"]: (f["name"], f["sha256"], f["bytes"]) for f in manifest["files"]}
    for name, entry in entries.items():
        assert entry == entry_on_disk(exp_dir / name)
    return entries


def test_run_writes_declared_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, INVARIANCE_SMALL)
    out = tmp_path / "out"
    assert run_cli(["run", "invariance", "--config", cfg, "--out", out]) == 0
    assert_manifest_matches_disk(out / "invariance", "invariance")


@pytest.mark.parametrize("experiment, text, flags, twins_equal", [
    ("predict", PREDICT.replace("n_steps = 4000", "n_steps = 300"), ["--trials", 2], None),
    ("sweep", cli._preset_text("sweep_weights").replace("n_steps = 3200", "n_steps = 600"), [],
     None),
    ("adaptive", ADAPTIVE, [], False),
    ("adaptive", NO_SAMPLE, [], True),
], ids=["predict", "sweep", "adaptive-selected", "adaptive-no-style"])
def test_every_experiment_writes_its_declared_artifacts(tmp_path, experiment, text, flags,
                                                        twins_equal):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(["run", experiment, "--config", cfg, "--out", out] + flags) == 0
    entries = assert_manifest_matches_disk(out / experiment, experiment)
    if twins_equal is not None:
        # with no style selected the two trajectories are one log, hashed once
        enabled, disabled = (entries[f"trajectory_{run}.csv"][1:]
                             for run in ("enabled", "disabled"))
        assert (enabled == disabled) == twins_equal


def test_run_reads_no_artifact_back(tmp_path, monkeypatch):
    """The manifest's hashes come from the writers: no file of the output
    directory is opened for reading during a run."""
    cfg = write_cfg(tmp_path, ADAPTIVE)
    out = tmp_path / "out"
    opened = []
    real_open = io.open

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, Path)):
            opened.append((Path(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr("builtins.open", recording_open)
    assert run_cli(["run", "adaptive", "--config", cfg, "--out", out]) == 0
    written = {p for p, mode in opened if p.parent == out / "adaptive"}
    assert {p.name for p in written} == {p.name for p in (out / "adaptive").iterdir()}
    assert [(p, mode) for p, mode in opened if p in written and "r" in mode] == []


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, INVARIANCE_SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "invariance", "--config", cfg, "--out", out_a]) == 0
    assert run_cli(["run", "invariance", "--config", cfg, "--out", out_b]) == 0
    dir_a, dir_b = out_a / "invariance", out_b / "invariance"
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        if name == "manifest.json":
            ma = json.loads((dir_a / name).read_text())
            mb = json.loads((dir_b / name).read_text())
            ma.pop("out_dir"), mb.pop("out_dir")
            assert ma == mb
        else:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_seed_changes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, INVARIANCE_SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "invariance", "--config", cfg, "--out", out_a]) == 0
    assert run_cli(["run", "invariance", "--config", cfg, "--seed", 1,
                    "--out", out_b]) == 0
    ma = json.loads((out_a / "invariance" / "manifest.json").read_text())
    mb = json.loads((out_b / "invariance" / "manifest.json").read_text())
    assert ma["seed"] == 0 and mb["seed"] == 1
    assert (out_a / "invariance" / "metrics.csv").read_bytes() != \
        (out_b / "invariance" / "metrics.csv").read_bytes()


def test_out_dir_env_var(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, INVARIANCE_SMALL)
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "env_out"))
    assert run_cli(["run", "invariance", "--config", cfg]) == 0
    assert (tmp_path / "env_out" / "invariance" / "manifest.json").exists()


def test_trials_override(tmp_path):
    cfg = write_cfg(tmp_path, INVARIANCE_SMALL)
    out = tmp_path / "out"
    assert run_cli(["run", "invariance", "--config", cfg, "--trials", 2,
                    "--out", out]) == 0
    rows = (out / "invariance" / "metrics.csv").read_text().splitlines()
    assert len(rows) == 1 + 2


# Short runs of each experiment, and whether it is one that ignores --trials
# and --seed (it has no trial count and draws nothing at random).
SHORT_RUNS = [
    ("sweep", SWEEP_HOT.replace("n_steps = 2200", "n_steps = 100"), True),
    ("adaptive", ADAPTIVE.replace("n_steps = 3000", "n_steps = 100"), True),
    ("predict", PREDICT.replace("n_steps = 4000", "n_steps = 100"), False),
    ("invariance", INVARIANCE_SMALL, False),
]


@pytest.mark.parametrize("experiment,config,noted", SHORT_RUNS)
def test_trials_note_names_experiments_without_trials(tmp_path, capsys, experiment,
                                                      config, noted):
    cfg = write_cfg(tmp_path, config)
    assert run_cli(["run", experiment, "--config", cfg, "--trials", 1,
                    "--out", tmp_path / "out"]) == 0
    note = f"note: --trials has no effect on {experiment}"
    assert (note in capsys.readouterr().err) == noted


@pytest.mark.parametrize("experiment,config,noted", SHORT_RUNS)
def test_seed_note_names_experiments_without_a_seed(tmp_path, capsys, experiment,
                                                    config, noted):
    cfg = write_cfg(tmp_path, config)
    assert run_cli(["run", experiment, "--config", cfg, "--seed", 3, "--trials", 1,
                    "--out", tmp_path / "out"]) == 0
    note = f"note: --seed has no effect on {experiment}"
    assert (note in capsys.readouterr().err) == noted


# --- run: each trial simulated once -------------------------------------------

# predict runs its worst trial a second time: the experiment's run stops at
# the chunk where the learner converges, and trajectory.csv holds the
# full-length run.  A predict trial's later chunks resume the chunk before
# them at its last step, so they step no step twice.
@pytest.mark.parametrize("experiment,config,trials,calls", [
    ("invariance", INVARIANCE_SMALL, 3, 3),
    ("sweep", SWEEP_HOT.replace("styles = 8.0", "styles = 0.4 | 8.0 | 2.2")
                       .replace("n_steps = 2200", "n_steps = 300"), None, 3),
    ("predict", PREDICT.replace("n_steps = 4000", "n_steps = 300"), 2, 2 + 1),
], ids=["invariance", "sweep", "predict"])
def test_run_simulates_each_trial_once(tmp_path, monkeypatch, experiment, config,
                                       trials, calls):
    fresh, last = [], []
    original = scenario.simulate

    def counting(cfg, resume=None):
        if resume is None:
            fresh.append(cfg)
        else:
            log, t0 = resume
            assert log is last[-1].log and t0 == len(log.states) - 1 < cfg.n_steps
        last.append(original(cfg, resume))
        return last[-1]

    monkeypatch.setattr(scenario, "simulate", counting)
    monkeypatch.setattr(cli, "simulate", counting)  # predict's rerun of its worst trial
    argv = ["run", experiment, "--config", write_cfg(tmp_path, config),
            "--out", tmp_path / "out"]
    assert run_cli(argv + (["--trials", trials] if trials else [])) == 0
    assert len(fresh) == calls


def _stub_record(k: int, min_h: float) -> TrialRecord:
    # two steps of two vehicles, every state set to the trial index
    log = TrajectoryLog(("ego", "other"), ((0, 1),), 0.01, np.full((2, 2, 4), float(k)),
                        np.zeros((2, 2, 2)), np.full((2, 1), min_h), np.ones((2, 2), bool))
    return TrialRecord(log, TrialMetrics({("ego", "other"): min_h},
                                         {"ego": None, "other": None}, 0, False))


@pytest.mark.parametrize("keys", [
    (2.0, 0.5, 0.5),
    (1.0, float("nan"), 0.5, 0.5),
    (float("nan"), 0.5, 0.1),
])
def test_invariance_writes_the_trial_min_picks(tmp_path, monkeypatch, keys):
    records = [_stub_record(k, h) for k, h in enumerate(keys)]
    monkeypatch.setattr(cli, "_invariance_records", lambda *a, **kw: iter(records))
    lines, _, _ = cli._run_invariance(tmp_path, 0, InvarianceSettings(trials=len(keys)),
                                      SafetyConfig())
    worst = min(range(len(keys)), key=keys.__getitem__)
    cli.write_trajectory_csv(tmp_path / "expected.csv", records[worst].log)
    assert (tmp_path / "trajectory.csv").read_bytes() == \
        (tmp_path / "expected.csv").read_bytes()
    assert f"(trial {worst})" in lines[1]


# --- load_preset and the shipped adaptive preset ------------------------------

def built_by_run(tmp_path, monkeypatch, experiment, config):
    """The inputs `run` hands the experiment's runner for a config file."""
    seen = {}

    def capture(out_dir, seed, **inputs):
        seen.update(inputs)
        return [], [], None

    spec = cli._EXPERIMENTS[experiment]
    monkeypatch.setitem(cli._EXPERIMENTS, experiment, spec._replace(run=capture))
    assert run_cli(["run", experiment, "--config", config, "--out", tmp_path]) == 0
    assert seen
    return seen


@pytest.mark.parametrize("name,experiment", [
    ("predict", "predict"), ("sweep_weights", "sweep"), ("sweep_gamma", "sweep"),
    ("adaptive", "adaptive"), ("invariance", "invariance"),
])
def test_load_preset_is_what_run_builds(tmp_path, monkeypatch, name, experiment):
    built = built_by_run(tmp_path, monkeypatch, experiment, PRESETS / f"{name}.cfg")
    assert configs_equal(cli.load_preset(name), built)


# The library entry point of each shipped preset's experiment.
ENTRY_POINTS = {
    "predict": experiment_prediction,
    "sweep_weights": experiment_behavior_sweep,
    "sweep_gamma": experiment_behavior_sweep,
    "adaptive": experiment_prediction_in_loop,
    "invariance": experiment_invariance,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_load_preset_binds_to_the_library_entry_point(name):
    inspect.signature(ENTRY_POINTS[name]).bind(**cli.load_preset(name))


@pytest.mark.parametrize("module", [scenario, adaptive], ids=["scenario", "adaptive"])
def test_public_functions_take_no_keyword_overrides(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            kinds = [p.kind for p in inspect.signature(obj).parameters.values()]
            assert inspect.Parameter.VAR_KEYWORD not in kinds, name


def test_library_invariance_is_what_run_writes(tmp_path):
    preset = cli.load_preset("invariance")
    preset["settings"] = dataclasses.replace(preset["settings"], trials=2)
    metrics = experiment_invariance(**preset)
    assert run_cli(["run", "invariance", "--trials", 2, "--out", tmp_path]) == 0
    with open(tmp_path / "invariance" / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["min_h"] for row in rows] == \
        [cli._g17(min(m.min_h.values())) for m in metrics]
    assert [int(row["infeasible_steps"]) for row in rows] == \
        [m.infeasible_step_count for m in metrics]


def test_rosterless_adaptive_config_runs_the_preset_roster(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "[run]\nexperiment = adaptive\n\n[adaptive]\nphase_budget = 200\n")
    built = built_by_run(tmp_path, monkeypatch, "adaptive", cfg)
    assert built["settings"].phase_budget == 200
    assert configs_equal(built["scenario"], cli.load_preset("adaptive")["scenario"])


def assert_rows_fit_the_header(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows
    assert [len(row) for row in rows] == [len(header)] * len(rows), path


def test_adaptive_preset_run_reports_speedup(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["run", "adaptive", "--out", out]) == 0
    captured = capsys.readouterr()
    exp_dir = out / "adaptive"
    for name in ("metrics.csv", "estimates.csv"):
        assert_rows_fit_the_header(exp_dir / name)
    assert "selected style (0, 1) after converging at sample " in captured.out
    rows = (exp_dir / "metrics.csv").read_text().splitlines()
    header = rows[0].split(",")
    enabled = dict(zip(header, rows[1].split(",")))
    disabled = dict(zip(header, rows[2].split(",")))
    assert enabled["prediction_enabled"] == "1"
    assert disabled["prediction_enabled"] == "0"
    assert int(enabled["ego_merge_step"]) < int(disabled["ego_merge_step"])
    assert int(enabled["overall_step"]) < int(disabled["overall_step"])
    assert (exp_dir / "trajectory_enabled.csv").exists()
    assert (exp_dir / "trajectory_disabled.csv").exists()
    # a selected style changes the trial: two runs, two different files
    assert ((exp_dir / "trajectory_enabled.csv").read_bytes()
            != (exp_dir / "trajectory_disabled.csv").read_bytes())
    assert (exp_dir / "estimates.csv").exists()
    assert "wrote" in captured.out


@pytest.mark.parametrize("q,selected", [
    # a one-term fit of the object's two-term style never settles, so the ego
    # picks at the phase budget and carries no compatibility row
    (1, "selected style (0, 1) at the phase budget from an unconverged estimate; "
        "no compatibility row\n"),
    (3, "selected style (0, 1) after converging at sample "),
], ids=["q1", "q3"])
def test_adaptive_rows_fit_the_header_at_any_order(tmp_path, capsys, q, selected):
    # the selected preset has two coefficients whatever [safety] q is
    cfg = write_cfg(tmp_path, ADAPTIVE.replace("\nq = 2\n", f"\nq = {q}\n"))
    out = tmp_path / "out"
    assert run_cli(["run", "adaptive", "--config", cfg, "--out", out]) == 0
    assert selected in capsys.readouterr().out
    for name in ("metrics.csv", "estimates.csv"):
        assert_rows_fit_the_header(out / "adaptive" / name)
    with open(out / "adaptive" / "metrics.csv", newline="") as fh:
        enabled, disabled = list(csv.DictReader(fh))
    width = max(q, 2)
    assert [enabled[f"selected_alpha_{k}"] for k in range(width)] == \
        ["0", "1"] + [""] * (width - 2)
    assert [disabled[f"selected_alpha_{k}"] for k in range(width)] == [""] * width
    assert (enabled["converged_at"] == "") == (q == 1)


@pytest.mark.parametrize("lead_progress", ["50.0", "120.0"])
def test_adaptive_fit_with_a_zero_pivot_writes_finite_estimates(tmp_path, capsys,
                                                                lead_progress):
    # The object, held to 5 m/s with the lead far ahead, is admitted from
    # step 1 at h of thousands of m^2, where the fit's ridge term is below
    # the rounding of its normal matrix and elimination meets a pivot of 0.0.
    text = ADAPTIVE.replace("start_progress = -33.6", f"start_progress = {lead_progress}")
    text = text.replace("desired_speed = 3.0", "desired_speed = 5.0", 1)
    assert f"start_progress = {lead_progress}" in text
    assert "[vehicle.object]\nrole = object\nroute = ramp\nstart_progress = -40.0\n" \
        "speed = 3.0\ndesired_speed = 5.0" in text
    cfg = write_cfg(tmp_path, text)
    assert run_cli(["validate", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out
    out = tmp_path / "out"
    assert run_cli(["run", "adaptive", "--config", cfg, "--out", out]) == 0
    with open(out / "adaptive" / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[0]["step"] == "1"
    assert all(math.isfinite(float(v)) for row in rows for k, v in row.items()
               if k.startswith(("alpha_", "raw_")))



@pytest.mark.parametrize("config,line,converged_at", [
    # the learner admits no sample of a (0.5, 0.5) object
    (NO_SAMPLE, "no style selected: no sample was admitted by step 300; the ego kept its "
                "configured style, so the baseline is the same trial\n", ""),
    # the estimate converges, but the run ends before the budget selects a style
    (ADAPTIVE.replace("phase_budget = 300", "phase_budget = 5000"),
     "no style selected: the run ended at step 3000, before the phase budget 5000; the ego "
     "kept its configured style, so the baseline is the same trial\n", "6"),
], ids=["no-sample", "run-ended"])
def test_adaptive_run_without_a_selection_copies_its_trajectory(tmp_path, capsys, monkeypatch,
                                                                 config, line, converged_at):
    cfg = write_cfg(tmp_path, config)
    out = tmp_path / "out"
    assert run_cli(["run", "adaptive", "--config", cfg, "--out", out]) == 0
    assert line in capsys.readouterr().out
    exp_dir = out / "adaptive"
    with open(exp_dir / "metrics.csv", newline="") as fh:
        enabled, disabled = list(csv.DictReader(fh))
    assert enabled["converged_at"] == converged_at
    assert enabled["selected_alpha_0"] == disabled["selected_alpha_0"] == ""
    # the baseline file is a copy of the one trial's, which is what a fresh
    # run of the scenario as configured writes
    trial_bytes = (exp_dir / "trajectory_enabled.csv").read_bytes()
    assert (exp_dir / "trajectory_disabled.csv").read_bytes() == trial_bytes
    plain = tmp_path / "plain.csv"
    built = built_by_run(tmp_path / "built", monkeypatch, "adaptive", cfg)
    cli.write_trajectory_csv(plain, simulate(built["scenario"]).log)
    assert plain.read_bytes() == trial_bytes
    sha = {e["name"]: e["sha256"]
           for e in json.loads((exp_dir / "manifest.json").read_text())["files"]}
    assert sha["trajectory_disabled.csv"] == sha["trajectory_enabled.csv"] \
        == hashlib.sha256(trial_bytes).hexdigest()


def test_adaptive_style_selected_at_the_last_step_drives_no_step(tmp_path, capsys,
                                                                monkeypatch):
    # with phase_budget = n_steps the style is selected at the last logged
    # step, where no step follows: the enabled run resumes the baseline
    # there and steps nothing, and the two trajectory files are the same
    # bytes
    cfg = write_cfg(tmp_path, ADAPTIVE.replace("phase_budget = 300", "phase_budget = 3000"))
    steps, resumed = [], []
    step = scenario._step
    monkeypatch.setattr(scenario, "_step", lambda *args: steps.append(args) or step(*args))
    run = adaptive.simulate

    def spy(*args, **kwargs):
        before = len(steps)
        rec = run(*args, **kwargs)
        if "resume" in kwargs:
            resumed.append((kwargs["resume"][1], len(steps) - before))
        return rec

    monkeypatch.setattr(adaptive, "simulate", spy)
    out = tmp_path / "out"
    assert run_cli(["run", "adaptive", "--config", cfg, "--out", out]) == 0
    assert "selected style (0, 1) after converging at sample " in capsys.readouterr().out
    assert resumed == [(3000, 0)]
    exp_dir = out / "adaptive"
    assert (exp_dir / "trajectory_enabled.csv").read_bytes() == \
        (exp_dir / "trajectory_disabled.csv").read_bytes()


WEIGHT_STYLES = cli._parse_config(cli._preset_text("sweep_weights")).get("sweep", "styles")


@pytest.mark.parametrize("experiment,minimal,flags", [
    ("invariance", "", ["--trials", 2]),
    ("predict", "", ["--trials", 2]),
    ("sweep", f"[sweep]\nstyles = {WEIGHT_STYLES}\n", []),
    ("adaptive", "", []),
])
def test_code_defaults_match_shipped_presets(tmp_path, experiment, minimal, flags):
    # a config that sets nothing it need not runs on the settings
    # dataclasses' defaults, which must reproduce the shipped preset exactly
    cfg = write_cfg(tmp_path, f"[run]\nexperiment = {experiment}\n\n{minimal}")
    out_code, out_preset = tmp_path / "code", tmp_path / "preset"
    assert run_cli(["run", experiment, "--config", cfg, "--out", out_code] + flags) == 0
    assert run_cli(["run", experiment, "--out", out_preset] + flags) == 0
    csvs = sorted(p.name for p in (out_preset / experiment).glob("*.csv"))
    assert csvs == sorted(p.name for p in (out_code / experiment).glob("*.csv"))
    for name in csvs:
        assert (out_code / experiment / name).read_bytes() == \
            (out_preset / experiment / name).read_bytes(), name


# --- validate ----------------------------------------------------------------

def test_validate_shipped_presets_all_pass(tmp_path, capsys):
    for name in ("predict", "sweep_weights", "sweep_gamma", "adaptive",
                 "invariance"):
        text = cli._preset_text(name)
        p = write_cfg(tmp_path, text, name=f"{name}.cfg")
        assert run_cli(["validate", p]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "of" in out.splitlines()[-1]


def test_validate_reports_failures_but_exits_zero(tmp_path, capsys):
    bad = INVARIANCE_SMALL.replace("r_safe = 5.0", "r_safe = -1.0")
    p = write_cfg(tmp_path, bad)
    assert run_cli(["validate", p]) == 0
    out = capsys.readouterr().out
    assert "FAIL safety" in out
    assert "PASS experiment" in out


# A section header left open, and bytes that are not UTF-8.
UNPARSEABLE = [b"[run\nexperiment = invariance\n", b"\xff\xfe[run]\n"]


def test_validate_unparseable_config_fails_every_rule(tmp_path, capsys):
    p = tmp_path / "exp.cfg"
    for data in UNPARSEABLE:
        p.write_bytes(data)
        assert run_cli(["validate", p]) == 0
        out = capsys.readouterr().out
        assert "FAIL parse: config does not parse" in out
        assert "PASS" not in out
        assert "0 of" in out.splitlines()[-1]


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    assert run_cli(["validate", tmp_path / "absent.cfg"]) == 1
    assert "io error" in capsys.readouterr().err


# --- exit codes ---------------------------------------------------------------

def test_unknown_experiment_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "teleport", "--out", tmp_path])
    assert exc.value.code == 2


def test_unparseable_config_exits_three(tmp_path, capsys):
    p = tmp_path / "exp.cfg"
    for data in UNPARSEABLE:
        p.write_bytes(data)
        assert run_cli(["run", "invariance", "--config", p, "--out", tmp_path]) == 3
        assert "config error: config does not parse" in capsys.readouterr().err


def test_invalid_value_exits_three(tmp_path, capsys):
    bad = INVARIANCE_SMALL.replace("trials = 3", "trials = many")
    p = write_cfg(tmp_path, bad)
    assert run_cli(["run", "invariance", "--config", p, "--out", tmp_path]) == 3
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment,config,trials", [
    ("predict", None, 0),
    ("invariance", None, 0),
    ("invariance", None, -1),
    ("invariance", INVARIANCE_SMALL.replace("trials = 3", "trials = 0"), None),
    pytest.param("predict", PREDICT.replace("mode = analytic", "mode = analytic\nsample_cap = 0"),
                 None, id="predict-sample-cap-0"),
])
def test_nonpositive_trials_exit_three(tmp_path, capsys, experiment, config, trials):
    args = ["run", experiment, "--out", tmp_path]
    if config is not None:
        args += ["--config", write_cfg(tmp_path, config)]
    if trials is not None:
        args += ["--trials", trials]
    assert run_cli(args) == 3
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / experiment).exists()


@pytest.mark.parametrize("n_steps", [10**20, 2**62], ids=["1e20", "2^62"])
@pytest.mark.parametrize("preset, experiment", [
    ("invariance", "invariance"), ("predict", "predict"), ("sweep_gamma", "sweep"),
    ("adaptive", "adaptive")])
def test_a_log_larger_than_numpy_allows_fails_validate_and_exits_three(
        tmp_path, capsys, preset, experiment, n_steps):
    text = re.sub(r"(?m)^n_steps = \d+$", f"n_steps = {n_steps}", cli._preset_text(preset))
    assert f"n_steps = {n_steps}" in text
    p = write_cfg(tmp_path, text)
    assert run_cli(["validate", p]) == 0
    assert "larger than numpy's largest array" in capsys.readouterr().out
    assert run_cli(["run", experiment, "--config", p, "--out", tmp_path / "out"]) == 3
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NEGATIVE_SEED = INVARIANCE_SMALL.replace("experiment = invariance",
                                         "experiment = invariance\nseed = -4")
MISSPELT_SECTION = INVARIANCE_SMALL + "\n[safty]\nr_safe = 50\n"
# without a roster the adaptive run uses the shipped preset's, safety included
ADAPTIVE_NO_ROSTER = "[run]\nexperiment = adaptive\n\n[safety]\nr_safe = 7.0\n"
NAN_DESIRED_SPEED = ADAPTIVE.replace("desired_speed = 3.0", "desired_speed = nan")
# fixed-route placement keys on a ramp vehicle, which nothing would read
RAMP_HEADING = ADAPTIVE.replace("gain = 0.3", "gain = 0.3\nheading = 0 0\nstart_position = nan nan")
# The learner and the style table take no settings, so no experiment reads a
# [ridge] or [policy] section, whatever it sets.
RIDGE_SECTION = PREDICT + "\n[ridge]\nregularizer = 0\n"
POLICY_SECTION = ADAPTIVE + "\n[policy]\nreference_h = 25\n"
# The adaptive observer is always the analytic one, so [adaptive] has no
# hdot_mode key to pick it.
HDOT_MODE = ADAPTIVE.replace("phase_budget = 300", "phase_budget = 300\nhdot_mode = analytic")
# Only the adaptive run sets a vehicle's compatibility row.
COMPAT_KEY = ADAPTIVE.replace("alpha = 1.0 0.0", "alpha = 1.0 0.0\ncompat = object -0.9 0.9")

# A value that the trials would reject only part-way through a run:
# (id, experiment, config, validate rule, error).  Each gives a run row and
# a validate row below.
BAD_VALUES = [
    ("margin-negative", "predict",
     PREDICT.replace("margin_range = 1.0 2.5", "margin_range = -100 -90"), "settings",
     "[predict]: margin_range must be finite and >= 0, got (-100.0, -90.0)"),
    ("closing-nan", "predict",
     PREDICT.replace("closing_range = 0.5 0.9", "closing_range = nan 0.9"), "settings",
     "[predict]: closing_range must be finite and >= 0, got (nan, 0.9)"),
    ("progress-nan", "invariance",
     INVARIANCE_SMALL.replace("progress_range = -90.0 -60.0", "progress_range = nan -60"),
     "settings", "[invariance]: progress_range must be finite, got (nan, -60.0)"),
    ("speed-negative", "invariance",
     INVARIANCE_SMALL.replace("speed_range = 9.0 10.5", "speed_range = -2 -1"), "settings",
     "[invariance]: speed_range must be finite and >= 0, got (-2.0, -1.0)"),
    ("invariance-angle-inf", "invariance",
     INVARIANCE_SMALL.replace("ramp_angle_deg = 8.0", "ramp_angle_deg = inf"), "settings",
     "[invariance]: ramp_angle_deg must be finite, got inf"),
    ("sweep-angle-inf", "sweep",
     SWEEP_HOT.replace("ramp_angle_deg = 8.0", "ramp_angle_deg = inf"), "settings",
     "[sweep]: ramp_angle_deg must be finite, got inf"),
    ("ego-speed-nan", "sweep", SWEEP_HOT.replace("ego_speed = 9.75", "ego_speed = nan"),
     "settings", "[sweep]: ego_speed must be finite and >= 0, got nan"),
    ("accel-bound-negative", "sweep",
     SWEEP_HOT.replace("accel_bound = 5.0", "accel_bound = -1"), "settings",
     "[sweep]: accel_bound must be finite and >= 0, got -1.0"),
    # reversed ranges, which rng.uniform rejects
    ("closing-reversed", "predict",
     PREDICT.replace("closing_range = 0.5 0.9", "closing_range = 0.9 0.5"), "settings",
     "[predict]: closing_range must have low <= high, got (0.9, 0.5)"),
    ("margin-reversed", "predict",
     PREDICT.replace("margin_range = 1.0 2.5", "margin_range = 2.5 1.0"), "settings",
     "[predict]: margin_range must have low <= high, got (2.5, 1.0)"),
    ("speed-reversed", "invariance",
     INVARIANCE_SMALL.replace("speed_range = 9.0 10.5", "speed_range = 10.5 9.0"), "settings",
     "[invariance]: speed_range must have low <= high, got (10.5, 9.0)"),
    ("progress-reversed", "invariance",
     INVARIANCE_SMALL.replace("progress_range = -90.0 -60.0", "progress_range = -60 -90"),
     "settings", "[invariance]: progress_range must have low <= high, got (-60.0, -90.0)"),
    # an r_safe whose square, subtracted from every clearance, overflows
    ("r-safe-square-overflows", "predict", PREDICT.replace("r_safe = 5.0", "r_safe = 1e200"),
     "safety", "[safety]: r_safe must be positive with a finite square, got 1e+200"),
    # finite bounds whose width overflows, which rng.uniform rejects
    ("progress-width-overflows", "invariance",
     INVARIANCE_SMALL.replace("progress_range = -90.0 -60.0", "progress_range = -1e308 1e308"),
     "settings", "[invariance]: progress_range must have a finite width, got (-1e+308, 1e+308)"),
    # the actuator box is built under its vehicle's section, its bounds as floats
    ("accel-min-nan", "adaptive", ADAPTIVE.replace("accel_min = -8.0 -8.0", "accel_min = nan 0", 1),
     "scenario", "[vehicle.lead]: control limits must be finite"),
    ("accel-max-below-min", "adaptive",
     ADAPTIVE.replace("accel_max = 8.0 8.0", "accel_max = -9 -9", 1), "scenario",
     "[vehicle.lead]: u_min must be <= u_max, got (-8.0, -8.0) vs (-9.0, -9.0)"),
    # the road's three numbers
    ("ramp-angle-inf", "adaptive", ADAPTIVE.replace("ramp_angle_deg = 30.0", "ramp_angle_deg = inf"),
     "scenario", "[scenario]: ramp_angle_deg must be finite, got inf"),
    ("merge-x-nan", "adaptive", ADAPTIVE.replace("merge_x = 100.0", "merge_x = nan"),
     "scenario", "[scenario]: merge_x must be finite, got nan"),
    ("lookahead-negative", "adaptive",
     ADAPTIVE.replace("lookahead = 20.0", "lookahead = -20"), "scenario",
     "[scenario]: lookahead must be finite and > 0, got -20.0"),
    ("lookahead-0", "adaptive", ADAPTIVE.replace("lookahead = 20.0", "lookahead = 0"),
     "scenario", "[scenario]: lookahead must be finite and > 0, got 0.0"),
    # an ego past the merge, whose merge step of 0 the run's deltas divide by
    ("ego-past-the-merge", "adaptive",
     ADAPTIVE.replace("start_progress = -40.55", "start_progress = 5.0"), "scenario",
     "adaptive runs need the ego to start before the merge; ego 'ego' starts past it, "
     "at start_progress 5.0"),
    # and its step length and count
    ("scenario-dt-0", "adaptive", ADAPTIVE.replace("dt = 0.01", "dt = 0"),
     "scenario", "[scenario]: dt must be positive and finite, got 0.0"),
    ("scenario-n-steps-0", "adaptive", ADAPTIVE.replace("n_steps = 3000", "n_steps = 0"),
     "scenario", "[scenario]: n_steps must be >= 1, got 0"),
]
BAD_VALUE_ROWS = [row for _, experiment, config, rule, error in BAD_VALUES for row in (
    (["run", experiment, "--config"], config, 3, "err", f"config error: {error}"),
    (["validate"], config, 0, "out", f"FAIL {rule}: {error}"))]
BAD_VALUE_IDS = [i for name, *_ in BAD_VALUES for i in (name, f"validate-{name}")]


# Bad input from a flag, a config key, a config section or a vehicle's
# number: run exits 3 before writing anything, and validate reports a FAIL
# line.
@pytest.mark.parametrize("argv,config,code,stream,message", [
    (["run", "invariance", "--seed", -1, "--config"], INVARIANCE_SMALL, 3, "err", "config error"),
    (["run", "predict", "--seed", -1], None, 3, "err", "config error"),
    (["run", "invariance", "--config"], NEGATIVE_SEED, 3, "err", "config error"),
    (["validate"], NEGATIVE_SEED, 0, "out", "FAIL seed"),
    (["validate"], PREDICT.replace("mode = analytic", "mode = bogus"), 0, "out",
     "FAIL settings: [predict]: unknown observation mode 'bogus'"),
    (["run", "adaptive", "--config"], HDOT_MODE, 3, "err",
     "config error: [adaptive] has no key 'hdot_mode'"),
    (["validate"], HDOT_MODE, 0, "out", "FAIL settings: [adaptive] has no key 'hdot_mode'"),
    (["validate"], PREDICT.replace("mode = analytic", "mode = analytic\nsample_cap = 0"), 0,
     "out", "FAIL settings: [predict]: sample_cap must be >= 1, got 0"),
    (["run", "predict", "--config"], PREDICT.replace("n_steps = 4000", "n_step = 10"), 3,
     "err", "[predict] has no key 'n_step'"),
    (["validate"], PREDICT.replace("n_steps = 4000", "n_step = 10"), 0, "out",
     "FAIL settings: [predict] has no key 'n_step'"),
    (["run", "adaptive", "--config"], ADAPTIVE.replace("accel_min = -8.0 -8.0", "accel_mn = -8.0 -8.0", 1),
     3, "err", "[vehicle.lead] has no key 'accel_mn'"),
    (["validate"], ADAPTIVE.replace("gain = 0.3", "gain = 0.3\nheadng = 1 0"),
     0, "out", "FAIL scenario: [vehicle.lead] has no key 'headng'"),
    (["run", "invariance", "--config"], MISSPELT_SECTION, 3, "err",
     "config error: [safty] is not read by the invariance experiment"),
    (["validate"], MISSPELT_SECTION, 0, "out",
     "FAIL sections: [safty] is not read by the invariance experiment"),
    (["run", "adaptive", "--config"], ADAPTIVE_NO_ROSTER, 3, "err",
     "config error: [safety] is not read by the adaptive experiment"),
    (["validate"], ADAPTIVE_NO_ROSTER, 0, "out",
     "FAIL sections: [safety] is not read by the adaptive experiment"),
    # and validate reports the preset roster's safety, not the unread r_safe 7.0
    (["validate"], ADAPTIVE_NO_ROSTER, 0, "out",
     "roles ['neighbor', 'object', 'ego']; r_safe 5.0, order 2\nFAIL sections"),
    (["run", "predict", "--config"], RIDGE_SECTION, 3, "err",
     "config error: [ridge] is not read by the predict experiment"),
    (["validate"], RIDGE_SECTION, 0, "out",
     "FAIL sections: [ridge] is not read by the predict experiment"),
    (["run", "adaptive", "--config"], POLICY_SECTION, 3, "err",
     "config error: [policy] is not read by the adaptive experiment"),
    (["validate"], POLICY_SECTION, 0, "out",
     "FAIL sections: [policy] is not read by the adaptive experiment"),
    (["run", "adaptive", "--config"], NAN_DESIRED_SPEED, 3, "err",
     "config error: [vehicle.object]: desired_speed must be >= 0, got nan"),
    (["validate"], NAN_DESIRED_SPEED, 0, "out",
     "FAIL scenario: [vehicle.object]: desired_speed must be >= 0, got nan"),
    (["validate"], ADAPTIVE.replace("gain = 0.3", "gain = 0"), 0, "out",
     "FAIL scenario: [vehicle.lead]: gain must be > 0, got 0.0"),
    (["validate"], ADAPTIVE.replace("gain = 0.3", "gain = -0.8"), 0, "out",
     "FAIL scenario: [vehicle.lead]: gain must be > 0, got -0.8"),
    (["run", "adaptive", "--config"], ADAPTIVE.replace("speed = 1.6", "speed = nan"), 3, "err",
     "config error: [vehicle.lead]: speed must be finite, got nan"),
    (["run", "adaptive", "--config"], RAMP_HEADING, 3, "err",
     "config error: [vehicle.lead]: heading is only read on a fixed route, not on 'ramp'"),
    (["validate"], RAMP_HEADING, 0, "out",
     "FAIL scenario: [vehicle.lead]: heading is only read on a fixed route, not on 'ramp'"),
    (["run", "adaptive", "--config"], COMPAT_KEY, 3, "err",
     "config error: [vehicle.ego] has no key 'compat'"),
    (["validate"], COMPAT_KEY, 0, "out", "FAIL scenario: [vehicle.ego] has no key 'compat'"),
] + BAD_VALUE_ROWS, ids=["flag", "flag-preset", "config-key", "validate", "validate-mode",
        "hdot-mode", "validate-hdot-mode", "validate-sample-cap", "misspelt-key",
        "validate-misspelt-key", "misspelt-vehicle-key", "validate-misspelt-vehicle-key", "misspelt-section",
        "validate-misspelt-section", "adaptive-unread-section",
        "validate-adaptive-unread-section", "validate-adaptive-reported-safety",
        "ridge-section", "validate-ridge-section", "policy-section",
        "validate-policy-section",
        "desired-speed-nan", "validate-desired-speed-nan", "validate-gain-0",
        "validate-gain-negative", "speed-nan", "ramp-heading", "validate-ramp-heading",
        "compat-key", "validate-compat-key"]
   + BAD_VALUE_IDS)
def test_negative_seed_is_a_config_error(tmp_path, capsys, argv, config, code, stream, message):
    args = list(argv)
    if config is not None:
        args.append(write_cfg(tmp_path, config))
    if argv[0] == "run":
        args += ["--out", tmp_path]
    assert run_cli(args) == code
    assert message in getattr(capsys.readouterr(), stream)
    assert not any(p.is_dir() for p in tmp_path.iterdir())  # no artifacts written


def test_experiment_mismatch_exits_three(tmp_path, capsys):
    p = write_cfg(tmp_path, INVARIANCE_SMALL)
    assert run_cli(["run", "sweep", "--config", p, "--out", tmp_path]) == 3
    assert "config error" in capsys.readouterr().err


def test_collision_exits_four_with_diagnostic(tmp_path, capsys):
    # a linear barrier weight this hot grazes the bubble in the unyielding
    # scenario: the run completes, artifacts land, and the exit code flags it
    p = write_cfg(tmp_path, SWEEP_HOT)
    out = tmp_path / "out"
    code = run_cli(["run", "sweep", "--config", p, "--out", out])
    assert code == 4
    captured = capsys.readouterr()
    assert "SAFETY" in captured.err
    assert (out / "sweep" / "manifest.json").exists()
    assert (out / "sweep" / "metrics.csv").exists()


@pytest.mark.parametrize("experiment, text", [
    ("invariance", INVARIANCE_SMALL.replace("trials = 3", "trials = 1")),
    ("sweep", SWEEP_HOT.replace("n_steps = 2200", "n_steps = 50")),
    ("adaptive", ADAPTIVE),
    ("predict", PREDICT.replace("trials = 30", "trials = 1").replace("n_steps = 4000",
                                                                     "n_steps = 200")),
], ids=["invariance", "sweep", "adaptive", "predict"])
def test_diverged_run_exits_four_with_diagnostic(tmp_path, capsys, experiment, text):
    # at dt = 1e300 the states overflow and every clearance is NaN, which
    # certifies nothing: the run completes, flags it and writes its artifacts;
    # the adaptive learner observes no sample past the first non-finite state
    assert "dt = 0.01" in text
    p = write_cfg(tmp_path, text.replace("dt = 0.01", "dt = 1e300"))
    out = tmp_path / "out"
    assert run_cli(["run", experiment, "--config", p, "--out", out]) == 4
    assert "SAFETY: collision flagged" in capsys.readouterr().err
    assert (out / experiment / "manifest.json").exists()


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert run_cli(["run", "invariance", "--config", tmp_path / "nope.cfg",
                    "--out", tmp_path]) == 1
    assert "io error" in capsys.readouterr().err


# --- packaging ----------------------------------------------------------------

def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "polycbf", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "validate" in proc.stdout
