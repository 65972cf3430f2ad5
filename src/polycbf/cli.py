"""Command-line front end: run shipped experiments, write their artifacts,
validate configuration files.

Every run leaves a self-describing output directory: one or more CSV files
plus a manifest.json naming each emitted file with its SHA-256 checksum.
All floats are written with 17 significant digits, so parsing a CSV back
recovers the in-memory values exactly, and rerunning the same config with
the same seed reproduces every CSV byte for byte.

Trajectory CSV columns, in order: step, vehicle, x, y, vx, vy, ux, uy,
feasible, then one ``h:<A>:<B>`` clearance column for every vehicle pair A
before B in roster order, the one layout simulate logs: read_trajectory_csv
rejects any other clearance header, and a twin that write_trajectory_csv
writes in the same pass must log the same vehicles and pairs.  Each step
contributes one row per vehicle; the clearance columns repeat on every row of
the step.

Configs are UTF-8 INI files; bytes that do not decode do not parse.  Each
section is parsed, by field type, into the dataclass that declares its keys
and their defaults (the experiment's *Settings, SafetyConfig, VehicleSpec,
...), so a key left out takes that default; a key that names no field, and
a section the experiment does not read, is a config error.  `run` builds
every object before it writes anything; `validate` reports the same
construction rule by rule.

Exit codes: 0 on success, 1 for an IO error (such as a config file that
cannot be read), 2 for unknown subcommands or experiments (usage error), 3
for a config that cannot be parsed or fails construction, 4 when a run
completes but flags a collision, a non-finite clearance included (artifacts
are still written).

The default output directory is ``polycbf-out`` under the current
directory; set POLYCBF_OUT or pass --out to move it.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .adaptive import AdaptiveSettings, _roster, experiment_prediction_in_loop
from .barrier import AlphaVector, SafetyConfig
from .controller import ControlLimits
from .errors import ConfigurationError, DomainError
from .scenario import (InvarianceSettings, PredictSettings, RoadGeometry, ScenarioConfig,
                       SweepSettings, TrajectoryLog, VehicleSpec, _invariance_records,
                       _sweep_records, experiment_prediction, prediction_trial_setup, simulate)

__all__ = [
    "main",
    "load_preset",
    "read_trajectory_csv",
    "write_trajectory_csv",
    "EXPERIMENTS",
    "OUT_ENV",
]

OUT_ENV = "POLYCBF_OUT"

TRAJECTORY_COLUMNS = ("step", "vehicle", "x", "y", "vx", "vy", "ux", "uy",
                      "feasible")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Config parsing.  Flat INI sections, each read into the dataclass that
# declares its keys and their defaults.  Float lists are whitespace
# separated, style lists separate entries with "|".

class _Config(configparser.ConfigParser):
    """A parsed config that records each section a builder asks for."""

    def __init__(self):
        super().__init__(interpolation=None)
        self.asked: set = set()


def _parse_config(text: str) -> _Config:
    cp = _Config()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config does not parse: {exc}") from exc
    return cp


def _load_config(path: Path) -> _Config:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config does not parse: {path} is not UTF-8: {exc}") from None
    return _parse_config(text)


def _preset_text(name: str) -> str:
    ref = resources.files("polycbf").joinpath("presets").joinpath(f"{name}.cfg")
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigurationError(f"no shipped preset named {name!r}")


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"{where} = {raw!r} is not a number")


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{where} = {raw!r} is not an integer")


def _parse_floats(raw: str, where: str, n: Optional[int] = None) -> Tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"{where}: expected numbers, got {raw!r}")
    if n is not None and len(vals) != n:
        raise ConfigurationError(f"{where}: expected {n} numbers, got {len(vals)}")
    return vals


def _parse_pair(raw: str, where: str) -> Tuple[float, float]:
    return _parse_floats(raw, where, n=2)


def _parse_styles(raw: str, where: str) -> Tuple[AlphaVector, ...]:
    out: List[AlphaVector] = []
    for chunk in raw.split("|"):
        coeffs = _parse_floats(chunk, where)
        if not coeffs:
            raise ConfigurationError(f"{where}: empty style entry")
        out.append(AlphaVector(coeffs))
    return tuple(out)


def _parse_alpha(raw: str, where: str) -> AlphaVector:
    styles = _parse_styles(raw, where)
    if len(styles) != 1:
        raise ConfigurationError(f"{where}: expected a single style")
    return styles[0]


def _optional(parse: Callable[[str, str], object]) -> Callable[[str, str], object]:
    def parse_optional(raw: str, where: str):
        return None if raw.strip().lower() in ("", "none") else parse(raw, where)
    return parse_optional


# Parsers by annotation.  A parameter whose annotation is not listed here (a
# road, a roster, an actuator box) is not a config key.
_PARSERS: Dict[object, Callable[[str, str], object]] = {
    str: lambda raw, where: raw,
    float: _parse_float,
    int: _parse_int,
    Optional[int]: _optional(_parse_int),
    Tuple[float, float]: _parse_pair,
    Optional[Tuple[float, float]]: _optional(_parse_pair),
    AlphaVector: _parse_alpha,
    Tuple[AlphaVector, ...]: _parse_styles,
}


def _section(cp, section: str) -> Dict[str, str]:
    cp.asked.add(section)
    return dict(cp.items(section)) if cp.has_section(section) else {}


@functools.lru_cache(maxsize=None)
def _keys(target) -> Dict[str, Callable[[str, str], object]]:
    """Parser per config key of a dataclass: its fields whose annotation has
    a parser.  Cached, since resolving annotations is slow and the targets
    are fixed module-level names."""
    hints = typing.get_type_hints(target)
    return {f.name: _PARSERS[hints[f.name]] for f in dataclasses.fields(target)
            if hints[f.name] in _PARSERS}


def _split(where: str, raw: Dict[str, str], *targets) -> List[dict]:
    """Typed keyword arguments for each target from one section's raw values.
    Each key goes to the first target that has it as a config key; a key that
    no target takes is an error naming the section and the key."""
    out: List[dict] = [{} for _ in targets]
    for key, text in raw.items():
        for table, kwargs in zip(map(_keys, targets), out):
            if key in table:
                kwargs[key] = table[key](text, f"{where} {key}")
                break
        else:
            raise ConfigurationError(f"{where} has no key {key!r}")
    return out


@contextlib.contextmanager
def _prefixed(where: str):
    """Re-raise a construction error inside the block as a config error that
    names the section."""
    try:
        yield
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _build(cls, where: str, raw: Dict[str, str], **given):
    """Construct cls from a section's raw values; the caller supplies the
    `given` fields, which are therefore not keys.  Keys left out take the
    dataclass's defaults, and construction is the validation."""
    clash = sorted(raw.keys() & given.keys())
    if clash:
        raise ConfigurationError(f"{where} has no key {clash[0]!r}")
    (kwargs,) = _split(where, raw, cls)
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING and f.name not in kwargs and f.name not in given:
            raise ConfigurationError(f"{where} is missing required key {f.name!r}")
    with _prefixed(where):
        return cls(**given, **kwargs)


@dataclass(frozen=True)
class _Run:
    """The [run] section."""

    experiment: str
    seed: int = 0


def _build_run(cp, experiment: Optional[str] = None) -> _Run:
    """[run]; `experiment`, when given, is the default of its experiment key."""
    raw = _section(cp, "run")
    if experiment is not None:
        raw = {"experiment": experiment, **raw}
    return _build(_Run, "[run]", raw)


def _build_settings(cp, experiment: str, trials: Optional[int] = None):
    """The experiment's own section; trials, when given, replaces its trial count."""
    if experiment not in _EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    settings = _build(_EXPERIMENTS[experiment].settings, f"[{experiment}]",
                      _section(cp, experiment))
    if trials is not None and hasattr(settings, "trials"):
        settings = dataclasses.replace(settings, trials=trials)
    return settings


def _build_safety(cp) -> SafetyConfig:
    return _build(SafetyConfig, "[safety]", _section(cp, "safety"))


def _build_vehicle(cp, section: str) -> VehicleSpec:
    where = f"[{section}]"
    name = section[len("vehicle."):]
    if not name or name != name.strip() or any(c in name for c in ":,"):
        raise ConfigurationError(
            f"{where}: vehicle names must be non-empty and free of ':' and ','")
    raw = _section(cp, section)
    if "alpha" not in raw:
        raise ConfigurationError(f"{where} is missing required key 'alpha'")
    # The actuator box is read from two keys of its own.
    lo, hi = raw.pop("accel_min", None), raw.pop("accel_max", None)
    spec = _build(VehicleSpec, where, raw, name=name)
    if lo is None and hi is None:
        return spec
    if lo is None or hi is None:
        raise ConfigurationError(f"{where} needs both accel_min and accel_max")
    box = _parse_pair(lo, f"{where} accel_min"), _parse_pair(hi, f"{where} accel_max")
    with _prefixed(where):
        return dataclasses.replace(spec, limits=ControlLimits(*box))


def _vehicle_sections(cp) -> List[str]:
    return [s for s in cp.sections() if s.startswith("vehicle.")]


def _build_scenario(cp) -> ScenarioConfig:
    # Section order in the file is roster order; the adaptive observer
    # watches the object against the first neighbor, so order matters.
    vehicles = tuple(_build_vehicle(cp, s) for s in _vehicle_sections(cp))
    if not vehicles:
        raise ConfigurationError("config declares no [vehicle.*] sections")
    # [scenario] holds the road's keys and ScenarioConfig's dt and n_steps.
    road, steps = _split("[scenario]", _section(cp, "scenario"), RoadGeometry, ScenarioConfig)
    with _prefixed("[scenario]"):
        cfg = ScenarioConfig(geometry=RoadGeometry(**road), vehicles=vehicles, **steps)
    return dataclasses.replace(cfg, safety=_build_safety(cp))


def _build_adaptive_scenario(cp) -> ScenarioConfig:
    """The adaptive roster from [vehicle.*], [scenario] and [safety], or the
    shipped adaptive preset's (which reads none of them) when no vehicle is
    declared."""
    if not _vehicle_sections(cp):
        return load_preset("adaptive")["scenario"]
    cfg = _build_scenario(cp)
    _roster(cfg)
    return cfg


def _input_steps(cp, experiment: str, trials: Optional[int] = None):
    """(name, build) for each object the experiment reads from the config,
    in build order; `name` is the runner's keyword and the validate rule."""
    steps = [("settings", lambda: _build_settings(cp, experiment, trials))]
    if experiment == "adaptive":
        return steps + [("scenario", lambda: _build_adaptive_scenario(cp))]
    return steps + [("safety", lambda: _build_safety(cp))]


def _check_read(cp, experiment: str) -> None:
    """Reject a section that no builder asked for (after [run] and every
    input step were built), so that a misspelt or misplaced section cannot
    leave its settings silently at their defaults."""
    unread = [s for s in cp.sections() if s not in cp.asked]
    if unread:
        raise ConfigurationError(f"[{unread[0]}] is not read by the {experiment} experiment")


def _build_inputs(cp, experiment: str, trials: Optional[int] = None) -> dict:
    """Every object the experiment reads from the config, keyed as its runner
    takes them, built (and so validated) before anything is written."""
    got = {name: build() for name, build in _input_steps(cp, experiment, trials)}
    _check_read(cp, experiment)
    return got


def load_preset(name: str) -> dict:
    """The objects `polycbf run` builds from the shipped preset `name`
    (predict, sweep_weights, sweep_gamma, adaptive or invariance), keyed as
    the experiment's runner and its library entry point take them: settings,
    then safety, or scenario for adaptive.  So experiment_prediction,
    experiment_behavior_sweep, experiment_prediction_in_loop and
    experiment_invariance each run **load_preset(name) as `polycbf run` does
    (the seed aside)."""
    cp = _parse_config(_preset_text(name))
    return _build_inputs(cp, _build_run(cp).experiment)


# ---------------------------------------------------------------------------
# CSV emission and re-parsing.

def _csv_line(row: Sequence) -> str:
    """row as csv.writer (QUOTE_MINIMAL) writes it, line break included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as one field of a row."""
    return _csv_line([text, ""])[:-2]


class _Artifact(typing.NamedTuple):
    """An emitted file as manifest.json lists it."""
    name: str
    sha256: str
    size: int


class _HashedWrite:
    """Writes bytes to one or more binary files and takes the sha256 and
    length of what it wrote on the way, so no file is read back to hash."""

    def __init__(self, *files, digest=None, size: int = 0):
        self.files = files
        self.digest = hashlib.sha256() if digest is None else digest
        self.size = size

    def write(self, data) -> None:
        """data: bytes, or a contiguous uint8 array."""
        for fh in self.files:
            fh.write(data)
        self.digest.update(data)
        self.size += len(data)

    def fork(self, fh) -> "_HashedWrite":
        """A writer to fh alone whose hash and length go on from this one's."""
        return _HashedWrite(fh, digest=self.digest.copy(), size=self.size)

    def artifact(self, path: Path) -> _Artifact:
        return _Artifact(Path(path).name, self.digest.hexdigest(), self.size)


# Float fields per block of rows that the CSV writers format, lay out, hash
# and write at once.  A block costs csvtext.g17_slots about 65 us on top of
# about 0.08 us a value, so small blocks pay mostly that fixed cost, while a
# block's buffers grow with it.  On a 2-core x86_64 (Python 3.11, numpy
# 2.4): write_trajectory_csv of the adaptive preset's two 3001-step logs
# and of the invariance preset's 1201-step log (best of 18 with the sizes
# interleaved; the range over two such runs), and the peak RSS of one
# `polycbf run adaptive` / `polycbf run invariance --trials 2` process (the
# range over 6 / 3 processes):
#
#   block | adaptive, no style | style selected | invariance | peak RSS adaptive | invariance
#    1024 | 20.9-21.5 ms       | 32.6-33.9 ms   | 5.6-5.9 ms | 36.2-36.4 MB      | 37.7-37.8 MB
#    2048 | 16.9-17.8 ms       | 26.1-26.2 ms   | 4.6-5.0 ms | 36.1-36.5 MB      | 37.7-37.8 MB
#    4096 | 14.7-15.1 ms       | 23.3-24.6 ms   | 4.3-4.4 ms | 36.1-36.4 MB      | 37.8-37.9 MB
#    8192 | 14.2-15.3 ms       | 22.0 ms        | 4.8 ms     | 36.7-37.2 MB      | 38.3 MB
#   16384 | 15.4-15.9 ms       | 23.2-24.6 ms   | 4.4-4.6 ms | 37.9-38.8 MB      | 39.4-39.5 MB
#
# 4096 takes most of the gain without raising the peak RSS; from 8192 up the
# buffers add 0.5-2 MB.  The block size changes no byte of any file.
_TRAJECTORY_BLOCK = 4096


def _block_steps(n_vehicles: int, n_pairs: int) -> int:
    """Steps per block of trajectory rows: _TRAJECTORY_BLOCK float fields,
    the clearances counted on every row, and at least one step."""
    return max(1, _TRAJECTORY_BLOCK // (n_vehicles * (6 + n_pairs)))


def _trajectory_blocks(log: TrajectoryLog, start: int, stop: int) -> Iterator[np.ndarray]:
    """The CSV rows of steps start to stop, _block_steps steps per block.

    A block is one word buffer of rows: the step, ',' and the vehicle's
    quoted name, six float slots, ',' and feasible, one slot per clearance
    and the line break.  One csvtext.g17_slots call formats the block's
    floats, and one compaction drops the buffer's NULs, though not a name's.
    Each block is yielded as a uint8 array of its bytes.
    """
    # Imported here, not with the module: its tables and the numpy code it
    # runs cost a process RSS and start-up time that one writing no CSV
    # need not pay.
    from . import csvtext

    n, n_pairs, n_steps = len(log.names), len(log.pairs), len(log.states)
    names = [("," + _csv_field(name)).encode("utf-8") for name in log.names]
    step_w = -(-len(str(n_steps - 1)) // 4)
    name_w = -(-max(map(len, names)) // 4)
    named = np.array(names, dtype=f"S{4 * name_w}").view(np.uint32).reshape(1, n, name_w)
    name_bytes = np.arange(4 * name_w) < np.array([len(b) for b in names])[:, None]
    flags = csvtext.words([[ord(","), ord("0"), 0, 0], [ord(","), ord("1"), 0, 0]])
    feasible = np.asarray(log.feasible, dtype=bool).view(np.uint8)
    block = _block_steps(n, n_pairs)
    for t in range(start, stop, block):
        m = min(block, stop - t)
        slots = csvtext.g17_slots(np.concatenate(
            (np.concatenate((log.states[t:t + m], log.inputs[t:t + m]), axis=2).ravel(),
             log.pair_h[t:t + m].ravel()), dtype=np.float64))
        w = slots.shape[1]
        pairs = step_w + name_w + 6 * w + 1
        rows = np.empty((m, n, pairs + n_pairs * w + 1), dtype=np.uint32)
        rows[:, :, :step_w] = csvtext.int_words(np.arange(t, t + m), step_w)[:, None]
        rows[:, :, step_w:step_w + name_w] = named
        rows[:, :, step_w + name_w:pairs - 1] = slots[:6 * m * n].reshape(m, n, 6 * w)
        rows[:, :, pairs - 1] = flags[feasible[t:t + m]]
        rows[:, :, pairs:-1] = slots[6 * m * n:].reshape(m, 1, n_pairs * w)
        rows[:, :, -1] = csvtext.NEWLINE
        # Each buffer is freed once used, so none is alive while the block
        # is written or the next one formatted (at 4096 floats a block,
        # keeping them raised the adaptive bench's peak RSS by 0.3 MB), and
        # the block is written and hashed from its array, with no copy.
        del slots
        keep = rows.view(np.uint8) != 0
        keep[:, :, 4 * step_w:4 * (step_w + name_w)] = name_bytes
        text = rows.view(np.uint8)[keep]
        del rows, keep
        yield text


def _write_series_csv(path: Path, header: Sequence[str], values: np.ndarray) -> _Artifact:
    """The header, then one row per value: its index and the value, as
    _write_csv writes them with the value through _g17."""
    from . import csvtext  # imported here: see _trajectory_blocks

    values = np.asarray(values, dtype=np.float64)
    step_w = -(-len(str(max(len(values) - 1, 0))) // 4)
    with open(path, "wb") as fh:
        out = _HashedWrite(fh)
        out.write(_csv_line(header).encode("utf-8"))
        for t in range(0, len(values), _TRAJECTORY_BLOCK):
            slots = csvtext.g17_slots(values[t:t + _TRAJECTORY_BLOCK])
            steps = csvtext.int_words(np.arange(t, t + len(slots)), step_w)
            out.write(csvtext.text(np.concatenate(
                (steps, slots, np.broadcast_to(csvtext.NEWLINE, (len(slots), 1))), axis=1)))
    return out.artifact(path)


def _shared_steps(log: TrajectoryLog, other: TrajectoryLog) -> int:
    """How many leading steps two logs hold bit for bit alike in states,
    inputs, clearances and feasible (as floats), which their CSVs then write
    as the same rows."""
    if other is log:
        return len(log.states)
    m = min(len(log.states), len(other.states))
    differs = np.zeros(m, dtype=bool)
    for name in ("states", "inputs", "pair_h", "feasible"):
        a, b = (np.asarray(getattr(x, name)[:m], dtype=np.float64).view(np.uint64)
                for x in (log, other))
        differs |= (a != b).any(axis=tuple(range(1, a.ndim)))
    return int(np.argmax(differs)) if differs.any() else m


def _trajectory_header(log: TrajectoryLog) -> bytes:
    return _csv_line(list(TRAJECTORY_COLUMNS) + [
        f"h:{log.names[i]}:{log.names[j]}" for i, j in log.pairs]).encode("utf-8")


def write_trajectory_csv(path: Path, log: TrajectoryLog,
                         twin: Optional[Tuple[Path, TrajectoryLog]] = None) -> List[_Artifact]:
    """One row per (step, vehicle); clearances repeat on each row of a step.

    The rows are formatted in blocks of about _TRAJECTORY_BLOCK floats by
    csvtext.g17_slots, which writes '%.17g' exactly on whole arrays, and the
    file is never held in memory whole.  The bytes are those of csv.writer
    with every float through _g17, whatever the block size.  Each block is
    hashed as it is written, and the file's manifest entry is returned.

    twin=(twin_path, twin_log) writes twin_log's CSV to twin_path in the same
    pass: the header and the rows of the leading steps the two logs hold bit
    for bit alike are formatted and hashed once and written to both files,
    and the twin's hash goes on from a copy of the shared one.  The twin must
    log the same vehicles and pairs as log, or ConfigurationError is raised
    before any file is opened.  The entries are returned in the order path,
    twin_path.
    """
    if twin is not None and (twin[1].names, twin[1].pairs) != (log.names, log.pairs):
        raise ConfigurationError(f"{twin[0]}: a twin trajectory must log the vehicles "
                                 f"{log.names} and pairs {log.pairs} of {path}")
    logs = [(path, log)] + ([twin] if twin is not None else [])
    shared = 0 if twin is None else _shared_steps(log, twin[1])
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p, _ in logs]
        common = _HashedWrite(*files)
        common.write(_trajectory_header(log))
        for block in _trajectory_blocks(log, 0, shared):
            common.write(block)
        sinks = [common.fork(fh) for fh in files]
        for sink, (_, lg) in zip(sinks, logs):
            for block in _trajectory_blocks(lg, shared, len(lg.states)):
                sink.write(block)
    return [sink.artifact(p) for sink, (p, _) in zip(sinks, logs)]


def read_trajectory_csv(path: Path, dt: float) -> TrajectoryLog:
    """Rebuild a TrajectoryLog from its CSV; exact because floats are written
    with 17 significant digits.  dt is not stored in the file (the manifest's
    config carries it), so the caller supplies it.  The clearance columns
    must be the ones simulate logs, h:<A>:<B> for every pair A before B in
    the order the first step's rows name the vehicles; any other clearance
    header raises ConfigurationError naming the file, the columns found and
    the columns expected.  A malformed header or body row raises it naming
    its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: not UTF-8: {exc}") from None
    if not rows:
        raise ConfigurationError(f"{path}: empty trajectory file")
    header, body = rows[0], rows[1:]
    base = list(header[:len(TRAJECTORY_COLUMNS)])
    if base != list(TRAJECTORY_COLUMNS):
        raise ConfigurationError(f"{path}: unexpected columns {base}")
    for k, row in enumerate(body):
        if len(row) != len(header):
            raise ConfigurationError(f"{path}: line {k + 2} has {len(row)} fields, "
                                     f"the header {len(header)}")
    names: List[str] = []
    for row in body:
        if row[1] in names:
            break
        names.append(row[1])
    n_veh = len(names)
    if n_veh == 0 or len(body) % n_veh != 0:
        raise ConfigurationError(f"{path}: ragged trajectory body")
    n_rows = len(body) // n_veh
    columns = header[len(TRAJECTORY_COLUMNS):]
    # Taken by position, because names with ":" can make two columns read alike.
    pairs = [(i, j) for i in range(n_veh) for j in range(i + 1, n_veh)]
    expected = [f"h:{names[i]}:{names[j]}" for i, j in pairs]
    if columns != expected:
        raise ConfigurationError(f"{path}: clearance columns {columns}, expected "
                                 f"{expected} for the vehicles {names}")
    states = np.zeros((n_rows, n_veh, 4))
    inputs = np.zeros((n_rows, n_veh, 2))
    pair_h = np.zeros((n_rows, len(pairs)))
    feasible = np.ones((n_rows, n_veh), dtype=bool)
    for k, row in enumerate(body):
        t, v = k // n_veh, k % n_veh
        try:
            step = int(row[0])
            values = [float(c) for c in row[2:8] + row[9:]]
        except ValueError as exc:
            raise ConfigurationError(f"{path}: line {k + 2}: {exc}") from None
        if step != t or row[1] != names[v]:
            raise ConfigurationError(f"{path}: rows out of order at line {k + 2}")
        if row[8] not in ("0", "1"):
            raise ConfigurationError(f"{path}: line {k + 2}: feasible must be 0 or 1, "
                                     f"got {row[8]!r}")
        states[t, v] = values[0:4]
        inputs[t, v] = values[4:6]
        feasible[t, v] = row[8] == "1"
        if v == 0:
            pair_h[t] = values[6:]
    return TrajectoryLog(names=tuple(names), pairs=tuple(pairs), dt=dt,
                         states=states, inputs=inputs, pair_h=pair_h,
                         feasible=feasible)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> _Artifact:
    """The header, then the rows, as csv.writer writes them (None as an
    empty field); the text is built in memory, then hashed and written."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(list(header))
    for row in rows:
        w.writerow(list(row))
    with open(path, "wb") as fh:
        out = _HashedWrite(fh)
        out.write(buf.getvalue().encode("utf-8"))
    return out.artifact(path)


def _write_manifest(out_dir: Path, experiment: str, config_label: str,
                    seed: int, files: Sequence[_Artifact]) -> Path:
    """manifest.json of the run, from the entries the writers returned."""
    entries = [{"name": f.name, "sha256": f.sha256, "bytes": f.size}
               for f in sorted(files, key=lambda f: f.name)]
    doc = {
        "experiment": experiment,
        "config": config_label,
        "seed": seed,
        "out_dir": str(out_dir),
        "files": entries,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns (stdout lines, the manifest entries of the
# files it wrote, collision diagnostic or None).

def _tighter(worst, index: int, key: float, record):
    """worst, or (index, key, record) when key is strictly smaller: the rule
    of min(), so the first of equal keys stays and a NaN key neither
    replaces nor, once first, is replaced."""
    return (index, key, record) if worst is None or key < worst[1] else worst


def _run_predict(out_dir: Path, seed: int, settings: PredictSettings,
                 safety: SafetyConfig):
    q = safety.q
    summary = experiment_prediction(settings, safety, seed)

    header = (["trial"] + [f"truth_{k}" for k in range(q)]
              + [f"estimate_{k}" for k in range(q)]
              + ["rmse", "converged_at", "n_admitted"])
    rows = []
    est_rows = []
    for idx, t in enumerate(summary.trials):
        rows.append([idx] + [_g17(c) for c in t.truth.coefficients]
                    + [_g17(c) for c in t.estimate_alpha]
                    + [_g17(t.rmse), t.converged_at, t.n_admitted])
        for s, est in enumerate(t.estimate_series):
            est_rows.append([idx, s] + [_g17(c) for c in est])
    files = [_write_csv(out_dir / "metrics.csv", header, rows),
             _write_csv(out_dir / "estimates.csv",
                        ["trial", "sample_index"] + [f"alpha_{k}" for k in range(q)], est_rows)]

    # Trajectory of the hardest trial (largest estimation error).  It is run
    # again because its experiment run stopped once the learner converged.
    worst = max(range(settings.trials), key=lambda k: summary.trials[k].rmse)
    _, cfg = prediction_trial_setup(worst, settings, safety, seed)
    rec = simulate(cfg)
    files += write_trajectory_csv(out_dir / "trajectory.csv", rec.log)

    lines = [
        f"predict: {settings.trials} trials, mode {settings.mode}",
        f"mean rmse {summary.mean_rmse:.6e}, worst rmse {summary.trials[worst].rmse:.6e} (trial {worst})",
    ]
    conv = summary.max_convergence_samples
    lines.append("all trials converged within %d admitted samples" % conv
                 if conv is not None else "not every trial converged")
    diag = None
    if rec.metrics.collision:
        diag = f"collision flagged in the trajectory of trial {worst}"
    return lines, files, diag


def _run_sweep(out_dir: Path, seed: int, settings: SweepSettings, safety: SafetyConfig):
    entries = []
    collided = []
    tightest = None  # (style, min_h, record)
    for idx, (entry, rec) in enumerate(_sweep_records(settings, safety)):
        entries.append(entry)
        if rec.metrics.collision:
            collided.append(idx)
        tightest = _tighter(tightest, idx, entry.min_h, rec)

    q = max(len(s.coefficients) for s in settings.styles)
    header = (["style_index"] + [f"alpha_{k}" for k in range(q)]
              + ["min_distance", "min_h", "ego_merge_step", "other_merge_step",
                 "merge_order", "infeasible_steps"])
    rows = []
    files = []
    width = max(2, len(str(len(entries) - 1)))
    for idx, e in enumerate(entries):
        coeffs = list(e.alpha.coefficients) + [0.0] * (q - len(e.alpha.coefficients))
        rows.append([idx] + [_g17(c) for c in coeffs]
                    + [_g17(e.min_distance), _g17(e.min_h),
                       e.ego_merge_step, e.other_merge_step,
                       e.merge_order or "", e.infeasible_step_count])
        files.append(_write_series_csv(out_dir / f"distance_style_{idx:0{width}d}.csv",
                                       ["step", "distance"], e.distance))
    files.append(_write_csv(out_dir / "metrics.csv", header, rows))

    # Trajectory of the tightest style (smallest clearance margin).
    worst, worst_h, rec = tightest
    files += write_trajectory_csv(out_dir / "trajectory.csv", rec.log)

    orders = "".join((e.merge_order or "?")[0].upper() for e in entries)
    lines = [
        f"sweep: {len(entries)} styles, merge orders {orders}",
        "min distance per style: " + ", ".join("%.3f" % e.min_distance for e in entries),
        f"tightest clearance {worst_h:.6f} (style {worst})",
    ]
    diag = f"collision flagged for style indices {collided}" if collided else None
    return lines, files, diag


def _run_adaptive(out_dir: Path, seed: int, settings: AdaptiveSettings,
                  scenario: ScenarioConfig):
    comparison = experiment_prediction_in_loop(scenario, settings)
    enabled, disabled = comparison.enabled, comparison.disabled
    q = scenario.safety.q
    # The selected preset's order need not be [safety] q: pad to the longer.
    width = max(q, len(enabled.selected_alpha.coefficients) if enabled.selected_alpha else 0)

    names = [v.name for v in scenario.vehicles]
    header = (["run", "prediction_enabled", "collision", "infeasible_steps", "min_h"]
              + [f"merge_step:{n}" for n in names]
              + ["ego_merge_step", "overall_step", "converged_at"]
              + [f"selected_alpha_{k}" for k in range(width)])
    rows = []
    for label, record, ego_step, overall in (
            ("enabled", enabled, comparison.ego_step_enabled, comparison.overall_enabled),
            ("disabled", disabled, comparison.ego_step_disabled, comparison.overall_disabled)):
        m = record.trial.metrics
        selected = record.selected_alpha.coefficients if record.selected_alpha else ()
        rows.append([label, int(record.prediction_enabled), int(m.collision),
                     m.infeasible_step_count, _g17(min(m.min_h.values()))]
                    + [m.merge_step[n] for n in names]
                    + [ego_step, overall, record.converged_at]
                    + [_g17(c) for c in selected] + [""] * (width - len(selected)))
    files = [_write_csv(out_dir / "metrics.csv", header, rows)]

    est_rows = [[k, step] + [_g17(c) for c in est.alpha_hat.coefficients]
                + [_g17(c) for c in est.raw]
                for k, (step, est) in enumerate(zip(enabled.sample_steps,
                                                    enabled.estimate_history))]
    files.append(_write_csv(out_dir / "estimates.csv",
                            ["sample_index", "step"] + [f"alpha_{k}" for k in range(q)]
                            + [f"raw_{k}" for k in range(q)],
                            est_rows))
    files += write_trajectory_csv(out_dir / "trajectory_enabled.csv", enabled.trial.log,
                                  twin=(out_dir / "trajectory_disabled.csv", disabled.trial.log))

    lines = [
        "adaptive: ego merge step %d with prediction vs %d without (%.1f%% earlier)"
        % (comparison.ego_step_enabled, comparison.ego_step_disabled,
           comparison.ego_delta_pct),
        "overall completion %d vs %d (%.1f%% earlier)"
        % (comparison.overall_enabled, comparison.overall_disabled,
           comparison.overall_delta_pct),
    ]
    if enabled.selected_alpha is not None:
        style = ", ".join(_g17(c) for c in enabled.selected_alpha.coefficients)
        if enabled.converged_at is not None:
            lines.append(f"selected style ({style}) after converging at sample "
                         f"{enabled.converged_at}")
        else:
            lines.append(f"selected style ({style}) at the phase budget from an "
                         "unconverged estimate; no compatibility row")
    else:
        budget = settings.phase_budget
        cause = (f"the run ended at step {scenario.n_steps}, before the phase budget {budget}"
                 if scenario.n_steps < budget else f"no sample was admitted by step {budget}")
        lines.append(f"no style selected: {cause}; the ego kept its configured style, "
                     "so the baseline is the same trial")
    diag = None
    flagged = [label for label, record in (("enabled", enabled), ("disabled", disabled))
               if record.trial.metrics.collision]
    if flagged:
        diag = f"collision flagged in {' and '.join(flagged)} run"
    return lines, files, diag


def _run_invariance(out_dir: Path, seed: int, settings: InvarianceSettings,
                    safety: SafetyConfig):
    metrics_list = []
    rows = []
    tightest = None  # (trial, min_h, record)
    for idx, rec in enumerate(_invariance_records(settings, safety, seed)):
        m = rec.metrics
        metrics_list.append(m)
        h = min(m.min_h.values())
        tightest = _tighter(tightest, idx, h, rec)
        rows.append([idx, int(m.collision), m.infeasible_step_count, _g17(h),
                     m.merge_step.get("ego"), m.merge_step.get("other")])
    files = [_write_csv(out_dir / "metrics.csv", ["trial", "collision", "infeasible_steps",
                                                  "min_h", "merge_step:ego", "merge_step:other"],
                        rows)]

    worst, worst_h, rec = tightest
    files += write_trajectory_csv(out_dir / "trajectory.csv", rec.log)

    n_collisions = sum(m.collision for m in metrics_list)
    total_inf = sum(m.infeasible_step_count for m in metrics_list)
    lines = [
        f"invariance: {settings.trials} randomized trials, {n_collisions} collisions",
        f"worst clearance {worst_h:.6f} (trial {worst}), "
        f"{total_inf} infeasible filter steps in total",
    ]
    diag = None
    if n_collisions:
        bad = [i for i, m in enumerate(metrics_list) if m.collision]
        diag = f"collision flagged in trials {bad}"
    return lines, files, diag


class _Experiment(typing.NamedTuple):
    settings: type    # its config section's dataclass
    preset: str       # the shipped preset `run` reads without --config
    run: Callable     # the runner: (out_dir, seed, **inputs) -> (lines, artifacts, diag)
    seeded: bool      # whether the runner draws from the seed


_EXPERIMENTS = {
    "predict": _Experiment(PredictSettings, "predict", _run_predict, True),
    "sweep": _Experiment(SweepSettings, "sweep_weights", _run_sweep, False),
    "adaptive": _Experiment(AdaptiveSettings, "adaptive", _run_adaptive, False),
    "invariance": _Experiment(InvarianceSettings, "invariance", _run_invariance, True),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _cmd_run(args) -> int:
    experiment = args.experiment
    spec = _EXPERIMENTS[experiment]
    if args.config is not None:
        config_path = Path(args.config)
        cp = _load_config(config_path)
        config_label = str(args.config)
    else:
        cp = _parse_config(_preset_text(spec.preset))
        config_label = f"preset:{spec.preset}"

    declared = _build_run(cp, experiment)
    if declared.experiment != experiment:
        raise ConfigurationError(f"config declares experiment {declared.experiment!r} "
                                 f"but {experiment!r} was requested")
    seed = args.seed if args.seed is not None else declared.seed
    if seed < 0:
        raise ConfigurationError(f"seed = {seed} is not >= 0")
    if args.trials is not None and args.trials < 1:
        raise ConfigurationError(f"--trials = {args.trials} is not >= 1")
    inputs = _build_inputs(cp, experiment, args.trials)
    if args.trials is not None and not hasattr(inputs["settings"], "trials"):
        print(f"note: --trials has no effect on {experiment}", file=sys.stderr)
    if args.seed is not None and not spec.seeded:
        print(f"note: --seed has no effect on {experiment}", file=sys.stderr)

    base = Path(args.out) if args.out is not None else \
        Path(os.environ.get(OUT_ENV, "polycbf-out"))
    out_dir = base / experiment
    out_dir.mkdir(parents=True, exist_ok=True)

    lines, files, diag = spec.run(out_dir, seed, **inputs)

    manifest = _write_manifest(out_dir, experiment, config_label, seed, files)
    for line in lines:
        print(line)
    print(f"wrote {len(files) + 1} files to {out_dir}")
    if diag is not None:
        print(f"SAFETY: {diag}; see {manifest}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# validate: per-rule diagnostics, always exits 0 unless the file is unreadable.

# What a passing input step reports.
_DESCRIBE = {
    "settings": repr,
    "safety": lambda safety: f"r_safe {safety.r_safe}, order {safety.q}",
    "scenario": lambda cfg: (
        f"merge at x={cfg.geometry.merge_x:g}, lookahead {cfg.geometry.lookahead:g}; "
        f"roster {[v.name for v in cfg.vehicles]} with roles {[v.role for v in cfg.vehicles]}; "
        f"r_safe {cfg.safety.r_safe}, order {cfg.safety.q}"),
}


def _validate(cp) -> List[Tuple[str, bool, str]]:
    """(rule, passed, detail) for [run], then for each input step of the
    declared experiment, built with the code `run` uses, then for sections
    that no step read."""
    try:
        declared = _build_run(cp)
        if declared.experiment not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {declared.experiment!r}")
    except (ConfigurationError, DomainError) as exc:
        return [("experiment", False, str(exc))]
    experiment, seed = declared.experiment, declared.seed
    results = [("experiment", True, repr(experiment)),
               ("seed", seed >= 0, f"seed {seed}" if seed >= 0 else
                f"[run] seed = {seed} is not >= 0")]
    steps = _input_steps(cp, experiment)
    got = {}
    for name, build in steps:
        try:
            got[name] = build()
            results.append((name, True, _DESCRIBE[name](got[name])))
        except (ConfigurationError, DomainError) as exc:
            results.append((name, False, str(exc)))
    # A step that failed may have stopped before asking for all its sections.
    if len(got) < len(steps):
        results.append(("sections", False, "not evaluated: an input did not build"))
        return results
    try:
        _check_read(cp, experiment)
        results.append(("sections", True, f"the {experiment} experiment reads every section"))
    except ConfigurationError as exc:
        results.append(("sections", False, str(exc)))
    return results


def _cmd_validate(args) -> int:
    try:
        cp = _load_config(Path(args.config))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        results = [("parse", False, str(exc))]
    else:
        results = [("parse", True, "well-formed")] + _validate(cp)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    n_fail = sum(1 for _, ok, _ in results if not ok)
    print(f"{len(results) - n_fail} of {len(results)} rules passed")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycbf",
        description="Safety-filtered merging experiments: run shipped presets "
                    "or your own configs, and validate config files.",
        epilog=f"Output directory: --out, else ${OUT_ENV}, else ./polycbf-out. "
               "Each run writes CSVs plus a manifest.json with checksums.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write its artifacts")
    run.add_argument("experiment", choices=EXPERIMENTS,
                     help="which experiment to run")
    run.add_argument("--config", help="config file (defaults to the shipped preset)")
    run.add_argument("--seed", type=int,
                     help="override the config's seed (predict and invariance)")
    run.add_argument("--trials", type=int,
                     help="override the trial count (predict and invariance)")
    run.add_argument("--out", help="output directory root")

    val = sub.add_parser("validate", help="check a config file rule by rule")
    val.add_argument("config", help="config file to check")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_validate(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
