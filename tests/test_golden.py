"""Golden artifacts: the CSV bytes of the five shipped runs (invariance,
both sweeps, predict and adaptive) and of the adaptive preset with seven
main-road neighbours added, the fields of one assumption-mismatch batch, the
metrics and full log of one 16-vehicle merge and the full log of one
32-vehicle merge, pinned by sha256.  Every trajectory those runs write must
also read back and rewrite the same bytes.

The CSV digests were recorded before `simulate` and the per-vehicle API were
moved onto shared scalar kernels, the mismatch digest while its trial still
called a per-vehicle filter API (it now builds the object's program from the
kernels `simulate`'s pair loop runs, in a loop of its own, and the digest
holds), and the merge digest while infeasible multi-row programs still went
to an LP solver; the weight sweep and the adaptive run were added before the
filter's candidate scan became a single pass, the 16-vehicle merge's full
log before the two vehicles of a pair shared one computation of their
safety-row terms, the 32-vehicle merge's full log before rows that cannot
bind left the filter's candidate scans, and the prediction trials'
trajectory after one-live-row programs were solved in closed form; the
ten-vehicle adaptive run was added after the adaptive experiment became one
baseline run and one branch resumed from it.  A refactor that changes any
output bit fails here, not only a rerun that disagrees with itself.  No run
calls BLAS or LAPACK, the learner's ridge fits included, so every file each
run writes is pinned and the digests do not depend on the numpy build's
linear-algebra kernels.  The learner's files, the adaptive run's estimates,
metrics and prediction-on trajectory and the prediction run's estimates and
metrics, were pinned at the bytes the fit wrote while it still called LAPACK,
under OpenBLAS's Prescott kernels.
"""
import hashlib
from pathlib import Path

import numpy as np
import pytest

import polycbf
from polycbf import (AlphaVector, RoadGeometry, ScenarioConfig, VehicleSpec, cli,
                     experiment_assumption_mismatch, simulate)

PRESETS = Path(polycbf.__file__).parent / "presets"

GOLDEN = {
    "invariance": (["run", "invariance", "--trials", "3", "--seed", "0"], {
        "metrics.csv": "4932bdc860850026d673cd9439c1b20dc80553cbf9db308853c74ad4f0d44fe3",
        "trajectory.csv": "4357fbd2994d080b6d4867274973d6b282a05146bc5956eb531aa2ee82769b43",
    }),
    "sweep_gamma": (["run", "sweep", "--config", str(PRESETS / "sweep_gamma.cfg"),
                     "--seed", "0"], {
        "distance_style_00.csv": "cea94fbca81b85e4a68e6a145b3ca0d65ec9f6c73971e8e31a8b297d63f1a708",
        "distance_style_01.csv": "62e5609c049a67bb125a793da75e4429b1fdd74e47d88f1f66a41229820eae61",
        "distance_style_02.csv": "ec44c3b030e885057510fe7b43809ad81a838507e42ef1a0411a4a7a0b14224c",
        "distance_style_03.csv": "1d12a26992477a3efd4f4b0ca9bb51a026ad8c921f126b25d970b2384047f5f3",
        "distance_style_04.csv": "4d721f5c5c84dd29e50f5de6de55d116ac34fc48190d1f4817fe233416f31326",
        "distance_style_05.csv": "7cc3f5a4d10ecf2e2d5cb871a79457ce20a54575481f54dba7c1020d49ca7211",
        "distance_style_06.csv": "2bb69f541c836042e5e81cd3c6cb411ca86c913544204122751f896fbf444e1e",
        "metrics.csv": "95fc0b49fa4165fdb8a4c80913dec2a2507e6ecb7a36bc7bfae40c4d74d1fd24",
        "trajectory.csv": "45f6358b35665b32bb9e1c8942457b6aaffd161a23d01374be53095d9c5e1d88",
    }),
    "sweep_weights": (["run", "sweep", "--config", str(PRESETS / "sweep_weights.cfg"),
                       "--seed", "0"], {
        "distance_style_00.csv": "a52949598b036fb36542b0be88be22a6b8e47c662eda016ea32ca507a1e3faef",
        "distance_style_01.csv": "bf8f7e964512ed80de0d355ca5efa463989a9fc87715a63a89cf8772f4243802",
        "distance_style_02.csv": "1b7ce77960b1291da4ad649a1396c751e35c57e327d2d243ab18348e7e804688",
        "distance_style_03.csv": "0e903b67cdb6d9958d9d98b985e31726ca00ef9e65b46f02efa5c4ebcec79d98",
        "distance_style_04.csv": "782803a0bc24acab18e10393c05f2166c6733291f6c7b5cd0c9e429a05db5eac",
        "distance_style_05.csv": "db7f8c0ab13f27308f046263d08e431b413574a7eba690903edaf9446321207c",
        "distance_style_06.csv": "ddc405f2e22242532e5b1d6e0ce5f53fdf51707561f282ecaa0b310cace1b027",
        "metrics.csv": "c379bffa754005469e8f20f90b11f766e42f0412b1de4c13cb639d98daf636d8",
        "trajectory.csv": "e99daf12b02ed408362108f6e5de9c5676532c61e0dc16bb735377ac772a212e",
    }),
    # trajectory_disabled is the fixed-style run, a plain simulate of the
    # preset.
    "adaptive": (["run", "adaptive", "--config", str(PRESETS / "adaptive.cfg"),
                  "--seed", "0"], {
        "estimates.csv": "490f16f4370a92ef6aa6fe8966f027bdf51a7bf18e1b3f00c4cea9024a70b36e",
        "metrics.csv": "5d2976a61976c124e2fe5cc374400a407de8bea85bd8f2693984c3fb4fbd6baf",
        "trajectory_disabled.csv": "678c660732b951b1c52ea4fb738da107e88a1d374608089407ee94c6eaae05eb",
        "trajectory_enabled.csv": "7c3113190710eead56ba79d12d41899629ce94099fb704e5e8f70dec37e0e4fb",
    }),
    # The adaptive preset plus seven main-road neighbours: ten vehicles put
    # simulate on its array stage, with the ego's compatibility row and the
    # branch resumed from the baseline.
    "adaptive_ten": (["run", "adaptive"], {
        "estimates.csv": "490f16f4370a92ef6aa6fe8966f027bdf51a7bf18e1b3f00c4cea9024a70b36e",
        "metrics.csv": "8460b65f799f64a62a3aa448d14363a24d6eecfa7dc038c2a51b86cf9286b893",
        "trajectory_disabled.csv": "d1176f230747057bd9cb5943ee60621aebe7b6d307c949e7d007b7c128663ebf",
        "trajectory_enabled.csv": "64696ba6fc07ce27bbd20618e2f3e6363cc7b4ca0d67350054e8a4297baf9b70",
    }),
    # trajectory is the worst trial's.
    "predict": (["run", "predict", "--trials", "3", "--seed", "0"], {
        "estimates.csv": "894550989ef1d81c356c718ad108daf4e10f4167bfffbfd771769ab7b39abcbe",
        "metrics.csv": "1710feef2643d2e49940b6eb7e60e62bfa6022b2809f4e99fd62772590e5c4f2",
        "trajectory.csv": "00af5f9f64d905f54bc6ecd57ef5bc01e85b6dcd67ea1905b712fa3f71bfeb31",
    }),
}


# Runs whose config is not a shipped preset, by GOLDEN name.
CONFIG_TEXT = {
    "adaptive_ten": cli._preset_text("adaptive") + "".join(
        f"\n[vehicle.n{k}]\nrole = neighbor\nroute = main\n"
        f"start_progress = {-120 - 15 * k}.0\nspeed = 3.0\ndesired_speed = 3.0\n"
        "gain = 0.8\nalpha = 0.5 0.5\naccel_min = -8.0 -8.0\naccel_max = 8.0 8.0\n"
        for k in range(7)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_match_golden_digests(tmp_path, name):
    args, digests = GOLDEN[name]
    if name in CONFIG_TEXT:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(CONFIG_TEXT[name])
        args = args + ["--config", str(cfg)]
    assert cli.main(args + ["--out", str(tmp_path)]) == 0
    out = tmp_path / args[1]
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert found == digests
    # every trajectory reads back and rewrites the same bytes
    for path in sorted(out.glob("trajectory*.csv")):
        again = tmp_path / "again.csv"
        cli.write_trajectory_csv(again, cli.read_trajectory_csv(path, 0.01))
        assert again.read_bytes() == path.read_bytes(), path.name


MISMATCH_DIGEST = "fb2c255f1819c47e2fcf63eae7fa2e1a84717ffa2786b17dda6d8699123aa10b"


def _g17(x) -> str:
    return format(float(x), ".17g")


def test_mismatch_fields_match_golden_digest():
    # one line per trial: both styles, min_h and the two infeasible counts
    trials = experiment_assumption_mismatch(n_trials=8, seed=5)
    text = "\n".join(" ".join([*map(_g17, t.alpha_i.coefficients),
                                *map(_g17, t.alpha_j.coefficients), _g17(t.min_h),
                                str(t.ego_row_infeasible), str(t.object_infeasible)])
                      for t in trials)
    assert hashlib.sha256(text.encode()).hexdigest() == MISMATCH_DIGEST


MERGE_DIGEST = "0e0b90a218eff66ceb19edfef2deb181bdc84175436826f56508e3a57603134c"


def _two_lane_roster(per_lane=8):
    """per_lane ramp and per_lane main-road vehicles on an 8 degree merge,
    spread in speed, desired speed and style; several filters turn
    infeasible with many rows."""
    vehicles = []
    for lane, lead, phase in (("ramp", -40.0, 0), ("main", -42.5, 1)):
        progress = lead
        for k in range(per_lane):
            j = (3 * k + 5 * phase) % 8
            vehicles.append(VehicleSpec(
                name=f"{lane}{k}", route=lane, start_progress=progress,
                speed=9.0 + 0.2 * j, desired_speed=10.5 - 0.2 * j, gain=0.8,
                alpha=AlphaVector((0.1 + 0.11 * j, 0.9 - 0.1 * ((j + 3) % 8)))))
            progress -= 10.0 + 0.5 * ((k + phase) % 5)
    return ScenarioConfig(geometry=RoadGeometry(ramp_angle_deg=8.0),
                          vehicles=tuple(vehicles), dt=0.01, n_steps=90)


def test_many_vehicle_merge_matches_golden_digest():
    rec = simulate(_two_lane_roster())
    m = rec.metrics
    assert m.infeasible_step_count > 0
    lines = [f"{a} {b} {_g17(h)}" for (a, b), h in sorted(m.min_h.items())]
    lines += [f"{name} {step}" for name, step in sorted(m.merge_step.items())]
    lines += [str(m.infeasible_step_count), str(rec.relaxed_steps)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MERGE_DIGEST


MERGE_LOG_DIGEST = "de9d4f3acec2663863d5b45b78a496390eb1a312267675cf91a3f9f8d23f79b1"


def _log_digest(log):
    # every logged bit: states, inputs, pair_h (float64) and feasible (one
    # byte per flag), little-endian, in that order
    data = b"".join(np.ascontiguousarray(a, dtype=dt).tobytes() for a, dt in (
        (log.states, "<f8"), (log.inputs, "<f8"), (log.pair_h, "<f8"), (log.feasible, "?")))
    return hashlib.sha256(data).hexdigest()


def test_many_vehicle_merge_log_matches_golden_digest():
    assert _log_digest(simulate(_two_lane_roster()).log) == MERGE_LOG_DIGEST


# Recorded while every candidate scan still saw every row: at 32 vehicles
# the filters drop more rows that cannot bind than at 16.
MERGE_32_LOG_DIGEST = "393118ad8ac4f8d803c1dfdf1d6653fdd5de7db1240899563cf8b03ccebd2737"


def test_32_vehicle_merge_log_matches_golden_digest():
    rec = simulate(_two_lane_roster(per_lane=16))
    assert rec.metrics.infeasible_step_count > 0
    assert _log_digest(rec.log) == MERGE_32_LOG_DIGEST
