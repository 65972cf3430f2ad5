"""Shared test oracles, implemented independently of the library code paths."""
import csv
import io
import itertools
import math

import numpy as np


def qp_oracle(u_nom, lo, hi, rows, feas_tol=1e-9):
    """Exhaustive KKT solve of min ||u - u_nom||^2 s.t. a.u <= b plus box.

    Enumerates every active set of size 0, 1, or 2 (box faces included as
    generic rows), solves the stationarity system for each, keeps feasible
    candidates, and returns (u, objective) for the best one.  Returns None
    when no candidate is feasible, i.e. the program itself is infeasible.
    Rows of tiny norm can push a candidate past the float range; its
    arithmetic runs without warnings and a non-finite candidate is
    infeasible.
    """
    A = [np.asarray(a, dtype=np.float64) for a, _ in rows]
    bs = [float(b) for _, b in rows]
    A += [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
          np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    bs += [float(hi[0]), -float(lo[0]), float(hi[1]), -float(lo[1])]
    m = len(A)
    p = np.asarray(u_nom, dtype=np.float64)

    def feasible(u):
        return np.isfinite(u).all() and all(
            float(A[k] @ u) - bs[k] <= feas_tol * max(1.0, abs(bs[k])) for k in range(m))

    with np.errstate(all="ignore"):
        candidates = [p]
        for i in range(m):
            nrm2 = float(A[i] @ A[i])
            if nrm2 <= 0.0:
                continue
            # one active row: u = p - (lam/2) a_i with a_i.u = b_i
            lam = 2.0 * (float(A[i] @ p) - bs[i]) / nrm2
            candidates.append(p - 0.5 * lam * A[i])
        for i, j in itertools.combinations(range(m), 2):
            M = np.array([A[i], A[j]])
            det = float(np.linalg.det(M))
            scale = max(1.0, float(np.abs(M).max()) ** 2)
            if abs(det) <= 1e-12 * scale:
                continue
            candidates.append(np.linalg.solve(M, np.array([bs[i], bs[j]])))

        best = None
        best_obj = np.inf
        for u in candidates:
            if not feasible(u):
                continue
            obj = float((u - p) @ (u - p))
            if obj < best_obj:
                best_obj = obj
                best = u
    if best is None:
        return None
    return best, best_obj


def enumeration_oracle(ubar_x, ubar_y, rows, feas_tol=1e-9):
    """Frozen reference for the filter's candidate scan, for bit-for-bit checks.

    rows are (ax, ay, b) triples including the box faces.  Generates the
    projections onto each line, then the intersections of each pair (i, j),
    i < j, scores them all, sorts by (objective, generation index) and returns
    the first that satisfies every row as (ux, uy, objective), or None.
    The nominal point is returned at once when it satisfies every row.
    """
    checks = [(ax, ay, b, feas_tol * max(1.0, abs(b))) for ax, ay, b in rows]

    def feasible(ux, uy):
        return not any(ax * ux + ay * uy - b > tol for ax, ay, b, tol in checks)

    if feasible(ubar_x, ubar_y):
        return ubar_x, ubar_y, 0.0
    candidates = []
    for ax, ay, b in rows:
        nrm2 = ax * ax + ay * ay
        if nrm2 <= 0.0:
            continue
        t = (ax * ubar_x + ay * ubar_y - b) / nrm2
        candidates.append((ubar_x - t * ax, ubar_y - t * ay))
    for (ax1, ay1, b1), (ax2, ay2, b2) in itertools.combinations(rows, 2):
        det = ax1 * ay2 - ay1 * ax2
        scale = math.sqrt((ax1 * ax1 + ay1 * ay1) * (ax2 * ax2 + ay2 * ay2))
        if scale == 0.0 or abs(det) <= 1e-14 * scale:
            continue
        candidates.append(((b1 * ay2 - b2 * ay1) / det, (ax1 * b2 - ax2 * b1) / det))
    scored = []
    for index, (ux, uy) in enumerate(candidates):
        dxu = ux - ubar_x
        dyu = uy - ubar_y
        obj = dxu * dxu + dyu * dyu
        if math.isfinite(obj):
            scored.append((obj, index, ux, uy))
    scored.sort()
    for obj, _, ux, uy in scored:
        if feasible(ux, uy):
            return ux, uy, obj
    return None


def safety_row_oracle(dx_x, dx_y, dv_x, dv_y, uo_x, uo_y, h, coeffs, dt):
    """Frozen reference for one safety row, for bit-for-bit checks.

    dx, dv and h are ego minus other, uo the neighbour's assumed acceleration.
    Returns (ax, ay, b) for a.u_ego <= b with a = -2 dx dt and
    b = 2 dx.dv - 2 dx.uo dt + sum_k coeffs[k] h^(2k+1), in the order the
    filter evaluated them before each pair's terms were shared.  A zero
    coefficient adds nothing to the margin, so an overflowed power of h
    contributes no 0 * inf = NaN.
    """
    margin = 0.0
    term = h
    for c in coeffs:
        if c != 0.0:
            margin += c * term
        term *= h * h
    b = 2.0 * (dx_x * dv_x + dx_y * dv_y) - 2.0 * (dx_x * uo_x + dx_y * uo_y) * dt + margin
    return -2.0 * dx_x * dt, -2.0 * dx_y * dt, b


def random_box_qp(rng, n_rows_max=3):
    """One random 2-var QP in the shape the filter produces: box plus rows."""
    lo = -rng.uniform(0.5, 6.0, 2)
    hi = rng.uniform(0.5, 6.0, 2)
    u_nom = rng.uniform(-8.0, 8.0, 2)
    rows = []
    for _ in range(int(rng.integers(0, n_rows_max + 1))):
        a = rng.uniform(-1.0, 1.0, 2)
        while float(a @ a) < 0.01:
            a = rng.uniform(-1.0, 1.0, 2)
        rows.append((a, float(rng.uniform(-3.0, 3.0))))
    return u_nom, lo, hi, rows


def configs_equal(a, b):
    """Structural equality for dataclass trees holding numpy arrays."""
    import dataclasses

    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return all(configs_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(configs_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(configs_equal(a[k], b[k]) for k in a)
    return a == b


def minimax_oracle(lo, hi, rows, feas_tol=1e-9):
    """Brute-force min over the box of max_i (a_i.u - b_i).

    The LP min t s.t. a_i.u - t <= b_i and lo <= u <= hi attains its optimum
    at a vertex of (ux, uy, t): three linearly independent active constraints
    among the rows and the four box faces.  Every triple is solved, and the
    feasible vertex with the smallest t wins.  Returns (u, t).  As in
    qp_oracle, the arithmetic runs without warnings and a non-finite vertex
    is infeasible.
    """
    G = [[float(a[0]), float(a[1]), -1.0] for a, _ in rows]
    h = [float(b) for _, b in rows]
    G += [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
    h += [float(hi[0]), -float(lo[0]), float(hi[1]), -float(lo[1])]
    G = np.array(G)
    h = np.array(h)
    tol = feas_tol * np.maximum(1.0, np.abs(h))
    best = None
    with np.errstate(all="ignore"):
        for triple in itertools.combinations(range(len(h)), 3):
            M = G[list(triple)]
            if abs(np.linalg.det(M)) <= 1e-12 * max(1.0, float(np.abs(M).max())) ** 3:
                continue
            z = np.linalg.solve(M, h[list(triple)])
            if (np.isfinite(z).all() and np.all(G @ z - h <= tol)
                    and (best is None or z[2] < best[2])):
                best = z
    return best[:2], float(best[2])


def ridge_oracle(samples, regularizer):
    """Ridge solution of (H^T H + r I) a = H^T (-hdot) over (hdot, basis)
    pairs, the sums taken in sample order from zero.  Returns (clamped, raw):
    the raw solution as a float tuple and its projection onto a >= 0.  None
    when the regularizer is 0 and H has rank below its column count."""
    q = len(samples[0][1])
    if regularizer == 0.0 and np.linalg.matrix_rank(np.array([b for _, b in samples])) < q:
        return None
    gram = np.zeros((q, q))
    moment = np.zeros(q)
    for hdot_obs, b in samples:
        phi = np.asarray(b, dtype=np.float64)
        gram += np.outer(phi, phi)
        moment += (-hdot_obs) * phi
    raw = tuple(float(v) for v in np.linalg.solve(gram + regularizer * np.eye(q), moment))
    return tuple(max(v, 0.0) for v in raw), raw


def trajectory_csv_oracle(log) -> bytes:
    """A TrajectoryLog's CSV as csv.writer writes it, one row per (step,
    vehicle), every float through format(float(x), ".17g")."""
    def g17(x):
        return format(float(x), ".17g")

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["step", "vehicle", "x", "y", "vx", "vy", "ux", "uy", "feasible"]
               + [f"h:{log.names[i]}:{log.names[j]}" for i, j in log.pairs])
    for t in range(log.states.shape[0]):
        hvals = [g17(log.pair_h[t, p]) for p in range(len(log.pairs))]
        for v, name in enumerate(log.names):
            w.writerow([t, name] + [g17(x) for x in log.states[t, v]]
                       + [g17(u) for u in log.inputs[t, v]]
                       + [int(bool(log.feasible[t, v]))] + hvals)
    return buf.getvalue().encode("utf-8")


def result_bits(result):
    """A result tuple with each float as its hex form, so NaN and the sign of
    zero compare exactly; None stays None."""
    if result is None:
        return None
    return tuple(x.hex() if isinstance(x, float) else x for x in result)


def frozen_solve_scalar(ubar_x, ubar_y, lo_x, lo_y, hi_x, hi_y, rows, feas_tol=1e-9):
    """Frozen copy of the filter's scalar solve as it was before rows that
    cannot bind left the candidate scan, for bit-for-bit checks.

    rows are (ax, ay, b) triples excluding the box.  Every scan sees every
    row; the arithmetic and the order of every candidate are the filter's.
    Returns (ux, uy, feasible, objective, max_violation).
    """
    def admits(rows, ux, uy):
        for ax, ay, b in rows:
            v = ax * ux + ay * uy - b
            if not v <= 0.0 and not v <= feas_tol * max(1.0, abs(b)):
                return False
        return True

    def scan(rows, nominal_cut=False):
        if not nominal_cut and admits(rows, ubar_x, ubar_y):
            return ubar_x, ubar_y, 0.0
        best, best_obj, nrms = None, math.inf, []
        for ax, ay, b in rows:
            nrm = ax * ax + ay * ay
            nrms.append(nrm)
            if nrm <= 0.0:
                continue
            t = (ax * ubar_x + ay * ubar_y - b) / nrm
            ux = ubar_x - t * ax
            uy = ubar_y - t * ay
            dxu = ux - ubar_x
            dyu = uy - ubar_y
            obj = dxu * dxu + dyu * dyu
            if obj < best_obj and admits(rows, ux, uy):
                best, best_obj = (ux, uy), obj
        live = range(len(rows))
        if best is not None:
            reach = math.sqrt(best_obj) * (1.0 + 1e-12) + 1e-140
            live = []
            for k, (ax, ay, b) in enumerate(rows):
                if ay == 0.0 and abs(ax) == 1.0:
                    gap = abs(ax * b - ubar_x)
                elif ax == 0.0 and abs(ay) == 1.0:
                    gap = abs(ay * b - ubar_y)
                else:
                    gap = 0.0
                if not gap > reach + 1e-12 * abs(b):
                    live.append(k)
        for p, i in enumerate(live):
            ax1, ay1, b1 = rows[i]
            for j in live[p + 1:]:
                ax2, ay2, b2 = rows[j]
                det = ax1 * ay2 - ay1 * ax2
                scale = math.sqrt(nrms[i] * nrms[j])
                if scale == 0.0 or abs(det) <= 1e-14 * scale:
                    continue
                ux = (b1 * ay2 - b2 * ay1) / det
                uy = (ax1 * b2 - ax2 * b1) / det
                dxu = ux - ubar_x
                dyu = uy - ubar_y
                obj = dxu * dxu + dyu * dyu
                if obj < best_obj and admits(rows, ux, uy):
                    best, best_obj = (ux, uy), obj
        return None if best is None else (best[0], best[1], best_obj)

    def minimax(rows):
        lower = max(ax * (lo_x if ax > 0.0 else hi_x) + ay * (lo_y if ay > 0.0 else hi_y) - b
                    for ax, ay, b in rows)
        t_star, cx, cy = min((max(ax * cx + ay * cy - b for ax, ay, b in rows), cx, cy)
                             for cx, cy in ((lo_x, lo_y), (hi_x, lo_y), (lo_x, hi_y),
                                            (hi_x, hi_y)))
        if t_star == lower:
            return cx, cy, t_star
        ax, ay, b = np.array(rows, dtype=np.float64).T
        xs = [np.array([lo_x, hi_x, lo_x, hi_x])]
        ys = [np.array([lo_y, lo_y, hi_y, hi_y])]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            i, j = np.triu_indices(len(b), 1)
            dax, day, db = ax[i] - ax[j], ay[i] - ay[j], b[i] - b[j]
            for c in (lo_x, hi_x):
                xs.append(np.full(len(db), c))
                ys.append((db - dax * c) / day)
            for c in (lo_y, hi_y):
                xs.append((db - day * c) / dax)
                ys.append(np.full(len(db), c))
            i, j, k = np.array(list(itertools.combinations(range(len(b)), 3)),
                               dtype=np.intp).reshape(-1, 3).T
            d1x, d1y, e1 = ax[i] - ax[j], ay[i] - ay[j], b[i] - b[j]
            d2x, d2y, e2 = ax[i] - ax[k], ay[i] - ay[k], b[i] - b[k]
            det = d1x * d2y - d1y * d2x
            xs.append((e1 * d2y - e2 * d1y) / det)
            ys.append((d1x * e2 - d2x * e1) / det)
        ux, uy = np.concatenate(xs), np.concatenate(ys)
        keep = ~(np.isnan(ux) | np.isnan(uy))
        ux = np.clip(ux[keep], lo_x, hi_x)
        uy = np.clip(uy[keep], lo_y, hi_y)
        with np.errstate(over="ignore", invalid="ignore"):
            worst = (ax[:, None] * ux + ay[:, None] * uy - b[:, None]).max(axis=0)
        best = int(np.argmin(worst))
        return float(ux[best]), float(uy[best]), float(worst[best])

    inside = lo_x <= ubar_x <= hi_x and lo_y <= ubar_y <= hi_y
    if inside and admits(rows, ubar_x, ubar_y):
        return ubar_x, ubar_y, True, 0.0, 0.0
    faces = [(1.0, 0.0, hi_x), (-1.0, 0.0, -lo_x), (0.0, 1.0, hi_y), (0.0, -1.0, -lo_y)]
    found = scan(list(rows) + faces, nominal_cut=inside)
    if found is not None:
        return found[0], found[1], True, found[2], 0.0
    vx, vy, t_star = minimax(list(rows))
    slack = t_star + 1e-9 * max(1.0, abs(t_star))
    found = scan([(ax, ay, b + slack) for ax, ay, b in rows] + faces)
    if found is not None:
        ux, uy = found[0], found[1]
    else:
        ux, uy, t_star = vx, vy, math.inf
    dxu = ux - ubar_x
    dyu = uy - ubar_y
    return ux, uy, False, dxu * dxu + dyu * dyu, t_star
