"""The fixed-step symplectic stepper for second-order systems xdd = a(x), in lockstep.

The stepper is PEFRL (Omelyan, Mryglod and Folk's position-extended
Forest-Ruth, 4th order, 4 force calls per step), a drift-kick composition
table: pairs (c_drift, c_kick) executed in order, where drift moves x by
c*dt*v and kick moves v by c*dt*a(x).  The table is symmetric, so the map
is time reversible.  It is the only stepper because the conservation
checks run at 1e-8 relative tolerance: at the shipped steps its energy
error is O(dt^4), orders of magnitude below a second-order method's (the
shipped circle's member 0 drifts by 2.5e-7 under velocity Verlet).

:func:`integrate` is the one stepping loop.  It advances a batch of rows,
each with its own step ``dt``, step count and acceleration scale, in
lockstep: the rows are ordered by step count, so a finished row drops off
the end of the live prefix and the Python loop runs max(steps) times, not
sum(steps).  A row's step may have either sign, its direction of time:
every substep is linear in dt and rounding is symmetric in sign, so a
row at -dt from (x, v) has the positions of the row at dt from (x, -v),
bit for bit, and its velocities negated, up to the sign of a zero.
Every operation acts row by row and rounds as it does for one row alone
(the products c*dt of each row, the acceleration scale * a(x)), so a
batch gives the same bits as a loop of batches of one.  One step is
the table written out, five drifts and four kicks (the last kick
coefficient is 0): the operations of a loop over the table, in its order,
without the loop's per-substep Python work (``tests/test_integrators.py``
keeps that loop as the reference).  Each kick is one call of ``accel``,
which for a potential is its ``gradient_many`` kernel, bound once per
potential (see ``fields.CompositePotential``).  The last drift's
product d4 v is the next step's first-drift product (d0 = d4, and no
kick lies between), computed once.  States are buffered CHUNK steps at
a time, each step's last kick and drift writing straight into the
buffer, then tested for blow-up, shown to an optional observer and
copied, every stride-th one, into one exact-size array per row: the
blow-up test and the observer see every state, and no (steps, rows, n)
array is ever allocated.  The states before a chunk are copied once,
for the blow-up report of a row that fails at the chunk's first step.
"""
from __future__ import annotations

import numpy as np

from .errors import BlowUpError, InvalidParameterError

# Omelyan/Mryglod/Folk position-extended Forest-Ruth coefficients
_XI = 0.1786178958448091
_LAM = -0.2123418310626054
_CHI = -0.06626458266981849
PEFRL = (
    (_XI, 0.5 - _LAM),
    (_CHI, _LAM),
    (1.0 - 2.0 * (_CHI + _XI), _LAM),
    (_CHI, 0.5 - _LAM),
    (_XI, 0.0),
)

#: the stepper's name, as report.json records it
METHOD = "pefrl"

#: lockstep iterations buffered between blow-up tests and copies to the rows
CHUNK = 256


def integrate(accel, x0, v0, dt, n_steps: int, *, steps, scale, blowup_radius: float,
              stride=1, observe=None):
    """March the rows of (x0, v0) under xdd = scale * accel(x) in lockstep.

    ``x0`` and ``v0`` are (rows, n); ``dt``, ``steps``, ``scale`` and
    ``stride`` are per row, a scalar standing for every row.  A step is
    finite and nonzero, and a negative one runs its row backward in time.
    ``n_steps`` is the largest of ``steps``.  ``accel`` maps an (m, n) block of positions
    to its accelerations row by row.  Row r keeps its states at steps 0,
    stride_r, 2 stride_r, ... (a stride of 1 keeps every state), so a row
    that keeps only its output nodes never holds its internal states.

    ``observe``, if given, sees every valid state of every row exactly
    once, in step order, whatever the strides: it is called as
    ``observe(rows, first, X, V, due)`` with the (steps, len(rows), n)
    states of a block of steps starting at step ``first`` (first the
    initial states alone, as step 0, then every CHUNK buffer before it is
    reused), ``rows`` the original indices of the block's columns, and
    ``due[c]`` the number of leading states of column c that belong to
    its row: those past its step count, and a failed row's states from
    its first bad one on, are not due.

    Returns (Xs, Vs, failures): per row the (steps // stride + 1, n) kept
    states, and {row: BlowUpError} for the rows that reached a non-finite
    state or one with |x|^2 + |v|^2 > 2 ``blowup_radius``^2, each carrying
    its last valid time (negative on a backward row) and state (a failed
    row's Xs/Vs hold its kept states before the first bad one).
    """
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    rows, n = x.shape
    n_steps = int(n_steps)
    h = np.broadcast_to(np.asarray(dt, dtype=float), (rows,))
    counts = np.broadcast_to(np.asarray(steps), (rows,))
    strides = np.broadcast_to(np.asarray(stride), (rows,))
    if not np.all(np.isfinite(h) & (h != 0)):
        raise InvalidParameterError("step size must be finite and nonzero")
    if counts.dtype.kind not in "iu" or counts.min() < 0 or counts.max() != n_steps:
        raise InvalidParameterError(
            f"per-row step counts must be nonnegative integers with maximum n_steps = {n_steps}")
    if strides.dtype.kind not in "iu" or strides.min() < 1:
        raise InvalidParameterError("per-row strides must be positive integers")
    order = np.argsort(-counts, kind="stable")
    counts = counts[order].tolist()
    strides = strides[order].tolist()
    h = h[order]
    x, v = x[order], v[order]

    def per_row(c):  # c per row, spread over the n columns (no broadcasting in the loop)
        return np.repeat(np.asarray(c, dtype=float)[:, None], n, axis=1)

    a_scale = per_row(np.broadcast_to(np.asarray(scale, dtype=float), (rows,))[order])
    # PEFRL's five drifts and four kicks (its last kick coefficient is 0)
    coeffs = [per_row(dc * h) for dc, _ in PEFRL] + [per_row(kc * h) for _, kc in PEFRL[:-1]]
    d0, d1, d2, d3, d4, k0, k1, k2, k3 = coeffs
    Xs = [np.empty((c // s + 1, n)) for c, s in zip(counts, strides)]
    Vs = [np.empty((c // s + 1, n)) for c, s in zip(counts, strides)]
    for r in range(rows):
        Xs[r][0] = x[r]
        Vs[r][0] = v[r]
    if observe is not None:
        observe(order, 0, x[None], v[None], [1] * rows)
    chunk = min(CHUNK, n_steps)
    buf_x = np.empty((chunk, rows, n))
    buf_v = np.empty((chunk, rows, n))
    r2 = blowup_radius * blowup_radius
    failures = {}
    bad = {}  # failed row -> index of its first bad state
    live = rows
    k = 0
    drift = d0 * v  # the first drift's product, then each last drift's
    while k < n_steps:
        first, live0 = k + 1, live
        # the states at step first - 1, copied: they may live in the buffer
        x_before, v_before = x.copy(), v.copy()
        steps_here = min(chunk, n_steps - k)
        with np.errstate(over="ignore", invalid="ignore"):  # a blown-up row is caught below
            for i in range(steps_here):
                k += 1
                if counts[live - 1] < k:  # finished rows drop off the end of the live prefix
                    while counts[live - 1] < k:
                        live -= 1
                    x, v, drift = x[:live], v[:live], drift[:live]
                    coeffs = [c[:live] for c in coeffs]
                    d0, d1, d2, d3, d4, k0, k1, k2, k3 = coeffs
                    a_scale = a_scale[:live]
                # one PEFRL step, written out: the table's substeps in order,
                # its last kick and drift written into the buffer
                x = x + drift
                v = v + k0 * (a_scale * accel(x))
                x = x + d1 * v
                v = v + k1 * (a_scale * accel(x))
                x = x + d2 * v
                v = v + k2 * (a_scale * accel(x))
                x = x + d3 * v
                v = np.add(v, k3 * (a_scale * accel(x)), out=buf_v[i, :live])
                drift = d4 * v
                x = np.add(x, drift, out=buf_x[i, :live])
            bx, bv = buf_x[:steps_here, :live0], buf_v[:steps_here, :live0]
            inside = np.vecdot(bx, bx) + np.vecdot(bv, bv) <= r2 + r2  # False also for NaN
        span = [min(counts[r], k) - first + 1 for r in range(live0)]  # the chunk's states per row
        for r in range(live0):
            if r not in failures:
                s = strides[r]
                i0 = -first % s  # the chunk's first entry at a multiple of the stride
                if i0 < span[r]:
                    kept = slice((first + i0) // s, (first + span[r] - 1) // s + 1)
                    Xs[r][kept] = buf_x[i0:span[r]:s, r]
                    Vs[r][kept] = buf_v[i0:span[r]:s, r]
        in_span = np.arange(steps_here)[:, None] < np.array(span)
        for r in np.flatnonzero(np.any(in_span & ~inside, axis=0)).tolist():
            if r not in failures:
                j = bad[r] = first + int(np.argmax(~inside[:, r]))
                step = float(h[r])
                x_last, v_last = ((buf_x[j - 1 - first, r], buf_v[j - 1 - first, r])
                                  if j > first else (x_before[r], v_before[r]))
                failures[r] = BlowUpError(
                    f"state left the finite box at step {j} (t = {j * step:.6g})",
                    last_time=(j - 1) * step, last_state=(x_last.copy(), v_last.copy()))
        if observe is not None:  # a failed row's states are due up to its first bad one
            observe(order[:live0], first, bx, bv,
                    [max(0, min(span[r], bad.get(r, k + 1) - first)) for r in range(live0)])
        if len(failures) == rows:
            break
    back = np.argsort(order, kind="stable")
    for r, j in bad.items():
        kept = (j - 1) // strides[r] + 1
        Xs[r], Vs[r] = Xs[r][:kept], Vs[r][:kept]
    return ([Xs[r] for r in back], [Vs[r] for r in back],
            {int(order[r]): exc for r, exc in failures.items()})
