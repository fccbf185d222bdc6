#!/usr/bin/env python3
"""Extracting the escape curve from the rescaled family.

As eps halves along the schedule, the rescaled trajectories settle onto a
fixed curve on the valley floor: consecutive sup distances fall, the
transverse coordinate shrinks at the conservation rate, the tangential
accelerations stay bounded, and the limit's initial velocity recovers v.
For the unit circle the limit is known in closed form (unit-speed rotation),
so every number below can be checked by eye.
"""
import numpy as np

import flatvalley as fv

scn = fv.Scenario(fv.circle(), [1.0, 0.0], [0.0, 1.0], 1.0, name="circle")
print(f"schedule: eps_j = {scn.eps0} * {scn.ratio}^j, j = 0..{scn.count - 1}")
family = fv.run_family(scn)

print(f"\n{'j':>2} {'eps':>9} {'drift':>9} {'max |f|':>10} {'sup dist to next':>17}")
limit, conv = fv.extract_limit(family)
for j in range(family.count):
    d = f"{conv.distances[j]:.3e}" if j < len(conv.distances) else ""
    print(f"{j:>2} {family.epsilons[j]:>9.4g} {family.energies[j].drift:>9.1e} "
          f"{conv.violation_max[j]:>10.3e} {d:>17}")
rates = [rate if rate is None else round(rate, 2) for rate in conv.rate_estimates]
print(f"convergence verdict: {conv.cauchy_ok} (tolerance {conv.tol_limit:.2e}); "
      f"measured rates {rates}")

ref = np.stack([np.cos(limit.tau), np.sin(limit.tau)], axis=1)
print(f"\nlimit vs closed-form (cos tau, sin tau): sup distance "
      f"{np.max(np.linalg.norm(limit.x - ref, axis=1)):.2e}")
print(f"initial velocity recovered: xdot(0) = {np.round(limit.xdot0, 6).tolist()} "
      f"(error {conv.initial_velocity_error:.2e})")

print("\ncoordinate diagnostics in the tube:")
chart = fv.chart_for_scenario(scn)
traces = fv.coordinate_traces(chart, family)
coords, reason = fv.coordinate_report(traces, scn.potential, scn.v)
# r = f at the nodes, so sup |r| is the max |f| column above
print(f"  sup |r| per member : {[f'{s:.2e}' for s in conv.violation_max]}")
print(f"  conservation bounds: {[f'{b:.2e}' for b in coords.r_bounds]}")
print(f"  max |rdot| = {coords.max_rdot.max():.2e}; max |ydot| = {coords.max_ydot.max():.6f}")
print(f"  tangential acceleration per member: "
      f"{[f'{a:.3f}' for a in coords.acceleration_per_member]} "
      f"(max/min = {coords.acceleration_ratio:.2f})")
print(f"  stop reason: {reason or 'none, every proof bound holds'}")

print("\ntangential equations of motion, residual check (eps = 0.05):")
# family members keep only their output nodes; the residual reads the dense run
dense = fv.integrate_rescaled(scn.potential, scn.p, scn.v, scn.epsilons[1], scn.horizon,
                              scn.options)
res = fv.residual_convergence(chart, dense, np.linspace(-0.85, 0.85, 10))
print(f"  max residual {res['coarse_max']:.2e}; after halving all steps "
      f"{res['fine_max']:.2e} (factor {res['shrink_factor']:.2f})")
