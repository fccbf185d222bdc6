#!/usr/bin/env python3
"""Rescaled dynamics and its conservation audit.

A trajectory launched tangentially on the valley floor with speed eps |v|
is watched in rescaled time tau = eps t, where its initial velocity is v
but the transverse force stiffens like 1/eps^2.  Conservation of
H = |v|^2/2 + U/eps^2 pins the run inside a tube of width g^-1(eps^2|v|^2/2)
around the floor; this script shows those bounds holding with slack 1e-6,
and how the energy drift of the stepper, PEFRL, falls with its step.
"""
import numpy as np

import flatvalley as fv
from flatvalley.dynamics import ENERGY_DRIFT_LIMIT

C = fv.circle()
p, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])

print("single rescaled run on the unit circle, eps = 0.05, tau in [-1, 1]")
traj = fv.integrate_rescaled(C, p, v, 0.05, 1.0)
audit = fv.energy_audit(traj, C)
bounds = fv.confinement_check(traj, C, v)
print(f"  internal step        : {traj.dt:.2e}  ({len(traj.tau_int)} states)")
print(f"  energy drift         : {audit.drift:.2e}")
print(f"  max speed            : {bounds.max_speed:.12f}   (bound 1 + 1e-6)")
print(f"  max potential        : {bounds.max_potential:.3e}   "
      f"(budget eps^2/2 = {0.5 * 0.05**2:.3e})")
print(f"  max |f| off the floor: {np.abs(C.field.value_many(traj.x)).max():.3e}   "
      f"(tube bound eps/sqrt2 = {0.05 / np.sqrt(2):.3e})")
print(f"  ball ratio |x-p|/(|tau| |v|): {bounds.worst_ball_ratio:.12f}")
print(f"  all confinement checks pass : {bounds.passed}")

print("\nPEFRL's energy drift at eps = 0.1 by step factor c (dtau = c eps; 0.05 is one")
print(f"step per output interval), against ENERGY_DRIFT_LIMIT = {ENERGY_DRIFT_LIMIT:g}:")
for factor in (0.01, 0.025, 0.05):
    t = fv.integrate_rescaled(C, p, v, 0.1, 1.0, fv.IntegratorOptions(step_factor=factor))
    drift = fv.energy_audit(t, C).drift
    print(f"  c = {factor:<5g}: drift {drift:.3e}  (passes: {drift <= ENERGY_DRIFT_LIMIT})")
print("  (the drift falls like c^4; second-order velocity Verlet drifts by 2.5e-7"
      "\n   at c = 0.01, 25 times the limit, which is why PEFRL is the one stepper)")

print("\nthe two routes to the same curve:")
eps = 0.1
phys = fv.integrate_newton(C, fv.PhaseState(p, eps * v), 1.0 / eps)
direct = fv.integrate_rescaled(C, p, v, eps, 1.0)
c = (len(direct.tau) - 1) // 2
# on the node grid tau = eps t: physical node i is rescaled node c + i/2
sup = max(float(np.linalg.norm(phys.x[i] - direct.x[c + i // 2]))
          for i in range(0, len(phys.tau), 2))
print(f"  physical run rescaled vs direct rescaled run: sup distance {sup:.2e}")
