#!/usr/bin/env python3
"""Why flat valleys are special: potentials that DO trap.

The oscillating-bump potential has a non-minimum critical point at the
origin, yet arbitrarily close to it the potential rises to a positive
barrier: any motion with energy below the barrier stays inside it forever.
The flat-valley potentials have no such barrier along the floor, which is
exactly the degree of freedom the escape curve exploits.
"""
import flatvalley as fv
from flatvalley.contrast import BARRIER_WINDOW, TRAP_DRIFT_FRACTION

P = fv.painleve()
barrier = fv.locate_barrier(P)
print(f"grid scan of the bump potential on [-{BARRIER_WINDOW:g}, {BARRIER_WINDOW:g}]:")
print(f"  barrier height {barrier.height:.6e} at x = +-{barrier.x_right:.6f}")

rep = fv.trapped_motion_check(P, barrier, n_traj=5, t_end=500.0)
print(f"\nfive sub-barrier motions, t in [0, {rep.t_end:g}], each stepped from its drift budget:")
print(f"{'x0':>9} {'v0':>9} {'energy':>11} {'max |x|':>10} {'drift/gap':>10} {'dt':>7} "
      f"{'trapped':>8}")
for r in rep.records:
    print(f"{r.x0:>9.4f} {r.v0:>9.5f} {r.energy:>11.3e} {r.max_excursion:>10.6f} "
          f"{r.energy_drift / rep.gap(r):>10.1e} {r.dt:>7.4g} {str(r.trapped):>8}")
print(f"lockstep steps: {' + '.join(map(str, rep.call_steps))} (probe call first)")
print(f"all trapped: {rep.all_trapped}")
print(f"worst energy drift: {max(r.energy_drift / rep.gap(r) for r in rep.records):.1e} of the "
      f"gap below the barrier (a trapped run may drift by {TRAP_DRIFT_FRACTION:g})")

print("\nthe 2-d variant: the x coordinate still decouples and stays trapped,")
print("while the y coordinate is repelled and runs away:")
L = fv.laloy()
rep = fv.trapped_motion_check(L, barrier, n_traj=4, t_end=12.0)
for r in rep.records:
    print(f"  x0={r.x0:+.4f}: max |x| = {r.max_excursion:.6f} (trapped={r.trapped}), "
          f"max |y| = {r.companion_excursion:.3f}")
print(f"x projection trapped for all starts: {rep.all_trapped}")
