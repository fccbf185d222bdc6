#!/usr/bin/env python3
"""The instability certificate, end to end.

The pipeline runs the rescaled family, extracts the escape curve, finds the
radius R it reaches from p, and then presents the physical evidence: for
every member from j0 on, the trajectory launched with initial speed
eps_j |v| (arbitrarily small) is at distance >= R/2 from p at physical time
tau*/eps_j.  No neighbourhood of (p, 0) can hold the motion: the
equilibrium is unstable.  Artifacts (CSV, JSON, SVG) land in out_demo/.
"""
import json
import os

import numpy as np

import flatvalley as fv
from flatvalley.reporting import revalidate_from_dir
from flatvalley.scenario import read_scenario

scn = fv.Scenario(fv.circle(), [1.0, 0.0], [0.0, 1.0], 1.0, name="circle-demo")
out = "out_demo"
report = fv.run_pipeline(scn, out, svg=True)

for st in report.stages:
    print(f"stage {st['name']:<12} {st['status']:<8} {st['seconds']:6.2f}s")
print(f"verdict: {report.verdict}")

with open(os.path.join(out, "report.json")) as fh:
    data = json.load(fh)
cert, scenario = data["certificate"], data["scenario"]
print(f"\nescape radius R = {cert['escape_radius']:.6f} "
      f"(closed form 2 sin(1/2) = {2 * np.sin(0.5):.6f}) at tau* = {cert['tau_star']}")
print(f"threshold R/2 = {cert['threshold']:.6f}, first good index j0 = {cert['j0']}")
# report.json states the eps schedule and v once, in its scenario block: a
# scenario file (the potential as {"kind": ..., **params}, min_eps stated),
# which the strict reader turns back into the Scenario it states; the
# stepper is recorded beside the step law, in the family block
print(f"\nscenario block: potential {scenario['potential']}, min_eps {scenario['min_eps']}, "
      f"integrator {data['family']['integrator']}")
stated = read_scenario(scenario)
speed = float(np.linalg.norm(stated.v))
print(f"\n{'j':>2} {'eps':>9} {'initial speed':>14} {'escape time':>12} {'displacement':>13}")
for row in cert["evidence"]:
    eps = stated.epsilons[row["j"]]
    print(f"{row['j']:>2} {eps:>9.4g} {eps * speed:>14.4g} "
          f"{cert['tau_star'] / eps:>12.4g} {row['displacement']:>13.6f}")

print(f"\nre-deriving every number from the emitted files alone:")
check = revalidate_from_dir(out)
print(f"  revalidation: {check}")
print(f"\nfigures: {sorted(os.listdir(os.path.join(out, 'figures')))}")
