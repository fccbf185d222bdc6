#!/usr/bin/env python3
"""The tube of coordinates around the valley floor.

The flow of grad f / |grad f|^2 raises f at exactly unit rate, so flowing a
chart of the floor produces coordinates (r, y) with r = f: the potential
depends on r alone, and the floor is {r = 0}.  This script exercises the
flow identity, foot-point projection, the graph chart, frame data, and the
pullback-metric minimum (the smallest stretch of the tube map).
"""
import numpy as np

import flatvalley as fv

C = fv.circle().field
rng = np.random.default_rng(3)

print("flow identity f(flow(t, x)) = t + f(x):")
for _ in range(3):
    x = np.array([rng.uniform(0.9, 1.2), rng.uniform(-0.3, 0.3)])
    t = rng.uniform(-0.3, 0.3)
    residual = abs(C.value(fv.transversal_flow(C, x, t)) - t - C.value(x))
    print(f"  x={np.round(x, 4).tolist()}, t={t:+.4f}: residual {residual:.2e}")

print("\nfoot points (flow back by f(x), then polish):")
for x in ([1.1, 0.0], [0.8, 0.4], [1.05, -0.6]):
    foot = fv.foot_point(C, np.array(x))
    print(f"  {x} -> {np.round(foot, 12).tolist()}  |f| = {abs(C.value(foot)):.1e}")

print("\ngraph chart at p = (1, 0) with tangent axis along v = (0, 1):")
chart = fv.build_m_chart(C, np.array([1.0, 0.0]), np.array([0.0, 1.0]), delta=1.0)
print(f"  normal {chart.normal.tolist()}, basis {chart.basis.tolist()}, w {chart.w.tolist()}")
for y in (0.0, 0.3, 0.8):
    q = chart.surface_point(np.array([y]))
    print(f"  psi({y:+.1f}) = {np.round(q, 9).tolist()}  f = {C.value(q):.1e}")

print("\ntube coordinates and the round trip:")
x = np.array([1.1, 0.0])
rc = chart.coords_of(x)
back = chart.tube_point(rc.r, rc.y)
print(f"  (1.1, 0) -> r = {rc.r:.6f}, y = {np.round(rc.y, 9).tolist()}; "
      f"round trip error {np.linalg.norm(back - x):.1e}")

print("\nframe data (scale factors and versors of the tube map):")
fr = fv.frame_data(chart, fv.TubularCoords(0.21, np.array([0.3])))
print(f"  at (r, y) = (0.21, 0.3):")
print(f"    h_r = {fr.h_r:.6f}   (analytic 1/(2 sqrt(1.21)) = {1 / 2.2:.6f})")
print(f"    h_y = {fr.h_tan[0]:.6f}   (analytic sqrt(1.21/0.91) = "
      f"{np.sqrt(1.21 / 0.91):.6f})")
print(f"    <e^y, e_y> = {float(fr.dual_tan[0] @ fr.e_tan[0]):.9f}")

print("\npullback-metric minimum (smallest stretch of the tube map):")
# the ball of radius 0.3 about p lies in 0.7^2 - 1 <= r <= 1.3^2 - 1, |y| <= 0.3
m = fv.pullback_metric_min(chart, r_range=(0.7**2 - 1.0, 1.3**2 - 1.0), y_box=0.3, n_grid=9)
print(f"  over the box of the ball of radius 0.3: m = {m.value:.6f} at r = {m.argmin_r:.3f}")
print(f"  (the radial factor 1/(2 sqrt(1+r)) is smallest at the outer edge:"
      f" 1/(4*1.69) = {1 / 6.76:.6f})")
m = fv.pullback_metric_min(chart, r_range=(-1e-6, 1e-6), y_box=1e-6, n_grid=3)
print(f"  shrinking the region to p: m -> {m.value:.6f} "
      "(min eigenvalue of the chart differential at p)")
