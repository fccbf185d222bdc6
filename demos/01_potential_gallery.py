#!/usr/bin/env python3
"""Tour of the potential gallery.

Every entry is either a composite U = g(f) whose zero set is a flat valley
(gutter, circle, ellipsoid, custom polynomials) or a classical oscillating
potential used as a stability contrast (painleve, laloy).  The script prints
values, checks every analytic gradient against central differences, and runs
the regular-value probe that certifies the valley floor is a genuine
hypersurface.
"""
import numpy as np

import flatvalley as fv

rng = np.random.default_rng(1)

print("=" * 64)
print("  POTENTIAL GALLERY")
print("=" * 64)

for name in ("gutter", "circle", "ellipsoid", "painleve", "laloy"):
    P = fv.gallery_lookup(name, {})
    x = rng.uniform(0.2, 0.8, size=P.dim)
    print(f"\n{name} (dim {P.dim})")
    print(f"  U({np.round(x, 3).tolist()}) = {P.value(x):.6e}")
    disc = fv.fd_gradient_check(P, x)
    print(f"  gradient vs central differences: {disc:.2e}")

print("\nhand-picked values:")
E = fv.ellipsoid()
print(f"  ellipsoid U(1,0,0)   = {E.value([1.0, 0.0, 0.0])}  (on the valley floor)")
print(f"  ellipsoid U(0,0,0)   = {E.value([0.0, 0.0, 0.0])}  (centre of the ellipsoid)")
G = fv.gutter()
print(f"  gutter    U(0.5,7.3) = {G.value([0.5, 7.3])}  (0.5^4, y irrelevant)")

print("\nregular-value probe (is the valley floor a smooth hypersurface?)")
seeds = np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.2, 0.2, size=(10, 3))
report = fv.check_regular_value(E.field, seeds)
print(f"  ellipsoid: pass={report.passed}, min |grad f| on floor = "
      f"{report.min_grad_norm:.4f} (smallest at the (+-1,0,0) tips)")

# f(x, y) = x^2 fails: its gradient vanishes on the zero set
bad = fv.custom_polynomial(quadratic=[1.0, 0.0], exponent=2)
report = fv.check_regular_value(bad.field, [[0.1, 0.2], [-0.05, 0.4]])
print(f"  f = x^2  : pass={report.passed}  (projections died near the critical set)")
for note in report.notes:
    print(f"             note: {note}")
