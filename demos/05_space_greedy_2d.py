"""Spatial adaptivity: bisection meshes, projection, overlay.

Refines the two-triangle unit square by newest-vertex bisection around
a kink, projects onto continuous P1 elements, and demonstrates the
overlay (smallest common refinement) of two independently refined
meshes together with its cardinality bound.
"""

import numpy as np

from stgreedy import (TriangleMesh, element_indicators, greedy_space,
                      overlay, refine_bisection)


def kink(p):
    return np.abs(p[:, 0] + p[:, 1] - 1.0) ** 0.4


print("== adaptive refinement toward the kink x + y = 1 ==")
print(f"  {'delta':>8s} {'#T':>6s} {'error':>12s}")
for delta in (0.05, 0.025, 0.0125, 0.00625):
    mesh, fem, hist = greedy_space(kink, 2, delta, n=2)
    print(f"  {delta:8.5f} {mesh.size:6d} {hist[-1][1]:12.5e}")
assert mesh.is_conforming()

eta, _ = element_indicators(kink, mesh, 2)
centroids = mesh.element_coords.mean(axis=1)
hot = centroids[np.argsort(eta)[-5:]]
print("  five largest indicators sit at centroids:")
for c in hot:
    print(f"    ({c[0]:.3f}, {c[1]:.3f})  dist to kink: {abs(c.sum() - 1):.3f}")

print("\n== overlay of two refinement histories ==")
rng = np.random.default_rng(1)
m1 = m2 = TriangleMesh.unit_square()
for _ in range(6):
    m1 = refine_bisection(m1, rng.choice(m1.size, size=2, replace=False))
    m2 = refine_bisection(m2, rng.choice(m2.size, size=2, replace=False))
ov = overlay(m1, m2)
print(f"  #T1 = {m1.size}, #T2 = {m2.size}, #overlay = {ov.size} "
      f"(bound {m1.size + m2.size - 2})")
print(f"  overlay conforming: {ov.is_conforming()}")
