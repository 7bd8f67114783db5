#!/usr/bin/env python3
"""Winding contours in the dual graph and the low-temperature contour series.

A contour is a simple dual cycle winding once around the cylinder; it
separates the root from the top boundary.  Inverting all spins on the root
side of a length-n contour changes the energy by exactly 2n, so each contour
costs exp(-2 beta n) in probability, and the series sum_n #C_n exp(-2 beta n)
going below one is the low-temperature trigger for a pinned root spin.
"""

import math

import numpy as np

from cdt_ising.contours import below_vertices, enumerate_contours, peierls_series
from cdt_ising.ising import gibbs_exact
from cdt_ising.triangulation import forest_to_triangulation

t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
print("triangulation levels:", t.level_sizes, "triangles:", t.triangle_count)

cs = enumerate_contours(t)
print("\nwinding contours by length:", cs.counts)
c = min(cs.contours, key=lambda c: c.length)
print("shortest contour:")
a, b = (x.tolist() for x in t.edges)
print("  triangles:", c.triangles)
print("  crossed edges:", [(t.vertex_at(a[e]), t.vertex_at(b[e])) for e in c.crossed])
print("  root side:", sorted(below_vertices(t, c)))

print("\nexact Gibbs check of the 2|contour| energy cost (minus boundary):")
for beta in (0.3, 0.8):
    g = gibbs_exact(t, beta, "minus")
    minus = -np.ones(g.n_free, dtype=np.int8)
    sigma = minus.copy()
    for lvl, pos in below_vertices(t, c):
        sigma[t.flat_index(lvl, pos)] = 1
    ratio = g.prob_of(sigma) / g.prob_of(minus)
    print(f"  beta={beta}: P(plus island)/P(all minus) = {ratio:.6e}"
          f"  vs exp(-2*beta*{c.length}) = {math.exp(-2 * beta * c.length):.6e}")

print("\ncontour series partial sums:")
for beta in (0.4, 0.8, 1.2):
    s = peierls_series(cs.counts, beta)
    tail = s.tail_below_one_from
    print(f"  beta={beta}: total={s.total:.4f}, tail below 1 from length {tail}")
print("\n(at low temperature the whole series is already below one, which is")
print(" what pins the root spin to the boundary value)")
