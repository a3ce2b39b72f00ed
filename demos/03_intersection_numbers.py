"""Evaluating tautological intersection numbers.

Top powers of the tautological line class xi are computed by closed forms
where available (rational curves, small genus-1 shapes, the minimal-stratum
table) and otherwise by trading xi for psi-classes against boundary
corrections.  Normal bundles of boundary divisors are evaluated both
through the level-wise formula and through a chosen edge.
"""
from stratacalc import (StratumSpec, Evaluator, enumerate_LG1, integrate,
                        multiply, normal_bundle, normal_bundle_via_edge)
from stratacalc.tautring import TautClass

ev = Evaluator()

print("top xi-powers:")
for g, mu in [(0, (1, 1, 1, -5)), (1, (2, -2)), (1, (2, 1, -3)),
              (1, (0,)), (2, (2,))]:
    spec = StratumSpec.connected(g, mu)
    print(f"  genus {g}, mu={mu}: {ev.xi_top(spec)}")

print("\npsi-integrals on rational curves:")
n5 = StratumSpec.connected(0, (1, 1, 1, 1, -6))
print("  psi_1 psi_2 =", ev.psi_top(n5, {(0, 0): 1, (0, 1): 1}))
print("  psi_1^2    =", ev.psi_top(n5, {(0, 0): 2}))

# the cherry divisor: one top vertex carrying the pole, two lower vertices
cherry_spec = StratumSpec.connected(0, (1, 1, 2, 2, -8))
cherry = next(g for g in enumerate_LG1(cherry_spec)
              if g.n_vertices == 3 and len(g.edges) == 2)
print("\ncherry divisor, enhancements",
      sorted(k for _, _, k in cherry.edges))
print("  normal bundle degree (level formula):",
      integrate(normal_bundle(cherry_spec, cherry, 1), ev))
for ei in range(2):
    print(f"  normal bundle degree (through edge {ei}):",
          integrate(normal_bundle_via_edge(cherry_spec, cherry, ei), ev))
print("  magnitude matches 1/(m1 m2) = 1/15 for m = (5, 3)")

# self-intersection numbers of the boundary divisors of the k=5 family
k = 5
fam = StratumSpec.connected(1, (k, 1, -k - 1))
print(f"\nself-intersections in the (k,1,-k-1) stratum, k={k}:")
for g in enumerate_LG1(fam):
    kappas = sorted(kk for _, _, kk in g.edges)
    if len(kappas) != 2:
        continue
    D = TautClass.boundary(fam, g)
    print(f"  kappas {kappas}: D^2 = {integrate(multiply(D, D, ev), ev)}")
