"""Enumerating the boundary of a compactified stratum.

Boundary strata are indexed by enhanced level graphs: vertices carry genus
and level, edges descend between levels and carry an enhancement kappa.
Each graph comes with prong-matching arithmetic (the lcm ell, the product
K, the number of prong-matching classes, and the twist index giving the
generic cyclic stack structure) and with the generalized strata sitting at
its levels.
"""
from stratacalc import StratumSpec, enumerate_LG1, enumerate_LGL, level_stratum, prong_data, profile
from stratacalc.levelgraphs import graph_report, level_dims

h2 = StratumSpec.connected(2, (2,))
divisors = enumerate_LG1(h2)
print(f"boundary divisors of the minimal genus-2 stratum: {len(divisors)}")
for g in divisors:
    pd = prong_data(g)
    print(f"  genera {g.genera} levels {g.levels} edges {g.edges} "
          f"|Aut| {pd.aut_order}")
print("three-level boundary strata:", len(enumerate_LGL(h2, 2)))

# the genus-1 family: five divisor types, with the expected local exponents
k = 5
fam = StratumSpec.connected(1, (k, 1, -k - 1))
print(f"\ndivisors of the (k,1,-k-1) stratum at k={k}:")
for g in enumerate_LG1(fam):
    pd = prong_data(g)
    kappas = sorted(kk for _, _, kk in g.edges)
    print(f"  kappas {kappas}  ell {pd.ell}  prong classes {pd.orbits}  "
          f"level dims {[d for d, _ in level_dims(g, fam)]}  profile {profile(g, fam)}")

# the top and bottom level of one divisor are generalized strata themselves
g = enumerate_LG1(fam)[0]
top, _ = level_stratum(g, fam, 0)
bot, _ = level_stratum(g, fam, -1)
print("\none divisor, top level:", top.to_json())
print("           bottom level:", bot.to_json())

# the full machine-readable report of a single graph
print("\nreport of the first divisor:")
print(graph_report(g, fam))
