"""Describing generalized strata and computing their dimensions.

A stratum of abelian differentials is specified by per-component genera
and zero/pole orders; optional residue parts tie residues of higher-order
poles together.  Everything downstream is exact rational arithmetic.
"""
from stratacalc import StratumSpec, dimension, validate

# the minimal stratum in genus 2: one double zero
h2 = StratumSpec.connected(2, (2,))
print("minimal genus-2 stratum:", h2.to_json())
print("  diagnostics:", validate(h2) or "ok")
dd = dimension(h2)
print(f"  unprojectivized dimension {dd.unprojectivized}, "
      f"projectivized {dd.projectivized}")

# a meromorphic genus-1 stratum with a simple zero: the running example
k = 4
fam = StratumSpec.connected(1, (k, 1, -k - 1))
print("\ngenus-1 family member:", fam.to_json())
print("  projectivized dimension:", dimension(fam).projectivized)

# a disconnected stratum with residue conditions pairing the poles of the
# two components; the conditions cut the dimension down to one
pair = StratumSpec.make(
    [(0, (-2, -2, 2)), (0, (-2, -2, 1, 1))],
    [({(0, 0), (1, 0)}, True), ({(0, 1), (1, 1)}, True)])
print("\ntwo-component constrained stratum:", pair.to_json())
print("  rank of the constrained residue space:", dimension(pair).residue_rank)
print("  projectivized dimension:", dimension(pair).projectivized)
