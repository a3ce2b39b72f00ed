"""Seeded operation lists for the stratacalc benchmark.

Every pool is defined by properties of the strata in it (genus, number of
marked points, pole orders, residue parts), never by naming a workload.  A
workload draws from its pools with ``random.Random``; the same seed and
child index always give the same operation list.

Operation records are plain JSON objects:

    {"kind": "chi" | "chern", "spec": SPEC, "label": LABEL}
    {"kind": "power", "spec", "label", "div": i}          D_i^d
    {"kind": "pair",  "spec", "label", "a": i, "b": j}    D_a D_b xi^(d-2)
    {"kind": "nb",    "spec", "label", "div": i, "edge": e | None}
    {"kind": "cli",   "spec", "label", "cmd": name, "expect_rc": 0 | 1}

SPEC is ``StratumSpec.to_json_obj()`` output; LABEL is a short stable name
of the stratum used as the key into the reference file.  Divisor indices
refer to the order of ``enumerate_LG1``.
"""
from __future__ import annotations

import itertools
import random

WORKLOADS = ("euler-sweep", "products", "queries")


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------

def connected(genus: int, orders) -> dict:
    return {"components": [{"genus": genus, "orders": list(orders)}],
            "residue_parts": []}


def label(spec: dict) -> str:
    """Short stable name: 'g1:5,1,-6', components joined by '+', each
    residue part appended as '|c.p,c.p' ('~' for an unconstrained part)."""
    comps = "+".join(f"g{c['genus']}:" + ",".join(map(str, c["orders"]))
                     for c in spec["components"])
    parts = "".join(
        ("|" if p.get("constrained", True) else "~")
        + ",".join(f"{a}.{b}" for a, b in sorted(p["points"]))
        for p in spec["residue_parts"])
    return comps + parts


def _partitions(total: int, k: int, largest: int, smallest: int):
    """Non-increasing k-tuples of integers in [smallest, largest] summing
    to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for x in range(min(largest, total - smallest * (k - 1)), smallest - 1, -1):
        for rest in _partitions(total - x, k - 1, x, smallest):
            yield (x,) + rest


def genus0_signatures(n: int, poles: int, min_pole: int,
                      max_zero_sum: int) -> list[tuple[int, ...]]:
    """Genus-0 signatures with n points, exactly ``poles`` of them poles of
    order >= min_pole, the others zeros of order >= 1 whose orders sum to
    at most max_zero_sum.  Zeros first (descending), then poles."""
    out = []
    for zsum in range(n - poles, max_zero_sum + 1):
        psum = -2 - zsum
        for ps in _partitions(-psum, poles, -min_pole, 1):
            for zs in _partitions(zsum, n - poles, zsum, 1):
                out.append(zs + tuple(-p for p in reversed(ps)))
    return sorted(set(out), key=lambda mu: (sum(x for x in mu if x > 0), mu))


def genus1_family(ks) -> list[dict]:
    """The genus-1 strata (k, 1, -k-1)."""
    return [connected(1, (k, 1, -k - 1)) for k in ks]


def residue_pair_demo() -> dict:
    """Two genus-0 components whose double poles are paired by two
    constrained residue parts."""
    return {"components": [{"genus": 0, "orders": [-2, -2, 2]},
                           {"genus": 0, "orders": [-2, -2, 1, 1]}],
            "residue_parts": [{"points": [[0, 0], [1, 0]], "constrained": True},
                              {"points": [[0, 1], [1, 1]], "constrained": True}]}


# euler-sweep: chi and the Chern polynomial of strata new to the process
def euler_genus0_pool() -> list[dict]:
    """Genus 0, n = 6, two to four poles of order >= -9, zero orders
    summing to at most 7 (0.3-2 s each for chi plus chern)."""
    return [connected(0, mu) for p in (2, 3, 4)
            for mu in genus0_signatures(6, p, -9, 7)]


def euler_genus1_pool() -> list[dict]:
    return genus1_family(range(12, 31))


# products: dimension-2 and dimension-3 strata with many divisors
def products_genus0_pool() -> list[dict]:
    """Genus 0, n = 6, a single pole of order >= -9 (dimension 3, 50
    divisors each)."""
    return [connected(0, mu) for mu in genus0_signatures(6, 1, -9, 7)]


def products_genus1_pool() -> list[dict]:
    return genus1_family(range(2, 12))


# queries: small strata, popularity falling with size
def queries_pool() -> list[dict]:
    """Genus 0 with 4 <= n <= 5 and zero orders summing to at most 4, the
    genus-1 families (k,1,-k-1) and (k,-k), genus 2 (2) and (1,1), and the
    paired-residue two-component stratum.  Ordered by size (the sum of
    2g + n - 2 over components, then the number of points, then the total
    pole and zero order), which is the popularity rank."""
    specs = [connected(0, mu) for n in (4, 5) for p in range(1, n - 1)
             for mu in genus0_signatures(n, p, -9, 4)]
    specs += genus1_family(range(2, 7))
    specs += [connected(1, (k, -k)) for k in range(2, 5)]
    specs += [connected(2, (2,)), connected(2, (1, 1)), residue_pair_demo()]

    def size(spec):
        orders = [o for c in spec["components"] for o in c["orders"]]
        n = len(orders)
        rank = sum(2 * c["genus"] + len(c["orders"]) - 1
                   for c in spec["components"]) - 1
        return (rank, n, sum(abs(o) for o in orders), label(spec))
    return sorted(specs, key=size)


CLI_COMMANDS = {"info": 0.20, "divisors": 0.15, "profiles": 0.10, "chi": 0.20,
                "xi-top": 0.15, "c1": 0.10, "chern": 0.10}


def queries_diagnostics() -> list[tuple[str, dict]]:
    """Requests whose correct answer is a diagnostic (exit code 1): genus-1
    strata with an order-0 point and one pole, (k,0,-k), have no fixture
    for their top xi-power; (1,-1) has a simple pole as its only pole and is
    not realizable."""
    out = [(cmd, connected(1, (k, 0, -k)))
           for k in (2, 3, 4) for cmd in ("chi", "xi-top", "chern")]
    out += [(cmd, connected(1, (1, -1)))
            for cmd in ("divisors", "profiles", "chi", "xi-top", "c1", "chern")]
    return out


# ---------------------------------------------------------------------------
# operation lists
# ---------------------------------------------------------------------------

def _op(kind: str, spec: dict, **kw) -> dict:
    return {"kind": kind, "spec": spec, "label": label(spec), **kw}


def _draw_band(rng: random.Random, pool: list[dict], weight: dict, count: int,
               center: float, width: float) -> list[dict]:
    """count distinct strata whose reference costs each lie within width (a
    share) of center and sum to within 3% of count * center, drawn
    uniformly among all such groups.  Every draw then does about the same
    work, and so does every operation of a kind."""
    band = [s for s in pool if abs(weight[label(s)] - center) <= width * center]
    groups = [g for g in itertools.combinations(band, count)
              if abs(sum(weight[label(s)] for s in g) - count * center)
              <= 0.03 * count * center]
    return list(rng.choice(groups))


def euler_sweep(rng: random.Random, ref: dict) -> list[dict]:
    """chi, then the Chern polynomial, of two genus-0 strata with a reference
    cost of 1.25 s +- 15% (58 of the 127 strata, around the pool's median)
    and four genus-1 strata of 105 ms +- 15% (8 of 19).  Sorted by
    latency, a child's twelve operations fall into four kinds: genus-1
    chern, genus-1 chi, genus-0 chern, genus-0 chi, with 4, 4, 2 and 2
    operations.  The median and the 75th percentile then sit in the middle
    of a kind, not on the edge between two."""
    weight = ref["euler_cost_ms"]
    strata = _draw_band(rng, euler_genus0_pool(), weight, 2, 1250.0, 0.15)
    strata += _draw_band(rng, euler_genus1_pool(), weight, 4, 105.0, 0.15)
    rng.shuffle(strata)
    return [_op(kind, s) for s in strata for kind in ("chi", "chern")]


def products(rng: random.Random, ref: dict) -> list[dict]:
    """For every stratum of both pools: top powers of random divisors,
    random divisor pairs in both orders, and random normal bundles through
    both routes, all filled up with xi to top degree."""
    kappas = ref["divisor_kappas"]
    ops = []
    for spec, n_power, n_pair, n_nb in (
            [(s, 1, 3, 1) for s in products_genus0_pool()]
            + [(s, 1, 1, 1) for s in products_genus1_pool()]):
        divs = kappas[label(spec)]
        n = len(divs)
        mine = [_op("power", spec, div=i)
                for i in rng.sample(range(n), min(n_power, n))]
        for a, b in rng.sample(list(itertools.combinations(range(n), 2)), n_pair):
            mine += [_op("pair", spec, a=a, b=b), _op("pair", spec, a=b, b=a)]
        for i in rng.sample(range(n), min(n_nb, n)):
            mine.append(_op("nb", spec, div=i, edge=None))
            mine += [_op("nb", spec, div=i, edge=e) for e in range(len(divs[i]))]
        rng.shuffle(mine)
        ops += mine
    return ops


def _stratified(rng: random.Random, items: list, weights: list, n: int) -> list:
    """n draws from items by weight, stratified: each item comes
    floor(n * share) times and the remaining draws fall on items by their
    leftover shares.  Two draws then differ in the rare items and in
    order, not in how often a common item comes."""
    total = sum(weights)
    exact = [n * w / total for w in weights]
    out = [item for item, e in zip(items, exact) for _ in range(int(e))]
    out += rng.choices(items, [e - int(e) for e in exact], k=n - len(out))
    return out


def queries(rng: random.Random, ref: dict, n_requests: int = 2500) -> list[dict]:
    """A closed-loop request stream: Zipf(1.1) popularity over the pool in
    its size order, a fixed command mix, and 5% diagnostic requests, drawn
    stratified and shuffled."""
    pool = queries_pool()
    pairs = [(spec, cmd) for spec in pool for cmd in CLI_COMMANDS]
    weights = [CLI_COMMANDS[cmd] / (rank + 1) ** 1.1
               for rank in range(len(pool)) for cmd in CLI_COMMANDS]
    n_diag = n_requests // 20
    diag = queries_diagnostics()
    ops = [_op("cli", spec, cmd=cmd, expect_rc=0)
           for spec, cmd in _stratified(rng, pairs, weights, n_requests - n_diag)]
    ops += [_op("cli", spec, cmd=cmd, expect_rc=1)
            for cmd, spec in _stratified(rng, diag, [1.0] * len(diag), n_diag)]
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, child: int, ref: dict) -> list[dict]:
    """The operation list of one child of a run; each child of a run gets
    its own draw, so a run averages over several draws."""
    rng = random.Random(f"{workload}/{seed}/{child}")
    return {"euler-sweep": euler_sweep, "products": products,
            "queries": queries}[workload](rng, ref)
