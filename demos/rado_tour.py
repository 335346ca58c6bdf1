#!/usr/bin/env python3
"""A walk through the bit-adjacency graph on the natural numbers.

Vertices are natural numbers; u < v are adjacent exactly when bit u of
v is set.  This single rule produces a graph with the extension
property: for any two disjoint finite vertex sets there is a fresh
vertex adjacent to all of the first and none of the second, and one
such witness can be written down directly.  Everything the package does
with this graph (automorphisms, embeddings, witnesses) runs on finite
memos over this rule, so the infinite graph never has to exist.
"""

from clonelab import (
    automorphism_from,
    check_conjugation_transfer,
    BackAndForthInterpolator,
    HomMap,
    RADO,
    embedding_from,
    noncommuting_witness,
    rado_adjacency,
    rado_extension_witness,
    rado_graph,
    transitivity_witness,
)

structure = rado_graph()

# ---------------------------------------------------------------------
# 1. the adjacency rule and the extension property
# ---------------------------------------------------------------------

print("adjacency among 0..7 (rows/columns are vertices, 1 = edge):")
for u in range(8):
    row = [("." if u == v else str(int(rado_adjacency(u, v))))
           for v in range(8)]
    print("  " + " ".join(row))

like, unlike = [0, 2, 5], [1, 3]
w = rado_extension_witness(like, unlike)
print(f"\na vertex adjacent to {like} and not to {unlike}: {w}")
assert all(rado_adjacency(w, u) for u in like)
assert not any(rado_adjacency(w, v) for v in unlike)

# ---------------------------------------------------------------------
# 2. automorphisms grown from finite seeds
# ---------------------------------------------------------------------

# 0 and 1 are adjacent, 0 and 2 are not, so 0 -> 0, 1 -> 2 is not a
# partial isomorphism; 0 -> 1, 1 -> 0 is (adjacency is symmetric).
sigma = automorphism_from(structure, [(0, 1), (1, 0)])
print("\nsigma swaps 0 and 1; forcing more of its graph:")
for x in (2, 3, 4):
    print(f"  sigma({x}) = {sigma(x)}")
print("  backward too: sigma^-1(5) =", sigma.inverse(5))

# forcing is incremental and memoised
pair = (10, sigma(10))
print(f"  one more step: sigma({pair[0]}) = {pair[1]}")

# ---------------------------------------------------------------------
# 3. embeddings that avoid prescribed vertices
# ---------------------------------------------------------------------

emb = embedding_from(structure, avoid=[0, 1, 2])
image = [emb(x) for x in range(6)]


def short(v):
    # constructive witnesses grow fast; summarise the big ones
    return str(v) if v < 10 ** 6 else f"<{v.bit_length()}-bit vertex>"


print(f"\nan embedding avoiding {{0, 1, 2}}: "
      f"0..5 -> [{', '.join(short(v) for v in image)}]")
assert not set(image) & {0, 1, 2}

# ---------------------------------------------------------------------
# 4. the automorphism group in action
# ---------------------------------------------------------------------

f, g, c = transitivity_witness(structure, 3, 7)
print(f"\ntransitivity: f({c}) = {f(c)} and g({c}) = {g(c)}, "
      "so 3 and 7 lie in one orbit")

report = noncommuting_witness(structure, f)
print(f"trivial centre: after {report.probes_checked} probe(s), "
      f"found g with f(g({report.point})) = {report.left} but "
      f"g(f({report.point})) = {report.right}")

# ---------------------------------------------------------------------
# 5. conjugation transfers through interpolation here as well
# ---------------------------------------------------------------------

hom = HomMap(RADO, BackAndForthInterpolator(structure), theta=sigma)
transfer = check_conjugation_transfer(hom, emb.as_op(), [0, 1, 5, 9])
print(f"\nextension vs direct conjugation of the avoiding embedding "
      f"at 4 points: agree = {transfer['agree']}")
for check in transfer["checks"]:
    print(f"  at {check['point']}: both give {check['left']}")
