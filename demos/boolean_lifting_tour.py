#!/usr/bin/env python3
"""A tour of conjugation lifting on two-element operation sets.

We close a handful of boolean operations under composition, conjugate
the whole family by the swap 0 <-> 1, and confirm the main mechanism of
the package: once the unary part of a surjective homomorphism acts by
conjugation and is weakly directed, the action at every higher arity is
forced, and the forcing can be replayed one witness at a time.
"""

from itertools import product

from clonelab import (
    Bijection,
    CloneHom,
    close_fragment,
    conjugate_op,
    enumerate_clone_homs,
    finite_carrier,
    is_weakly_directed,
    make_op,
    predict_from_unary_part,
    verify_conjugation_lifting,
    weakly_directed_witnesses,
)

carrier = finite_carrier(2)

# ---------------------------------------------------------------------
# 1. close a fragment: negation and AND generate every binary operation
# ---------------------------------------------------------------------

negation = make_op(carrier, 1, table=[1, 0])
conjunction = make_op(carrier, 2, table=[0, 0, 0, 1])

frag = close_fragment([negation, conjunction], max_arity=2)
print("generated from {not, and}, closed up to arity 2:")
for n in (1, 2):
    print(f"  arity {n}: {len(frag.ops(n))} operations")

unary = frag.unary_monoid()
print("unary part weakly directed:", is_weakly_directed(unary))

# weak directedness in action: one element reaches any pair of targets
c, (f1, f2) = weakly_directed_witnesses(unary, (0, 1))
print(f"  witness: c = {c}, f1(c) = {f1(c)}, f2(c) = {f2(c)}")

# ---------------------------------------------------------------------
# 2. conjugate the fragment by the swap and verify the lifting
# ---------------------------------------------------------------------

swap = Bijection.from_table(carrier, [1, 0])
xi = CloneHom.conjugation(frag, swap)

report = verify_conjugation_lifting(xi, swap)
print("\nconjugation by the swap:")
for name, ok in report.hypotheses.items():
    print(f"  {name}: {ok}")
print(f"  conclusion: {report.conclusion} "
      f"({report.checked} operations checked)")

# ---------------------------------------------------------------------
# 3. the two computation paths agree pointwise
# ---------------------------------------------------------------------

# Path one reconstructs the image of an operation from the unary part
# alone, via a weak-directedness witness.  Path two conjugates directly.
# Majority lives in the self-dual fragment generated with negation, so
# close that one up to arity 3 (it stays small).
majority = make_op(carrier, 3,
                   table=[1 if a + b + c >= 2 else 0
                          for a, b, c in product(range(2), repeat=3)])
self_dual = close_fragment([negation, majority], max_arity=3)
print("\nself-dual fragment from {not, majority}:",
      ", ".join(f"arity {n}: {len(self_dual.ops(n))}" for n in (1, 2, 3)))

sd_unary = self_dual.unary_monoid()
mismatches = 0
for targets in product(range(2), repeat=3):
    predicted = predict_from_unary_part(swap, sd_unary, majority, targets)
    direct = conjugate_op(swap, majority)(*targets)
    if predicted != direct:
        mismatches += 1
print("two-path agreement on majority: checked all "
      f"{2 ** 3} argument tuples, {mismatches} mismatches")

# ---------------------------------------------------------------------
# 4. how many homomorphisms are out there between small fragments
# ---------------------------------------------------------------------

disjunction = make_op(carrier, 2, table=[0, 1, 1, 1])
monotone = close_fragment([conjunction, disjunction], max_arity=2)
homs = enumerate_clone_homs(monotone, monotone)
print(f"\nendo-homomorphisms of the {{and, or}} fragment (arity <= 2): "
      f"{len(homs)}")
for hom in homs:
    and_image = list(hom.image(conjunction).table)
    or_image = list(hom.image(disjunction).table)
    print(f"  and -> {and_image}, or -> {or_image}, "
          f"surjective: {hom.is_surjective()}")
