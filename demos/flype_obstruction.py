"""How a flype can be detected from component data alone.

A negative flype carries the braid s1^a s2^b s1^c s2^-1 to
s1^a s2^-1 s1^c s2^b.  Both closures are the same topological link,
but when the closure has two components the move swaps which component
carries which self-linking number.  Any transversal isotopy between
the two sides would have to preserve those per-component numbers, so
the swap obstructs it.
"""

from braidcalc.words import parse_word
from braidcalc.links import alexander_polynomial
from braidcalc.templates import (
    component_correspondence,
    flype_template,
    instantiate,
    per_component_beta_delta,
)

template = flype_template(sign=-1)

# fill the three blocks with twist regions; the middle block R rides
# through the flype rotated half a turn
assignment = {
    "P": parse_word("n=2 s1^3"),
    "R": parse_word("n=2 s1^4"),
    "Q": parse_word("n=2 s1^-5"),
}

before = instantiate(template.plus, assignment)
after = instantiate(template.minus, assignment)
print("before flype:", before)
print("after flype: ", after)
print("alexander before:", alexander_polynomial(before))
print("alexander after: ", alexander_polynomial(after))
print()

pairing = component_correspondence(template, assignment)
print("component pairing across the move:", pairing)

print("component  beta before  beta after")
for cid, beta_plus, beta_minus in per_component_beta_delta(template, assignment):
    print(f"{cid:>9}  {beta_plus:>11}  {beta_minus:>10}")
print()
print("the two components trade self-linking numbers: that exchange is")
print("invisible to every single-component invariant, but it certifies")
print("that no transversal isotopy connects the two closed braids.")
