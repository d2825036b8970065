"""
Closed-braid invariants in five minutes
=======================================

Parse a braid word, read off the numbers attached to its closure, and
take the link apart component by component.
"""

from braidcalc.words import parse_word
from braidcalc.links import alexander_polynomial, components, linking_matrix

# the positive trefoil as a 2-strand braid
trefoil = parse_word("s1^3")
print("word:", trefoil)
print("exponent sum:", trefoil.exponent_sum())
print("braid index:", trefoil.strands)
print("self-linking:", trefoil.bennequin())
print("alexander:", alexander_polynomial(trefoil))
print()

# a 3-strand word whose closure has two components: a round strand
# and a clasped pair that swap roles under a negative flype
link = parse_word("n=3 s1^3 s2^4 s1^-5 s2^-1")
print("word:", link)
for part in components(link):
    strands = ",".join(str(s) for s in part.members)
    print(
        f"component on strands {{{strands}}}: "
        f"writhe {part.self_writhe}, self-linking {part.bennequin}"
    )

matrix = linking_matrix(link)
print("linking number between the two components:", matrix.between(0, 1))

# the closure's total self-linking splits over the pieces
total = sum(part.bennequin for part in components(link)) + 2 * matrix.total()
print("sum of parts + 2*linking:", total)
print("self-linking of the whole closure:", link.bennequin())
