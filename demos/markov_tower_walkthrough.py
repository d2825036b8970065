"""Chain Markov moves into a tower and let the validator audit it.

Transversal mode admits conjugation, exchange moves, and positive
(de)stabilizations only; the audit tracks how many vertices and
separating arcs each move contributes and checks the bookkeeping
identity against the self-linking drift.
"""

from braidcalc.words import parse_word
from braidcalc.moves import (
    ConjugateBy,
    Destabilize,
    Stabilize,
    tower_to_json,
    validate_tower,
)

start = parse_word("n=3 s1 s2 s1")

moves = (
    Stabilize(1),
    ConjugateBy(parse_word("n=4 s1^-1 s2")),
    Destabilize(1),
)

# a tower is its initial word and its moves; replay them to see the states
state = start
print(f"state 0: {state}  (beta={state.bennequin()})")
for step, move in enumerate(moves, start=1):
    state = move.apply(state)
    print(f"state {step}: {state}  (beta={state.bennequin()})")

report = validate_tower("transversal", start, moves)
print("valid:", report.ok)
c = report.counts
print(f"counts: v+={c.v_plus} v-={c.v_minus} s+={c.s_plus} s-={c.s_minus}")
print("identity (s+ - s-) - (v+ - v-):", (c.s_plus - c.s_minus) - (c.v_plus - c.v_minus))
print()

# a negative stabilization changes the self-linking number, so the
# transversal validator must refuse it
bad = (Stabilize(-1),)
report = validate_tower("transversal", start, bad)
print("negative stabilization, transversal mode:", "valid" if report.ok else "rejected")
for code, step in report.problems:
    print(f"  step {step}: {code}")

# the same tower is fine as a purely topological deformation
report = validate_tower("topological", start, bad)
print("negative stabilization, topological mode:", "valid" if report.ok else "rejected")
print()

print("serialized tower:")
print(tower_to_json("transversal", start, bad))
