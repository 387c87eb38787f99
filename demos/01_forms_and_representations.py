"""Forms, their values, and bounded enumeration.

Two inequivalent forms can take exactly the same values.  This demo
introduces the pair behind the name "S4": evaluating the forms, counting
representations, and comparing their represented sets.
"""

import numpy as np

import ternrep as tr

f = tr.named_form("S4f")
g = tr.named_form("S4g")
print("f =", f.polynomial())
print("g =", g.polynomial())

print("\nGram matrices are kept doubled so everything stays integral:")
for row in tr.doubled_gram(f):
    print("   ", row)

print("\nBoth forms hit 392:")
print("  g(1,4,2) =", tr.evaluate(g, (1, 4, 2)))
print("  f(4,5,1) =", tr.evaluate(f, (4, 5, 1)))

print("\nAll representations of 392 by g:")
for v in tr.representations(g, 392).tolist():
    print("   ", tuple(v))

print("\nRepresentation counts r(n, f) for n <= 20:")
print("  ", tr.theta(f, 20).tolist())

print("\nRepresented sets up to 200:")
sf = tr.represented_set(f, 200)
sg = tr.represented_set(g, 200)
print("  f:", sf[:12].tolist(), "...")
print("  g:", sg[:12].tolist(), "...")
print("  equal up to 200?", np.array_equal(sf, sg))

print("\nAnd yet the forms are not equivalent:")
print("  is_isometric(f, g) =", tr.is_isometric(f, g))
