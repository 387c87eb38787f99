"""Integral transformations between forms.

The workhorse is the complete search for R(f, g, d) = all integer T with
T^t (2M_f) T = d^2 (2M_g).  With d = 1 and the roles swapped it yields
subform witnesses; restricted to unimodular T it decides equivalence.
"""

import ternrep as tr
from ternrep import _mat

f = tr.named_form("S4f")
g = tr.named_form("S4g")

T = tr.subform_witness(f, g)
print("f is a subform of g, witnessed by T with T^t M_g T = M_f:")
for row in T:
    print("   ", row)
check = _mat.congruence(T, tr.doubled_gram(g))
print("  identity verified:", check == tr.doubled_gram(f))
print("  so every value of f is a value of g")

print("\nComplete transform sets:")
for d in (4, 12):
    ts = tr.find_transforms(f, g, d)
    print(f"  |R(f, g, {d})| = {len(ts)}")

print("\nOne member of R(f, g, 4):")
for row in _mat.from_rows(tr.find_transforms(f, g, 4).matrices[-1]):
    print("   ", row)

print("\nScaled automorphisms R(g, g, 12) exist too:")
autos = tr.scaled_automorphisms(g, 12)
print(f"  |R(g, g, 12)| = {len(autos)}")

print("\nEquivalence testing is exact: absence of a witness is a proof.")
print("  is_isometric(f, g) =", tr.is_isometric(f, g))
moved = tr.change_of_basis(f, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
print("  after a unimodular change of variables:", tr.is_isometric(f, moved) is not None)
