"""The escape argument, a complete pair proof, and its certificate.

The class 12n+2 of the S4 pair has 32 bad cosets.  The way out is a
scaled automorphism E of g (E^t M_g E = 144 M_g) that maps every bad
coset to an integral vector.  Iterating v -> (1/12) v E^t preserves
g-values, so a representation stuck in bad cosets forever would have to
lie on the axis of E, the one rational eigenline of every power of E;
the values there form the family 8 t^2, and f(1,0,0) = 8 swallows all
of it.
"""

import json

import ternrep as tr

f = tr.named_form("S4f")
g = tr.named_form("S4g")
cls = tr.ResidueClass(12, 2)

report = tr.precedes(f, g, cls)
escape = tr.build_escape(f, g, cls, report)
print("escape matrix E:")
for row in escape.matrix:
    print("   ", row)
print("  bad cosets handled:", len(report.bad))
print("  axis v:", tuple(escape.axis))
print(f"  exceptional value family m*t^2, m = g(v) = {escape.base}")
print(f"  witness: f{tuple(escape.witness)} = {escape.base}")

print("\nFull pair proof (subform one way, covering classes the other):")
proof = tr.prove_pair(f, g, empirical_bound=10**5)
print("  f in g via", type(proof.f_in_g).__name__)
print("  g in f via", type(proof.g_in_f).__name__, "with classes",
      [(p.cls.d, p.cls.a) for p in proof.g_in_f.classes])

blob = tr.emit(proof)
print(f"\ncertificate: {len(blob)} bytes of canonical JSON")
print("  checker verdict:", tr.check(blob))

tampered = json.loads(blob)
for rec in tampered["g_in_f"]["classes"]:
    if rec["escape"]:
        rec["escape"]["matrix"][0][0] += 1
print("  after tampering with one integer:", tr.check(tampered))
