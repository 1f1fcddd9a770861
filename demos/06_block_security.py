"""Protecting pairs of messages jointly costs exactly one access level.

Single-message security asks that no individual unknown message leak;
block security of size b asks the same of every b-subset jointly.  The
existence threshold drops from t < K to t <= K - b: each extra unit of
block size eats one unit of eavesdropper tolerance.

Here every receiver knows 3 of 4 messages (K = 3), so blocks of two
are safe up to access level 1 and unsafe at level 2 -- even though
single messages stay safe there.
"""

from secix import (
    AccessStructure,
    Instance,
    Receiver,
    check_security,
    decide,
)

full = {1, 2, 3, 4}
instance = Instance(5, 4, tuple(Receiver(full - {i}, {i}) for i in sorted(full)))

print("existence verdicts (b = block size, t = access level):")
for b in (1, 2, 3):
    row = []
    for t in range(4):
        verdict = decide(instance, AccessStructure.t_level(t), b=b)
        row.append(f"t={t}:{verdict.answer:>3s}")
    print(f"  b={b}:  " + "  ".join(row))

yes = decide(instance, AccessStructure.t_level(1), b=2)
code = yes.code
print(f"\ncertificate at b=2, t=1: generator {code.generator.tolist()}")
for t, b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
    rep = check_security(code, instance, AccessStructure.t_level(t), b=b)
    print(f"  oracle t={t} b={b}: {'secure' if rep.secure else 'leaks'}")

print("\nAt t=2, b=2 the eavesdropper holding two messages learns the sum")
print("of the other two from the codeword: no pair is jointly protected,")
print("although each single message alone still looks uniform.")
