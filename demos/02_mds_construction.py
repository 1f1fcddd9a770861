"""The MDS broadcast: one construction, three guarantees.

For an instance where every receiver knows at least K messages, a
Vandermonde generator of width m - K gives a code that
  (1) every receiver can decode,
  (2) withstands any eavesdropper holding up to K - 1 messages,
  (3) cannot be beaten in length when some minimal receiver wants
      exactly what it lacks.
"""

import itertools

from secix import (
    AccessStructure,
    Instance,
    Receiver,
    check_security,
    construct_mds_code,
    decode,
    length_bounds,
    security_level,
)

instance = Instance(5, 4, (
    Receiver({3, 4}, {1, 2}),      # knows 2, wants the complement
    Receiver({1, 2, 4}, {3}),
    Receiver({1, 2, 3}, {4}),
))

code = construct_mds_code(instance)
print(f"messages: {instance.m} over GF({code.q}), codeword length: {code.length}")
print("generator rows:")
for j, row in enumerate(code.generator.tolist(), start=1):
    print(f"  message {j}: {row}")

# (1) decodability, exhaustively
failures = 0
for x in itertools.product(range(code.q), repeat=instance.m):
    word = code.encode(x)
    for i, rec in enumerate(instance.receivers, start=1):
        side = tuple(x[j - 1] for j in sorted(rec.knows))
        got = decode(code, instance, i, word, side)
        if got != tuple(x[j - 1] for j in sorted(rec.wants)):
            failures += 1
print(f"\ndecode failures over all {code.q ** instance.m} message vectors: {failures}")

# (2) the provable level, and the oracle's agreement at each level
level = security_level(code)
print(f"provable access level: {level}")
for t in range(instance.m):
    secure = check_security(code, instance, AccessStructure.t_level(t)).secure
    print(f"  oracle at level {t}: {'secure' if secure else 'leaks'}")

# (3) length bounds
lower, upper = length_bounds(instance, AccessStructure.t_level(1))
print(f"codelength bounds at level 1: lower={lower}, upper={upper}")
print("receiver 1 wants exactly what it lacks, so the bound is tight.")
