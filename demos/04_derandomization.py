"""Random keys add nothing to linear codes: project them away.

Start from a keyed linear broadcast c = [x1 + x2 + y, y], where y is a
fresh uniform key that receivers and eavesdroppers never see.  The
receiver (knows x2, wants x1) decodes via d = (1, 1): the key cancels.  That cancellation is the
whole story -- every valid decoding vector must be killed by the key
matrix, so restricting the codeword to the key matrix's nullspace keeps
every receiver working while only ever shrinking what an eavesdropper
sees.
"""

from secix import (
    AccessStructure,
    FieldMatrix,
    Instance,
    LinearCode,
    Receiver,
    check_decodability,
    check_security,
    derandomize,
)

instance = Instance(2, 2, (Receiver({2}, {1}),))
keyed = LinearCode(
    FieldMatrix(2, [[1, 0], [1, 0]]),   # messages feed only the first symbol
    FieldMatrix(2, [[1, 1]]),           # the key pads both symbols
)

print(f"keyed code: length {keyed.length}, key symbols {keyed.key_dim}")
print(f"  decodable: {check_decodability(keyed, instance)}")

deterministic = derandomize(keyed, instance)
print(f"\nderandomized: length {deterministic.length} (was {keyed.length})")
print(f"  generator: {deterministic.generator.to_lists()}  (c = x1 + x2)")

nothing_held = AccessStructure.explicit([[]])
for name, code in [("keyed", keyed), ("deterministic", deterministic)]:
    dec = all(check_decodability(code, instance))
    sec = check_security(code, instance, nothing_held).secure
    print(f"  {name:13s} decodable={dec}  secure={sec}")

print("\nSame guarantees, one symbol shorter, and no randomness to manage.")
