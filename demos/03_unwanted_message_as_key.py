"""A message nobody wants can be the thing that makes security possible.

One receiver knows x2 and wants x1.  Nobody wants x2, so classical
reasoning would delete it -- but then any working codeword hands x1
to everyone, eavesdroppers included.  Kept in the system, x2 pads the
broadcast: c = x1 + x2 serves the receiver and tells an eavesdropper
with no side information nothing at all.
"""

from secix import (
    AccessStructure,
    Instance,
    Receiver,
    check_security,
    decide,
    strip_unwanted,
    to_dot,
)

instance = Instance(2, 2, (Receiver({2}, {1}),))
nothing_held = AccessStructure.explicit([[]])

print("bipartite graph (DOT):")
print(to_dot(instance, nothing_held))

verdict = decide(instance, nothing_held)
print(f"with the unwanted message kept: {verdict.answer}")
print(f"  certificate generator: {verdict.code.generator.tolist()}  (c = x1 + x2)")
print(f"  oracle: {'secure' if check_security(verdict.code, instance, nothing_held).secure else 'leaks'}")

stripped, stripped_acc = strip_unwanted(instance, nothing_held)
print(f"\nafter stripping unwanted messages: m = {stripped.m}, "
      f"receiver knows {sorted(stripped.receivers[0].knows)}")
stripped_verdict = decide(stripped, stripped_acc)
print(f"verdict: {stripped_verdict.answer} "
      f"({stripped_verdict.certificate.to_dict()['type']} certificate)")
print("\nThe acyclic receiver/message graph forces every working code to")
print("reveal all messages, so removing the 'useless' message destroyed")
print("the only available key.")
