"""Brute force confirms the optimum: nothing shorter than m - K works.

The search enumerates every generator matrix of a given width over
GF(2) and keeps the first one that both decodes everywhere and passes
the exact security check.  On an instance with a complementary
minimal receiver the construction's length m - K is provably optimal,
and the search agrees from the other direction: one width down, the
entire space contains nothing usable.  The search scans generators in
lexicographic order of their row-major entries, so the winner's
position in that order is its entries read as a base-q number, plus 1.
"""

from secix import (
    AccessStructure,
    Instance,
    Receiver,
    length_bounds,
    search_linear,
)

instance = Instance(2, 4, (
    Receiver({3, 4}, {1, 2}),   # knows 2 messages, wants the other 2
    Receiver({1, 2}, {3}),
))
nothing_held = AccessStructure.explicit([[]])

lower, upper = length_bounds(instance, nothing_held)
print(f"analytic bounds on the secure codelength: lower={lower}, upper={upper}")

for width in (upper, upper - 1):
    found = search_linear(instance, nothing_held, width)
    space = instance.q ** (instance.m * width)
    if found is None:
        print(f"width {width}: searched all {space} generators, none works")
    else:
        rows = found.generator.tolist()
        index = 0
        for entry in (e for row in rows for e in row):
            index = index * instance.q + entry
        print(f"width {width}: first working generator, number {index + 1} of {space} in lexicographic order")
        for j, row in enumerate(rows, start=1):
            print(f"  message {j}: {row}")

print("\nThe exhaustive result matches the counting argument: a receiver")
print("that wants everything it lacks forces at least m - K symbols.")
