"""Security against a bigger eavesdropper says nothing about a smaller one.

Four receivers each want their own message:

    receiver 1 knows {2}, wants 1      receiver 3 knows {2,4}, wants 3
    receiver 2 knows {1}, wants 2      receiver 4 knows {2,3}, wants 4

Two broadcast codes, two eavesdroppers.  The first code survives the
eavesdropper holding BOTH x3 and x4 but falls to the one holding only
x3; the second code does exactly the opposite.
"""

from secix import (
    AccessStructure,
    Instance,
    LinearCode,
    Receiver,
    check_decodability,
    check_security,
)

instance = Instance(2, 4, (
    Receiver({2}, {1}),
    Receiver({1}, {2}),
    Receiver({2, 4}, {3}),
    Receiver({2, 3}, {4}),
))

code_a = LinearCode(2, [[1, 0], [1, 0], [0, 1], [0, 1]])  # [x1+x2, x3+x4]
code_b = LinearCode(2, [[1, 0], [1, 1], [0, 1], [0, 1]])  # [x1+x2, x2+x3+x4]

holds_both = AccessStructure.explicit([[3, 4]])
holds_one = AccessStructure.explicit([[3]])

for name, code in [("[x1+x2, x3+x4]", code_a), ("[x1+x2, x2+x3+x4]", code_b)]:
    print(f"code {name}")
    print(f"  all receivers decode: {all(check_decodability(code, instance))}")
    for label, acc in [("{3,4}", holds_both), ("{3}", holds_one)]:
        rep = check_security(code, instance, acc)
        verdict = "secure" if rep.secure else "leaks"
        details = ""
        if not rep.secure:
            leaked = sorted({p.block[0] for p in rep.checks if not p.uniform})
            details = f" (message {leaked} readable)"
        print(f"  eavesdropper holding {label}: {verdict}{details}")
    print()

print("Shrinking the eavesdropper's holdings flipped both verdicts --")
print("security must be checked per access set, not per set size.")
