"""Reference for `secix.gf.rref`: Gauss-Jordan elimination over GF(q)
on lists of Python ints, one entry at a time.  It uses no numpy, so the
reduced form it gives is independent of the program's vectorized
update; the reduced row-echelon form of a matrix is unique, so any
correct elimination must agree with it entry for entry."""


def rref(q: int, rows) -> tuple:
    """(reduced rows as lists of ints in [0, q), pivot columns) of a
    matrix given as a list of rows of integers."""
    work = [[int(x) % q for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = pow(work[r][c], q - 2, q)
        work[r] = [x * inv % q for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                f = row[c]
                work[i] = [(x - f * y) % q for x, y in zip(row, work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, tuple(pivots)
