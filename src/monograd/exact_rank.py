"""Exact rank of integer matrices over the rationals.

`sparse_rank` is the production kernel: a fraction-free column reduction,
the one used for persistent homology (Edelsbrunner-Letscher-Zomorodian,
2002).  Columns are taken in order; each is reduced against the earlier
reduced column with the same lowest (largest-index) nonzero row until it
vanishes or claims that row as its own.  The rank is the number of
columns that claim a row.  Every step is an integer column operation
that keeps the column space over Q: a +-1 pivot is subtracted as is; any
other pivot p clears entry c through (p/g)*col - (c/g)*pivot with
g = gcd(p, c), after which the column is divided by its content.

`bareiss_rank` is a dense fraction-free elimination kept as an
independent oracle for tests.
"""

from math import gcd


def bareiss_rank(rows):
    """Rank of a dense integer matrix (list of lists), fraction-free."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f == 0 and p == prev:
                continue  # the update would leave this row unchanged
            row_i, row_r = m[i], m[r]
            for j in range(c, ncols):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
        prev = p
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def sparse_rank(columns):
    """Rank of a sparse integer matrix given as columns: dicts row->value."""
    pivots = {}  # lowest row -> (its entry, the rest of the reduced column)
    for column in columns:
        col = {r: v for r, v in column.items() if v}
        while col:
            low = max(col)
            c = col.pop(low)  # every step below cancels this entry exactly
            if low not in pivots:
                pivots[low] = c, col
                break
            p, tail = pivots[low]
            unit = p == 1 or p == -1
            if unit:
                f = c * p
            else:
                g = gcd(p, c)
                a, f = p // g, c // g
                for r in col:
                    col[r] *= a
            for r, v in tail.items():
                nv = col.get(r, 0) - f * v
                if nv:
                    col[r] = nv
                else:
                    del col[r]
            if not unit and col:
                g = gcd(*col.values())
                if g > 1:
                    for r in col:
                        col[r] //= g
    return len(pivots)
