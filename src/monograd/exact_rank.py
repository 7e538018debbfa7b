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

Each reduced column that claims row r is a combination of the input
columns with a nonzero lowest entry at r.  For a boundary map d_{s+1}
that combination is a cycle, so column r of d_s is a combination of the
columns of d_s before it.  Leaving every such column out of d_s keeps
its rank over Q: this is clearing (Chen-Kerber, "Persistent homology
computation with a twist", 2011), and `pivot_rows` collects the rows it
needs.

The tests check it against a dense fraction-free (Bareiss) elimination.
"""

from math import gcd


def sparse_rank(columns, pivot_rows=None):
    """Rank of a sparse integer matrix given as columns: dicts row->value.

    If `pivot_rows` is a set, the lowest rows of the reduced nonzero
    columns are added to it."""
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
    if pivot_rows is not None:
        pivot_rows.update(pivots)
    return len(pivots)
