"""Sparse Markowitz elimination: the tests' reference for exact integer ranks.

Rows are eliminated one pivot at a time, each pivot the unit entry with
the least fill (the product of the other entries in its row and in its
column), falling back to an exact Fraction pivot when no unit entry
remains.  ``formlap.dec`` computes ranks by a column reduction instead;
the tests compare the two eliminations.
"""

from fractions import Fraction

import scipy.sparse


def reference_rank(matrix: scipy.sparse.spmatrix) -> int:
    """Exact rank of an integer matrix over Q.

    Sparse elimination preferring unit pivots (no fractions appear then);
    falls back to exact fraction pivoting when no unit entry remains.
    """
    coo = matrix.tocoo()
    rows: dict[int, dict[int, Fraction | int]] = {}
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if v:
            rows.setdefault(int(r), {})[int(c)] = int(v)
    col_rows: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    rank = 0
    while rows:
        best = None
        for r, row in rows.items():
            for c, v in row.items():
                if v == 1 or v == -1:
                    fill = (len(row) - 1) * (len(col_rows[c]) - 1)
                    if best is None or fill < best[0]:
                        best = (fill, r, c)
                        if fill == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            r = next(iter(rows))
            c = next(iter(rows[r]))
            best = (0, r, c)
        _, pr, pc = best
        pivot_row = rows.pop(pr)
        pv = pivot_row[pc]
        for c in pivot_row:
            col_rows[c].discard(pr)
        for r in list(col_rows.get(pc, ())):
            row = rows[r]
            factor = row[pc] * pv if pv in (1, -1) else Fraction(row[pc], pv)
            for c, v in pivot_row.items():
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                    col_rows.setdefault(c, set()).add(r)
                else:
                    if c in row:
                        del row[c]
                        col_rows[c].discard(r)
            if not row:
                del rows[r]
        col_rows.pop(pc, None)
        rank += 1
    return rank
