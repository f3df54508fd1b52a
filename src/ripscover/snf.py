"""Exact integer linear algebra: Smith form with transforms and Hermite
lattices.

Everything here works on plain Python ints, so results are exact at any size.
"""

from __future__ import annotations


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat: list[list[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (diag, left, left_inv) where diag is the full invariant-factor
    diagonal (nonnegative, each dividing the next) and left * mat * C == D
    for some unimodular C that is not tracked.  left_inv is the inverse of
    left, so quotient-group coordinates z = left @ x have representatives
    given by the columns of left_inv.
    """
    m = len(mat)
    k = len(mat[0]) if m else 0
    a = [list(map(int, row)) for row in mat]
    left = identity_matrix(m)
    left_inv = identity_matrix(m)

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]
        for r in range(m):
            left_inv[r][i], left_inv[r][j] = left_inv[r][j], left_inv[r][i]

    def row_neg(i):
        a[i] = [-v for v in a[i]]
        left[i] = [-v for v in left[i]]
        for r in range(m):
            left_inv[r][i] = -left_inv[r][i]

    def row_add(i, j, c):
        # row_i += c * row_j; inverse op on left_inv is col_j -= c * col_i
        ai, aj = a[i], a[j]
        for t in range(k):
            ai[t] += c * aj[t]
        li, lj = left[i], left[j]
        for t in range(m):
            li[t] += c * lj[t]
        for r in range(m):
            left_inv[r][j] -= c * left_inv[r][i]

    def col_swap(i, j):
        if i == j:
            return
        for row in a:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, c):
        for row in a:
            row[i] += c * row[j]

    t = 0
    limit = min(m, k)
    while t < limit:
        # locate a smallest nonzero entry in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, k):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
                    if v == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear column t with row ops
            dirty = False
            for i in range(m):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t]:
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            # clear row t with column ops
            for j in range(k):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j]:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot
            fix = None
            d = a[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, k):
                    if a[i][j] % d:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_add(t, fix, 1)
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    diag = [a[i][i] if i < k else 0 for i in range(limit)]
    return diag, left, left_inv


def snf_invariants(mat: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, divisibility-ordered."""
    diag, _, _ = smith_normal_form(mat)
    return [d for d in diag if d != 0]


def _combine(a: int, u: dict[int, int], b: int, v: dict[int, int]) -> dict[int, int]:
    """a * u + b * v for sparse {index: coefficient} vectors."""
    out = {k: a * c for k, c in u.items()}
    for k, c in v.items():
        out[k] = out.get(k, 0) + b * c
    return {k: c for k, c in out.items() if c}


class IntLattice:
    """A subgroup of Z^m kept as a Hermite-style row basis.

    Rows have strictly increasing pivot columns, positive pivots, and entries
    above each pivot reduced into [0, pivot).  Two equal subgroups always
    produce identical bases, so equality is comparison of the rows.  Each row
    carries its combination of the vectors added so far, as {input index:
    weight}, so a member's coordinates in those vectors come out of the same
    reduction that tests membership.
    """

    __slots__ = ("m", "rows", "combos", "inputs", "_pivot_of_col")

    def __init__(self, m: int):
        self.m = m
        self.rows: list[list[int]] = []
        self.combos: list[dict[int, int]] = []
        self.inputs = 0
        self._pivot_of_col: dict[int, int] = {}

    @classmethod
    def from_vectors(cls, m: int, vectors) -> "IntLattice":
        lat = cls(m)
        for v in vectors:
            lat.add(v)
        lat.reduce()
        return lat

    def add(self, vec) -> None:
        vec = list(map(int, vec))
        if len(vec) != self.m:
            raise ValueError("vector length mismatch")
        combo = {self.inputs: 1}
        self.inputs += 1
        for j in range(self.m):
            if not vec[j]:
                continue
            p = self._pivot_of_col.get(j)
            if p is None:
                where = 0
                while where < len(self.rows) and self._pivot_col(self.rows[where]) < j:
                    where += 1
                self.rows.insert(where, vec)
                self.combos.insert(where, combo)
                self._reindex()
                return
            row = self.rows[p]
            aa, bb = row[j], vec[j]
            if bb % aa == 0:
                q = bb // aa
                for jj in range(j, self.m):
                    vec[jj] -= q * row[jj]
                combo = _combine(1, combo, -q, self.combos[p])
            else:
                x, y, g = xgcd(aa, bb)
                ag, bg = aa // g, bb // g
                for jj in range(j, self.m):
                    rjj, vjj = row[jj], vec[jj]
                    row[jj] = x * rjj + y * vjj
                    vec[jj] = -bg * rjj + ag * vjj
                rc = self.combos[p]
                self.combos[p], combo = _combine(x, rc, y, combo), _combine(-bg, rc, ag, combo)

    @staticmethod
    def _pivot_col(row) -> int:
        for j, v in enumerate(row):
            if v:
                return j
        return len(row)

    def _reindex(self) -> None:
        self._pivot_of_col = {self._pivot_col(r): i for i, r in enumerate(self.rows)}

    def reduce(self) -> None:
        """Canonicalize: positive pivots, above-pivot entries in [0, pivot)."""
        for i, row in enumerate(self.rows):
            j = self._pivot_col(row)
            if row[j] < 0:
                self.rows[i] = [-v for v in row]
                self.combos[i] = {k: -c for k, c in self.combos[i].items()}
        for i in range(len(self.rows) - 1, -1, -1):
            row = self.rows[i]
            j = self._pivot_col(row)
            for above in range(i):
                q = self.rows[above][j] // row[j]
                if q:
                    self.rows[above] = [u - q * v for u, v in zip(self.rows[above], row)]
                    self.combos[above] = _combine(1, self.combos[above], -q, self.combos[i])
        self._reindex()

    def coordinates(self, vec) -> list[int] | None:
        """Weights w, one per added vector, with sum(w[i] * vector i) == vec;
        None when vec is not in the lattice."""
        vec = list(map(int, vec))
        weights: dict[int, int] = {}
        for j in range(self.m):
            if not vec[j]:
                continue
            p = self._pivot_of_col.get(j)
            if p is None:
                return None
            row = self.rows[p]
            if vec[j] % row[j]:
                return None
            q = vec[j] // row[j]
            for jj in range(j, self.m):
                vec[jj] -= q * row[jj]
            weights = _combine(1, weights, q, self.combos[p])
        return [weights.get(k, 0) for k in range(self.inputs)]

    def contains(self, vec) -> bool:
        return self.coordinates(vec) is not None

    def issubset(self, other: "IntLattice") -> bool:
        return all(other.contains(r) for r in self.rows)

    def is_trivial(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, IntLattice) and self.m == other.m and self.rows == other.rows

    def basis(self) -> list[list[int]]:
        return [r[:] for r in self.rows]
