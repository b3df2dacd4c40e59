"""Reference arithmetic and geometry written apart from the package.

Everything the output checks compare against is computed here from first
principles: GF(p^t) tables from polynomial arithmetic modulo the Conway
polynomial, Gaussian binomials, point ranks from the documented rank
order, brute-force traces of small point sets on every line and every
hyperplane, and the blow-down of a small-side subspace to the big side.
Nothing in this module imports the package.
"""

import itertools
from fractions import Fraction

import numpy as np

# Conway polynomials, constant term first (standard published table).
CONWAY = {
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (7, 2): (3, 6, 1),
}


def gaussian_binomial(m, r, q):
    """Number of r-dimensional subspaces of GF(q)^m, by the product formula."""
    if r < 0 or r > m:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def theta(n, q):
    """Number of points of PG(n, q)."""
    return (q ** (n + 1) - 1) // (q - 1)


class Field:
    """GF(p^t) on integer codes: code = sum of coefficient_i * p^i."""

    def __init__(self, p, t):
        self.p, self.t, self.q = p, t, p ** t
        q = self.q
        digits = [[(c // p ** i) % p for i in range(t)] for c in range(q)]

        def encode(coeffs):
            return sum((c % p) * p ** i for i, c in enumerate(coeffs))

        def polymul(a, b):
            prod = [0] * (2 * t - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] += x * y
            if t > 1:
                mod = CONWAY[(p, t)]
                for d in range(2 * t - 2, t - 1, -1):
                    c = prod[d] % p
                    if c:
                        for i in range(t + 1):
                            prod[d - t + i] -= c * mod[i]
            return encode(prod[:t])

        self.add = np.array([[encode([x + y for x, y in zip(digits[a],
                                                            digits[b])])
                              for b in range(q)] for a in range(q)])
        self.mul = np.array([[polymul(digits[a], digits[b])
                              for b in range(q)] for a in range(q)])
        self.inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            self.inv[a] = int(np.nonzero(self.mul[a] == 1)[0][0])

    def dot(self, left, right):
        """Matrix of dot products left[i] . right[j] over the field."""
        acc = np.zeros((left.shape[0], right.shape[0]), dtype=np.int64)
        for j in range(left.shape[1]):
            acc = self.add[acc, self.mul[left[:, j, None], right[None, :, j]]]
        return acc

    def normalize(self, vecs):
        """Scale each nonzero row so its first nonzero entry is 1."""
        lead = (vecs != 0).argmax(axis=1)
        lv = vecs[np.arange(vecs.shape[0]), lead]
        return self.mul[vecs, self.inv[lv][:, None]]


def ranks(vecs, q):
    """Point ranks of normalized row vectors: fewer leading zeros means a
    later block, and inside a block the tail reads as a base-q numeral."""
    n = vecs.shape[1] - 1
    lead = (vecs != 0).argmax(axis=1)
    out = np.zeros(vecs.shape[0], dtype=np.int64)
    for i, row in enumerate(vecs.tolist()):
        l = int(lead[i])
        tail = 0
        for c in row[l + 1:]:
            tail = tail * q + c
        out[i] = (q ** (n - l) - 1) // (q - 1) + tail
    return out


def all_points(n, q):
    """Every normalized vector of PG(n, q), listed by rank."""
    rows = []
    for lead in range(n, -1, -1):
        for tail in itertools.product(range(q), repeat=n - lead):
            rows.append([0] * lead + [1] + list(tail))
    return np.array(rows, dtype=np.int64)


def all_lines(n, q):
    """Canonical two-row bases (u, v) of every line of PG(n, q)."""
    out = []
    for i, j in itertools.combinations(range(n + 1), 2):
        free_u = [c for c in range(i + 1, n + 1) if c != j]
        free_v = list(range(j + 1, n + 1))
        for fu in itertools.product(range(q), repeat=len(free_u)):
            for fv in itertools.product(range(q), repeat=len(free_v)):
                u = [0] * (n + 1)
                v = [0] * (n + 1)
                u[i] = v[j] = 1
                for c, x in zip(free_u, fu):
                    u[c] = x
                for c, x in zip(free_v, fv):
                    v[c] = x
                out.append((u, v))
    return out


class BruteTraces:
    """Every line and every hyperplane of PG(n, q) against one point set."""

    def __init__(self, field, n, point_ranks):
        q = field.q
        pts = all_points(n, q)
        mask = np.zeros(pts.shape[0], dtype=bool)
        mask[np.asarray(point_ranks, dtype=np.int64)] = True
        self.n, self.q, self.mask = n, q, mask
        lines = all_lines(n, q)
        u = np.array([l[0] for l in lines], dtype=np.int64)
        v = np.array([l[1] for l in lines], dtype=np.int64)
        members = [v]
        for lam in range(q):
            members.append(field.add[u, field.mul[lam, v]])
        # row i lists the q+1 point ranks of line i
        self.line_points = np.stack(
            [ranks(field.normalize(m), q) for m in members], axis=1)
        self.line_sizes = mask[self.line_points].sum(axis=1)
        incident = field.dot(pts, pts) == 0        # covector x point
        self.hyperplane_sizes = (incident & mask[None, :]).sum(axis=1)

    def line_counts_through(self, size):
        """Per point rank: lines of exactly this trace size through it."""
        sel = self.line_points[self.line_sizes == size]
        return np.bincount(sel.reshape(-1), minlength=self.mask.size)


def blow_down_ranks(big, small_p, h, n, rows):
    """Big-side point ranks of every point of the small-side subspace with
    the given basis rows (GF(small_p) entries, h digits per big coordinate)."""
    rows = np.asarray(rows, dtype=np.int64)
    r = rows.shape[0]
    combos = np.array(list(itertools.product(range(small_p), repeat=r))[1:],
                      dtype=np.int64)
    vecs = (combos @ rows) % small_p
    weights = small_p ** np.arange(h)
    codes = np.stack([vecs[:, j * h:(j + 1) * h] @ weights
                      for j in range(n + 1)], axis=1)
    codes = codes[(codes != 0).any(axis=1)]
    return np.unique(ranks(big.normalize(codes), big.q))


def valuation(value, p):
    if value == 0:
        return None
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def frac(x):
    """Scorecard number (int or 'a/b' string) as a Fraction."""
    if isinstance(x, str):
        a, b = x.split("/")
        return Fraction(int(a), int(b))
    return Fraction(x)
