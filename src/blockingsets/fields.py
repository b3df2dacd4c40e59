"""Arithmetic in GF(p^t) with an explicit polynomial basis.

An element with coefficient vector (c_0, ..., c_{t-1}) w.r.t. the basis
(1, x, ..., x^{t-1}) is stored as the integer code sum(c_i * p^i).  Code 0 is
zero, code 1 is one and code p is the basis generator x.  The same integer is
the element's serialized form in every file format of this package.

The default modulus for GF(p^t) is the Conway polynomial from the shipped
table (data/conway_polynomials.txt), which makes x primitive and makes the
subfield embeddings of nested specs compatible.  A custom irreducible modulus
may be supplied instead; embeddings are then only available if the modulus
happens to satisfy the same norm-compatibility.
"""

from __future__ import annotations

import functools
import threading
from importlib import resources

import numpy as np

from .errors import (
    BadDivisorError,
    BadParamsError,
    BlockingSetsError,
    DimensionMismatchError,
    NoTableEntryError,
    NotPrimeError,
    RangeError,
    ReduciblePolynomialError,
    SpecMismatchError,
    ZeroInverseError,
)

SIZE_LIMIT = 1024           # largest supported order: q x q lookup tables
_BUILD_LOCK = threading.RLock()   # each lazy table is built once, whole


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def exact_log(value: int, base: int) -> int | None:
    """The e >= 0 with base**e == value, or None when there is none."""
    if base < 2:
        return None
    e, v = 0, 1
    while v < value:
        v *= base
        e += 1
    return e if v == value else None


def _integers_below(values, bound: int, message: str):
    """An integer as it is, or an array-like of them as an integer array
    (int64 when empty): the mechanics of each input guard.  An entry
    outside 0..bound-1 is a RangeError, `message` formatted with the first
    such entry and bound - 1, a non-integer a TypeError (numpy would
    truncate a float, and read an index of -1 as the last entry) and
    ragged rows a DimensionMismatchError."""
    if isinstance(values, (int, np.integer)):
        if 0 <= values < bound:
            return values
        raise RangeError(message.format(values, bound - 1))
    try:
        arr = np.asarray(values)
    except ValueError:
        raise DimensionMismatchError("rows of unequal lengths") from None
    if not arr.size:
        return arr.astype(np.int64)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"expected integers, got an array of {arr.dtype}")
    if arr.min() < 0 or arr.max() >= bound:
        bad = arr[(arr < 0) | (arr >= bound)][0]
        raise RangeError(message.format(bad, bound - 1))
    return arr


# --- dense polynomial helpers over GF(p), coefficient lists constant-first ---

def _poly_mul_mod(a, b, f, p):
    t = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, t - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(t):
                res[i - t + j] = (res[i - t + j] - c * f[j]) % p
    res = res[:t]
    res.extend([0] * (t - len(res)))
    return res


def _poly_pow_mod(a, n, f, p):
    t = len(f) - 1
    r = [1] + [0] * (t - 1)
    b = _poly_mul_mod(a, r, f, p)
    while n:
        if n & 1:
            r = _poly_mul_mod(r, b, f, p)
        n >>= 1
        if n:
            b = _poly_mul_mod(b, b, f, p)
    return r


def _poly_gcd(a, b, p):
    a, b = a[:], b[:]
    while any(b):
        while b and b[-1] == 0:
            b.pop()
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            c = (a[-1] * inv) % p
            s = len(a) - len(b)
            for i, bi in enumerate(b):
                a[s + i] = (a[s + i] - c * bi) % p
        a, b = b, a
    return a


def _is_irreducible(f, p):
    """Rabin test: x^(p^t) = x mod f and gcd(x^(p^(t/r)) - x, f) = 1."""
    t = len(f) - 1
    if t == 1:
        return True
    x = [0, 1] + [0] * (t - 2)
    xq = _poly_pow_mod(x, p ** t, f, p)
    if xq != x:
        return False
    for r in _prime_factors(t):
        xe = _poly_pow_mod(x, p ** (t // r), f, p)
        d = [(xe[i] - x[i]) % p for i in range(t)]
        g = _poly_gcd(list(f), d, p)
        if _poly_degree(g) > 0:
            return False
    return True


def _poly_degree(a):
    for i in range(len(a) - 1, -1, -1):
        if a[i]:
            return i
    return -1


@functools.cache
def _conway_table():
    """Parse the shipped table. Returns (version, {(p, t): coeff tuple})."""
    text = resources.files("blockingsets").joinpath(
        "data/conway_polynomials.txt").read_text()
    version = "unknown"
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            if "version" in line:
                version = line.split("version", 1)[1].strip()
            continue
        if not line:
            continue
        parts = [int(tok) for tok in line.split()]
        p, t, coeffs = parts[0], parts[1], tuple(parts[2:])
        if len(coeffs) != t + 1 or coeffs[-1] != 1:
            raise BlockingSetsError(f"malformed conway table line: {line!r}")
        table[(p, t)] = coeffs
    return version, table


def conway_table_version() -> str:
    return _conway_table()[0]


def conway_polynomial(p: int, t: int) -> tuple[int, ...]:
    """Shipped Conway polynomial for GF(p^t), constant term first."""
    try:
        return _conway_table()[1][(p, t)]
    except KeyError:
        raise NoTableEntryError(
            f"no conway polynomial shipped for p={p}, t={t}") from None


class FieldSpec:
    """GF(p^t) with a fixed polynomial basis.

    All arithmetic methods operate on integer codes.  Instances are
    immutable and hashable.
    """

    def __init__(self, p: int, t: int, modulus=None):
        if not _is_prime(p):
            raise NotPrimeError(f"p={p} is not prime")
        if t < 1:
            raise RangeError(f"extension degree t={t} must be >= 1")
        q = p ** t
        if q > SIZE_LIMIT:
            raise RangeError(f"field order {q} exceeds the {SIZE_LIMIT} cap")
        if modulus is None:
            modulus = conway_polynomial(p, t)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != t + 1 or modulus[-1] != 1:
            raise ReduciblePolynomialError(
                f"modulus must be monic of degree {t}: {modulus}")
        if not _is_irreducible(list(modulus), p):
            raise ReduciblePolynomialError(
                f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.t = t
        self.q = q
        self.modulus = modulus
        self._tables = None
        self._embeddings = {}

    # --- code <-> coefficient vector ---

    def check_codes(self, values):
        """Every public entry's guard on element codes, each in 0..q-1."""
        return _integers_below(values, self.q,
                               "element code outside 0..{1}: {0}")

    def decode(self, code: int) -> tuple[int, ...]:
        code, p = self.check_codes(code), self.p
        return tuple(code // p ** i % p for i in range(self.t))

    def encode(self, coeffs) -> int:
        p = self.p
        code = 0
        for c in reversed(list(coeffs)):
            code = code * p + (c % p)
        return code

    # --- scalar arithmetic on codes ---
    #
    # The scalar ops read the read-only tables() that the batched kernels
    # read, one entry at a time (`.item` returns a Python int), each code
    # through `check_codes`.  The _*_poly helpers compute on base-p digits
    # to build the tables.

    def add(self, a: int, b: int) -> int:
        return (self._tables or self.tables())[0].item(
            self.check_codes(a), self.check_codes(b))

    def neg(self, a: int) -> int:
        return (self._tables or self.tables())[2].item(self.check_codes(a))

    def sub(self, a: int, b: int) -> int:
        add, _, neg, _ = self._tables or self.tables()
        return add.item(self.check_codes(a), neg.item(self.check_codes(b)))

    def mul(self, a: int, b: int) -> int:
        return (self._tables or self.tables())[1].item(
            self.check_codes(a), self.check_codes(b))

    def pow(self, a: int, n: int) -> int:
        a = self.check_codes(a)
        if n < 0:
            a, n = self.inv(a), -n
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return r

    def inv(self, a: int) -> int:
        if self.check_codes(a) == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        return (self._tables or self.tables())[3].item(a)

    def frobenius(self, a: int, e: int = 1) -> int:
        return self.pow(a, self.p ** e)

    def primitive_element(self) -> int:
        """Code of a generator of GF(q)*, which every finite field has: x
        itself for the Conway moduli, else the smallest code that
        generates.  Found with polynomial powers, so the tables can be
        built from it."""
        order = self.q - 1
        factors = _prime_factors(order)
        return next(g for g in (self.x, *range(1, self.q))
                    if g and all(self._pow_poly(g, order // r) != 1
                                 for r in factors))

    def _mul_poly(self, a: int, b: int) -> int:
        return self.encode(_poly_mul_mod(
            self.decode(a), self.decode(b), self.modulus, self.p))

    def _pow_poly(self, a: int, n: int) -> int:
        return self.encode(_poly_pow_mod(
            self.decode(a), n, self.modulus, self.p))

    @property
    def x(self) -> int:
        """Code of the basis generator (the class of x)."""
        return self.p if self.t > 1 else (-self.modulus[0]) % self.p

    # --- subfields ---

    def subfield_degree(self, order: int) -> int:
        """The degree e of the subfield GF(order), order = p^e with e | t;
        BadParamsError when there is no such subfield."""
        e = exact_log(order, self.p)
        if not e or self.t % e:
            raise BadParamsError(
                f"GF({order}) is not a subfield of GF({self.q})")
        return e

    def subfield(self, e: int) -> "FieldSpec":
        if self.t % e:
            raise BadDivisorError(f"{e} does not divide t={self.t}")
        return make_field(self.p, e)

    def embedding(self, e: int):
        """(embed, retract) arrays for GF(p^e) -> GF(p^t).

        embed[c] is the big-field code of the subfield element with code c;
        retract[big_code] is the subfield code, or -1 off the image.  Uses the
        norm-compatible generator beta = x^((q-1)/(p^e-1)); requires the
        subfield modulus to vanish at beta (always true for table moduli).
        """
        if self.t % e:
            raise BadDivisorError(f"{e} does not divide t={self.t}")
        if e in self._embeddings:
            return self._embeddings[e]
        sub = self.subfield(e)
        beta = self.pow(self.x, (self.q - 1) // (sub.q - 1)) \
            if self.t > 1 else self.x
        # sanity: beta must be a root of the subfield modulus inside this field
        acc = 0
        for c in reversed(sub.modulus):
            acc = self.add(self.mul(acc, beta), c % self.p)
        if acc != 0:
            raise SpecMismatchError(
                f"modulus of GF({self.p}^{e}) has no compatible root; "
                "embeddings need table moduli")
        beta_pows = [1]
        for _ in range(e - 1):
            beta_pows.append(self.mul(beta_pows[-1], beta))
        embed = np.zeros(sub.q, dtype=np.int64)
        for c in range(sub.q):
            digs = sub.decode(c)
            acc = 0
            for d, bp in zip(digs, beta_pows):
                if d:
                    acc = self.add(acc, self.mul(d % self.p, bp))
            embed[c] = acc
        retract = np.full(self.q, -1, dtype=np.int64)
        retract[embed] = np.arange(sub.q)
        # shared by every caller of make_field: keep them read-only
        embed.flags.writeable = retract.flags.writeable = False
        self._embeddings[e] = (embed, retract)
        return embed, retract

    # --- lookup tables for batched work ---

    def tables(self):
        """(ADD, MUL, NEG, INV) numpy arrays; built once, read-only."""
        if self._tables is None:
            with _BUILD_LOCK:
                if self._tables is None:
                    self._tables = self._build_tables()
        return self._tables

    def _build_tables(self):
        q, p, t = self.q, self.p, self.t
        idx = np.arange(q, dtype=np.int64)
        # digitwise addition and negation, top base-p digit first
        add = np.zeros((q, q), dtype=np.int64)
        neg = np.zeros(q, dtype=np.int64)
        for i in range(t - 1, -1, -1):
            d = (idx // p ** i) % p
            add = add * p + (d[:, None] + d[None, :]) % p
            neg = neg * p + (-d) % p
        # multiplication and inverses through discrete logs to the first
        # primitive element
        g = self.primitive_element()
        exp = [1]
        for _ in range(q - 2):
            exp.append(self._mul_poly(exp[-1], g))
        exp = np.array(exp, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        inv = exp[-log % (q - 1)]
        inv[0] = 0
        # shared by every caller of make_field: a write into one would
        # change every later verdict over this field
        for arr in (add, mul, neg, inv):
            arr.flags.writeable = False
        return add, mul, neg, inv

    # --- identity ---

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and other.p == self.p
                and other.t == self.t and other.modulus == self.modulus)

    def __hash__(self):
        return hash((self.p, self.t, self.modulus))

    def __repr__(self):
        return f"GF({self.p})" if self.t == 1 else f"GF({self.p}^{self.t})"


@functools.cache
def _make_field_cached(p, t, modulus):
    return FieldSpec(p, t, modulus)


def make_field(p: int, t: int, modulus=None) -> FieldSpec:
    """Construct (or fetch the cached) GF(p^t) spec."""
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    return _make_field_cached(int(p), int(t), modulus)
