"""Field arithmetic and the shipped polynomial table.

The table test recomputes every shipped modulus from scratch with an
independent brute-force search (primitivity by element order, subfield
compatibility by norm chains, candidates in the alternating-sign
lexicographic order), so a wrong table entry cannot survive CI.
"""

import concurrent.futures
import itertools
import random
import sys

import numpy as np
import pytest

from blockingsets.errors import (BadParamsError, NoTableEntryError,
                                 NotPrimeError, RangeError,
                                 ReduciblePolynomialError, ZeroInverseError)
from blockingsets.fields import (SIZE_LIMIT, FieldSpec, conway_polynomial,
                                 conway_table_version, exact_log, make_field)


# -- independent polynomial arithmetic (deliberately not fields.py) -----------

def poly_mul(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    t = len(mod) - 1
    for i in range(len(out) - 1, t - 1, -1):
        c = out[i]
        if c:
            for j in range(t + 1):
                out[i - t + j] = (out[i - t + j] - c * mod[j]) % p
    return out[:t]


def poly_pow(a, n, mod, p):
    result = [1] + [0] * (len(mod) - 2)
    base = list(a)
    while n:
        if n & 1:
            result = poly_mul(result, base, mod, p)
        base = poly_mul(base, base, mod, p)
        n >>= 1
    return result


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive_modulus(mod, p):
    """x generates the full multiplicative group mod (mod, p)."""
    t = len(mod) - 1
    order = p ** t - 1
    x = [0, 1] + [0] * (t - 2) if t >= 2 else [(-mod[0]) % p]
    if t == 1:
        # linear case: the root is -c0, primitivity is in GF(p)
        root = (-mod[0]) % p
        if root == 0:
            return False
        return all(pow(root, order // r, p) != 1 for r in prime_factors(order))
    one = [1] + [0] * (t - 1)
    if poly_pow(x, order, mod, p) != one:
        return False
    return all(poly_pow(x, order // r, mod, p) != one
               for r in prime_factors(order))


def norm_compatible(mod, p, table):
    """Roots power down onto the table entry of every proper subfield."""
    t = len(mod) - 1
    x = [0, 1] + [0] * (t - 2)
    one_tail = [0] * (t - 1)
    for m in range(1, t):
        if t % m:
            continue
        y = poly_pow(x, (p ** t - 1) // (p ** m - 1), mod, p)
        sub = table[(p, m)]
        acc = [0] * t
        for c in reversed(sub):
            acc = poly_mul(acc, y, mod, p)
            acc[0] = (acc[0] + c) % p
        if acc != [0] + one_tail:
            return False
    return True


def candidate_words(p, t):
    """Monic candidates in the standard order: lexicographic on the word
    ((-1)^(t-i) a_i mod p for i = t-1 .. 0)."""
    for word in itertools.product(range(p), repeat=t):
        coeffs = [0] * (t + 1)
        coeffs[t] = 1
        for pos, w in enumerate(word):
            i = t - 1 - pos
            sign = -1 if (t - i) % 2 else 1
            coeffs[i] = (sign * w) % p
        yield coeffs


def brute_force_reference(p, t, table):
    for mod in candidate_words(p, t):
        if mod[0] == 0:
            continue
        if not is_primitive_modulus(mod, p):
            continue
        if t > 1 and not norm_compatible(mod, p, table):
            continue
        return tuple(mod)
    raise AssertionError(f"no polynomial found for p={p}, t={t}")


def shipped_entries():
    from blockingsets.fields import _conway_table
    return _conway_table()[1]


@pytest.mark.parametrize("p,t", sorted(shipped_entries()))
def test_conway_table_recomputed(p, t):
    table = shipped_entries()
    assert brute_force_reference(p, t, table) == table[(p, t)]


def test_exact_log():
    assert [exact_log(v, 3) for v in (1, 3, 9, 27)] == [0, 1, 2, 3]
    assert exact_log(2401, 49) == 2
    for value, base in ((12, 2), (0, 3), (-9, 3), (9, -3), (1, 1), (4, 0)):
        assert exact_log(value, base) is None


def test_conway_table_version():
    assert conway_table_version() == "1"
    assert conway_polynomial(3, 2) == (2, 2, 1)
    with pytest.raises(NoTableEntryError):
        conway_polynomial(2, 40)


# -- field axioms --------------------------------------------------------------

@pytest.mark.parametrize("p,t", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3),
                                 (7, 1), (5, 2), (3, 3)])
def test_axioms_exhaustive(p, t):
    f = make_field(p, t)
    q = f.q
    assert q == p ** t
    codes = range(q)
    for a in codes:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in codes:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    rng = random.Random(17)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("p,t", [(7, 2), (3, 4), (2, 6)])
def test_axioms_sampled(p, t):
    f = make_field(p, t)
    rng = random.Random(23)
    for _ in range(500):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # frobenius is an additive and multiplicative homomorphism
    for _ in range(100):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a),
                                                 f.frobenius(b))
        assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a),
                                                 f.frobenius(b))


def test_code_is_base_p_encoding():
    f = make_field(3, 2)
    for code in range(9):
        coeffs = f.decode(code)
        assert code == coeffs[0] + 3 * coeffs[1]
        assert f.encode(coeffs) == code


def test_generator_order():
    # x is the code of the generator: p for t > 1
    assert make_field(3, 2).x == 3
    with pytest.raises(ZeroInverseError):
        make_field(3, 2).inv(0)
    for p, t in [(2, 2), (3, 2), (5, 2), (7, 2), (3, 3)]:
        f = make_field(p, t)
        seen = set()
        a = 1
        for _ in range(f.q - 1):
            seen.add(a)
            a = f.mul(a, f.x)
        assert len(seen) == f.q - 1, f"x not primitive in GF({f.q})"


def test_make_field_cached_and_validated():
    assert make_field(3, 2) is make_field(3, 2)
    with pytest.raises(NotPrimeError):
        make_field(6, 1)
    with pytest.raises(ReduciblePolynomialError):
        make_field(2, 2, modulus=(1, 0, 1))    # x^2+1 = (x+1)^2 over GF(2)
    custom = make_field(2, 2, modulus=(1, 1, 1))
    assert custom.q == 4 and custom is make_field(2, 2, modulus=(1, 1, 1))


def test_subfield_degree_accepts_only_subfield_orders():
    f = make_field(3, 4)
    assert [f.subfield_degree(o) for o in (3, 9, 81)] == [1, 2, 4]
    # 1 and 0 are no field orders, 27 is 3^3 with 3 not dividing 4, and
    # 2 and 6 are no powers of 3
    for order in (0, 1, 2, 6, 27, 243):
        with pytest.raises(BadParamsError):
            f.subfield_degree(order)


def test_subfield_membership_and_embedding():
    f = make_field(3, 4)
    sub = f.subfield(2)
    assert sub.q == 9
    embed, project_back = f.embedding(2)
    img = [int(embed[c]) for c in range(9)]
    assert len(set(img)) == 9 and img[0] == 0 and img[1] == 1
    # the image is a field: closed under both operations
    img_set = set(img)
    for a in img:
        for b in img:
            assert f.add(a, b) in img_set
            assert f.mul(a, b) in img_set
    # embedding respects the small-field arithmetic
    small = make_field(3, 2)
    for a in range(9):
        for b in range(9):
            assert int(embed[small.add(a, b)]) == f.add(img[a], img[b])
            assert int(embed[small.mul(a, b)]) == f.mul(img[a], img[b])


def test_size_limit_is_the_table_limit():
    assert SIZE_LIMIT == 1024
    add, mul, neg, inv = make_field(2, 10).tables()
    assert add.shape == mul.shape == (1024, 1024)
    assert neg.shape == inv.shape == (1024,)
    with pytest.raises(RangeError):
        make_field(2, 11)                     # 2048 > the limit


def test_spec_equality_and_hash():
    a, b = make_field(3, 2), make_field(3, 2)
    assert a == b and hash(a) == hash(b)
    assert make_field(2, 2) != make_field(3, 2)


# -- table-backed scalar ops against the polynomial reference ------------------

def _add_poly(f, a, b):
    """Digitwise sum of two codes of f, base p."""
    return f.encode((x + y) % f.p for x, y in zip(f.decode(a), f.decode(b)))


def _neg_poly(f, a):
    return f.encode((-x) % f.p for x in f.decode(a))


def assert_binary_ops_match(f, a, b):
    got = (f.add(a, b), f.sub(a, b), f.mul(a, b))
    want = (_add_poly(f, a, b), _add_poly(f, a, _neg_poly(f, b)),
            f._mul_poly(a, b))
    assert got == want, (f, a, b)
    assert all(type(v) is int for v in got), (f, a, b)


def assert_unary_ops_match(f, a, n):
    got = (f.neg(a), f.pow(a, n), f.frobenius(a))
    assert got == (_neg_poly(f, a), f._pow_poly(a, n),
                   f._pow_poly(a, f.p)), (f, a, n)
    assert all(type(v) is int for v in got), (f, a, n)
    if a:
        inv = f.inv(a)
        assert type(inv) is int and f._mul_poly(a, inv) == 1, (f, a)


@pytest.mark.parametrize("p,t", sorted(k for k in shipped_entries()
                                       if k[0] ** k[1] <= 81))
def test_scalar_tables_match_polynomials_exhaustive(p, t):
    f = make_field(p, t)
    for a in range(f.q):
        for b in range(f.q):
            assert_binary_ops_match(f, a, b)
        for n in (0, 1, 2, f.q - 2, f.q + 3):
            assert_unary_ops_match(f, a, n)
        if a:
            assert f.inv(a) == f._pow_poly(a, f.q - 2)
            assert f.pow(a, -3) == f._pow_poly(f.inv(a), 3)


@pytest.mark.parametrize("p,t", [(2, 10), (3, 6), (31, 2)])
def test_scalar_tables_match_polynomials_sampled(p, t):
    f = make_field(p, t)
    rng = random.Random(41)
    for _ in range(2000):
        a, b, n = (rng.randrange(f.q) for _ in range(3))
        assert_binary_ops_match(f, a, b)
        assert_unary_ops_match(f, a, n)


def test_scalar_tables_non_primitive_modulus():
    f = make_field(3, 2, modulus=(1, 0, 1))     # x^2 + 1: x has order 4
    x = f.x
    assert len({f._pow_poly(x, k) for k in range(8)}) == 4
    for a in range(9):
        for b in range(9):
            assert_binary_ops_match(f, a, b)
        assert_unary_ops_match(f, a, a + 5)
        if a:
            assert f.inv(a) == f._pow_poly(a, 7)
    for tbl in f.tables()[:2]:
        assert tbl.shape == (9, 9) and tbl.dtype == np.int64


@pytest.mark.parametrize("p,t,modulus,order", [
    (3, 2, (1, 0, 1), 4),               # x^2 + 1
    (2, 4, (1, 1, 1, 1, 1), 5),         # x^4 + x^3 + x^2 + x + 1
])
def test_tables_of_non_primitive_modulus_match_polynomials(p, t, modulus,
                                                           order):
    # x is not primitive: the logs go to another generator
    f = FieldSpec(p, t, modulus)
    assert len({f._pow_poly(f.x, k) for k in range(2 * order)}) == order
    assert f.primitive_element() != f.x
    _, mul, _, inv = f.tables()
    want = [[f._mul_poly(a, b) for b in range(f.q)] for a in range(f.q)]
    assert mul.tolist() == want
    assert inv.tolist() == [0] + [f._pow_poly(a, f.q - 2)
                                  for a in range(1, f.q)]


def test_tables_of_large_non_primitive_modulus_build():
    # 1 + x + x^2 + x^3 + x^10 over GF(2): x is not primitive
    f = FieldSpec(2, 10, (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1))
    assert f._pow_poly(f.x, 1023) == 1
    assert any(f._pow_poly(f.x, 1023 // r) == 1 for r in (3, 11, 31))
    _, mul, _, inv = f.tables()
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.randrange(1024), rng.randrange(1024)
        assert mul[a, b] == f._mul_poly(a, b)
    assert (mul[np.arange(1, 1024), inv[1:]] == 1).all()


def test_no_field_above_size_limit():
    # no scalar path is left for orders without tables
    for p, t in ((2, 11), (3, 7), (1031, 1), (31, 3)):
        for build in (make_field, FieldSpec):
            with pytest.raises(RangeError):
                build(p, t)


def test_lazy_tables_built_once_under_threads():
    f = FieldSpec(3, 5)     # a fresh spec: no tables built yet
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(lambda: (f.mul(5, 7), f.tables(),
                                            f._scalar_tables()))
                       for _ in range(8)]
            results = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(r[0] == f._mul_poly(5, 7) for r in results)
    assert all(r[1] is f._tables and r[2] is f._lut for r in results)
