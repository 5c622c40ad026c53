"""Exact arithmetic in GF(q) and GF(q^m) for small prime powers q.

Extension-field elements are length-m tuples over the base field in the
fixed polynomial basis 1, t, ..., t^(m-1); ``ExtFieldCtx.elements`` numbers
them base q, digit i the coefficient of t^i.  GF(q) is held as its addition
and multiplication tables: of (a + b) % p and a * b % p for a prime, and for
q = p^e, e > 1, of GF(p)[t] / f through ``ExtFieldCtx``, element a being the
polynomial numbered a.  Negatives and inverses are read off the tables (the 0
of a row of the addition table, the 1 of a row of the multiplication table),
and every table is checked against the field axioms, inverses included, when
it is built.  All moduli are fixed and deterministic so downstream
constructions and coset enumerations are bit-reproducible.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import DegreeTooLarge, UnsupportedOrder, VerificationFailed, record

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)

# Lexicographically smallest monic irreducible polynomial per (p, e),
# ascending coefficients (constant term first, leading 1 last).
_BASE_MODULI = {
    (2, 2): (1, 1, 1),      # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),   # t^3 + t + 1
    (3, 2): (1, 0, 1),      # t^2 + 1
}


@record
class FieldCtx:
    """Arithmetic context for GF(q), q = p^e: the addition and multiplication
    tables, with negatives and inverses read off them."""

    q: int
    p: int
    e: int
    modulus: tuple[int, ...]
    _add: tuple[tuple[int, ...], ...]
    _mul: tuple[tuple[int, ...], ...]
    _neg: tuple[int, ...]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self._mul[a].index(1)

    def elements(self):
        return range(self.q)


def _poly_mulmod(f: FieldCtx, a, b, modulus):
    """Multiply coefficient lists (constant term first) over GF(q) and reduce
    by a monic modulus; the result has at most deg(modulus) coefficients."""
    add, mul, neg = f._add, f._mul, f._neg
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in enumerate(b):
                res[i + j] = add[res[i + j]][row[bj]]
    deg = len(modulus) - 1
    for i in range(len(res) - 1, deg - 1, -1):
        c = res[i]
        if c:
            row = mul[neg[c]]
            for j in range(deg):
                res[i - deg + j] = add[res[i - deg + j]][row[modulus[j]]]
    return res[:deg]


def _verify_axioms(ctx):
    els = range(ctx.q)
    for a in els:
        if ctx.add(a, 0) != a or ctx.mul(a, 1) != a:
            raise VerificationFailed("identity axiom fails")
        if a and 1 not in ctx._mul[a]:
            raise VerificationFailed("inverse axiom fails")
        for b in els:
            if ctx.add(a, b) != ctx.add(b, a) or ctx.mul(a, b) != ctx.mul(b, a):
                raise VerificationFailed("commutativity fails")
            for c in els:
                if ctx.add(ctx.add(a, b), c) != ctx.add(a, ctx.add(b, c)):
                    raise VerificationFailed("additive associativity fails")
                if ctx.mul(ctx.mul(a, b), c) != ctx.mul(a, ctx.mul(b, c)):
                    raise VerificationFailed("multiplicative associativity fails")
                if ctx.mul(a, ctx.add(b, c)) != ctx.add(ctx.mul(a, b), ctx.mul(a, c)):
                    raise VerificationFailed("distributivity fails")


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24, a
    strong probable-prime test above."""
    if n < 2 or n in _WITNESSES:
        return n >= 2
    if any(n % a == 0 for a in _WITNESSES):
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(x: int, e: int) -> int:
    """floor(x ** (1 / e)) for x >= 1, by Newton's method from above."""
    r = 1 << -(-x.bit_length() // e)
    while True:
        s = ((e - 1) * r + x // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def is_prime_power(q: int) -> bool:
    """Whether q = p^e for a prime p and e >= 1, that is, whether GF(q)
    exists.  Formulas in q hold for any prime power, not only the supported
    orders."""
    return q >= 2 and any((r := _iroot(q, e)) ** e == q and _is_prime(r)
                          for e in range(1, q.bit_length() + 1))


@lru_cache(maxsize=None)
def field_new(q: int) -> FieldCtx:
    """Build the GF(q) context for a supported q and check every field axiom
    on its tables; a reducible modulus fails the inverse axiom."""
    if q not in SUPPORTED_ORDERS:
        raise UnsupportedOrder(f"q={q} not in supported orders {SUPPORTED_ORDERS}")
    p, e = next((p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3) if p ** e == q)
    if e == 1:
        modulus, els = (0, 1), range(q)
        add, mul = lambda a, b: (a + b) % p, lambda a, b: a * b % p
    else:
        modulus = _BASE_MODULI[(p, e)]
        ring = ExtFieldCtx(field_new(p), e, modulus)
        els, add, mul = list(ring.elements()), ring.add, ring.mul
    number = {x: i for i, x in enumerate(els)}
    add_t = tuple(tuple(number[add(x, y)] for y in els) for x in els)
    mul_t = tuple(tuple(number[mul(x, y)] for y in els) for x in els)
    ctx = FieldCtx(q=q, p=p, e=e, modulus=modulus, _add=add_t, _mul=mul_t,
                   _neg=tuple(row.index(0) for row in add_t))
    _verify_axioms(ctx)
    return ctx


# ---------------------------------------------------------------------------
# extension fields GF(q^m)
# ---------------------------------------------------------------------------

def _polynomials(base: FieldCtx, m: int):
    """The m-tuples over GF(q), read as polynomials of degree < m, in the
    order ``ExtFieldCtx.elements`` documents."""
    return (t[::-1] for t in itertools.product(base.elements(), repeat=m))


def _ext_poly_is_irreducible(base: FieldCtx, coeffs):
    """f of degree m >= 2 is irreducible over GF(q) iff t^(q^m) = t mod f,
    so f is squarefree, and (Berlekamp) the map a -> a^q - a on
    GF(q)[t] / f, whose kernel has one dimension per distinct factor of a
    squarefree f, has rank m - 1."""
    from .linalg import MatGF, rank

    m, q = len(coeffs) - 1, base.q
    ring = ExtFieldCtx(base=base, m=m, modulus=tuple(coeffs))
    one, t = ring.basis()[:2]
    if ring.pow(t, q ** m) != t:
        return False
    tq, power, frob = ring.pow(t, q), one, []
    for e in ring.basis():  # rows (t^q)^i - t^i
        frob.append(ring.sub(power, e))
        power = ring.mul(power, tq)
    return rank(MatGF(q, frob)) == m - 1


@record
class ExtFieldCtx:
    """Arithmetic context for GF(q^m) over a FieldCtx for GF(q)."""

    base: FieldCtx
    m: int
    modulus: tuple[int, ...]

    @property
    def order(self):
        return self.base.q ** self.m

    def zero(self):
        return (0,) * self.m

    def one(self):
        return (1,) + (0,) * (self.m - 1)

    def basis(self):
        """Polynomial basis 1, t, ..., t^(m-1)."""
        return tuple(tuple(int(i == j) for j in range(self.m))
                     for i in range(self.m))

    def elements(self):
        """Every element once, in ascending integer encoding: digit i, base
        q, is the coefficient of t^i, so the constant term varies fastest.
        ``field_new`` numbers GF(p^e) and ``ext_new`` tries moduli in this
        order."""
        return _polynomials(self.base, self.m)

    def add(self, x, y):
        b = self.base
        return tuple(b.add(a, c) for a, c in zip(x, y))

    def sub(self, x, y):
        b = self.base
        return tuple(b.sub(a, c) for a, c in zip(x, y))

    def mul(self, x, y):
        return tuple(_poly_mulmod(self.base, x, y, self.modulus))

    def pow(self, x, k):
        result = self.one()
        base = x
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, x):
        if not any(x):
            raise ZeroDivisionError("inverse of 0 in GF(%d^%d)" % (self.base.q, self.m))
        return self.pow(x, self.order - 2)

    def is_zero(self, x):
        return not any(x)


@lru_cache(maxsize=None)
def ext_new(q: int, m: int) -> ExtFieldCtx:
    """GF(q^m) with the smallest monic irreducible modulus of degree m."""
    base = field_new(q)
    if not 1 <= m <= 16:
        raise DegreeTooLarge(f"extension degree m={m} outside 1..16")
    if m == 1:
        return ExtFieldCtx(base=base, m=1, modulus=(0, 1))
    for c in _polynomials(base, m):
        if c[0] and _ext_poly_is_irreducible(base, c + (1,)):  # c[0] = 0: t | f
            return ExtFieldCtx(base=base, m=m, modulus=c + (1,))
    raise VerificationFailed(f"no irreducible polynomial found for q={q}, m={m}")


def frobenius(ctx: ExtFieldCtx, x, i: int):
    """x -> x^(q^i), the i-fold base-field power map."""
    return ctx.pow(x, ctx.base.q ** (i % ctx.m))


def expand_rows(ctx: ExtFieldCtx, v):
    """Expand a GF(q^m) vector into the m x n matrix of basis coordinates.

    Column j holds the coefficient vector of v[j] in the polynomial basis.
    """
    from .linalg import MatGF

    return MatGF(ctx.base.q, v).transpose()
