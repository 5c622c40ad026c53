import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from cdckit import gf
from cdckit.errors import DegreeTooLarge, UnsupportedOrder, VerificationFailed
from cdckit.gf import (SUPPORTED_ORDERS, expand_rows, ext_new, field_new,
                       frobenius)
from cdckit.linalg import rank


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    # field_new raises if any axiom fails; re-check inverses here explicitly
    f = field_new(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    for a in range(q):
        assert f.add(a, f.neg(a)) == 0


def test_gf2_characteristic():
    f = field_new(2)
    assert f.add(1, 1) == 0


def test_gf4_square_of_generator():
    # under t^2+t+1 the element t (code 2) squares to t+1 (code 3)
    f = field_new(4)
    assert f.modulus == (1, 1, 1)
    assert f.mul(2, 2) == 3


def test_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        field_new(6)


def test_ext_gf8_generator_order():
    e = ext_new(2, 3)
    assert e.order == 8
    t = e.basis()[1]
    x, order = t, 1
    while x != e.one():
        x = e.mul(x, t)
        order += 1
    assert order == 7


def test_ext_degree_one_is_base_copy():
    e = ext_new(2, 1)
    assert e.order == 2
    one = e.one()
    assert e.mul(one, one) == one
    assert e.add(one, one) == e.zero()


def test_gf9_multiplicative_order_divides_eight():
    e = ext_new(3, 2)
    for x in e.elements():
        if not e.is_zero(x):
            assert e.pow(x, 8) == e.one()


def test_degree_too_large():
    with pytest.raises(DegreeTooLarge):
        ext_new(2, 17)


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (2, 9), (3, 4), (5, 3), (7, 3)])
def test_frobenius_composition_identity(q, m):
    # q^m <= 512: exhaustive; frobenius applied m times is the identity
    e = ext_new(q, m)
    for x in e.elements():
        y = x
        for _ in range(m):
            y = frobenius(e, y, 1)
        assert y == x


def test_frobenius_small_cases():
    e4 = ext_new(2, 2)
    for x in e4.elements():
        assert frobenius(e4, x, 1) == e4.mul(x, x)
        assert frobenius(e4, x, 0) == x
    e8 = ext_new(2, 3)
    for x in e8.elements():
        assert frobenius(e8, x, 3) == x


def test_frobenius_additivity_sampled():
    rng = random.Random(7)
    e = ext_new(3, 3)
    els = list(e.elements())
    for _ in range(100):
        x, y = rng.choice(els), rng.choice(els)
        assert frobenius(e, e.add(x, y), 1) == \
            e.add(frobenius(e, x, 1), frobenius(e, y, 1))


def test_expand_rows_basics():
    e = ext_new(2, 3)
    z = expand_rows(e, [e.zero(), e.zero()])
    assert z.is_zero() and (z.rows, z.cols) == (3, 2)
    b1 = expand_rows(e, [e.basis()[0]])
    assert [r[0] for r in b1.data] == [1, 0, 0]


def test_expand_rows_linearity_sampled():
    rng = random.Random(11)
    e = ext_new(2, 4)
    els = list(e.elements())
    for _ in range(100):
        u = [rng.choice(els) for _ in range(3)]
        v = [rng.choice(els) for _ in range(3)]
        s = [e.add(a, b) for a, b in zip(u, v)]
        assert expand_rows(e, s) == expand_rows(e, u) + expand_rows(e, v)


def test_expand_rows_rank_matches_span_dimension():
    # oracle: grow the additive closure of the entries and count its size
    rng = random.Random(13)
    e = ext_new(2, 4)
    els = list(e.elements())
    for _ in range(25):
        v = [rng.choice(els) for _ in range(5)]
        span = {e.zero()}
        for x in v:
            if x not in span:
                span |= {e.add(x, s) for s in span}
        dim = (len(span) - 1).bit_length()
        assert 2 ** dim == len(span)
        assert rank(expand_rows(e, v)) == dim


def test_frobenius_composition_sampled_large_field():
    # above 512 elements: seed-deterministic sample instead of exhaustion
    rng = random.Random(19)
    e = ext_new(3, 6)
    for _ in range(50):
        x = tuple(rng.randrange(3) for _ in range(6))
        y = x
        for _ in range(6):
            y = frobenius(e, y, 1)
        assert y == x


# smallest monic irreducible modulus of GF(q^m), ascending coefficients
EXT_MODULI = {
    2: [(0, 1), (1, 1, 1), (1, 1, 0, 1), (1, 1, 0, 0, 1)],
    3: [(0, 1), (1, 0, 1), (1, 2, 0, 1), (2, 1, 0, 0, 1)],
    4: [(0, 1), (2, 1, 1), (2, 0, 0, 1), (1, 2, 1, 0, 1)],
    5: [(0, 1), (2, 0, 1), (1, 1, 0, 1), (2, 0, 0, 0, 1)],
    7: [(0, 1), (1, 0, 1), (2, 0, 0, 1), (1, 1, 0, 0, 1)],
    8: [(0, 1), (1, 1, 1), (2, 1, 0, 1), (1, 1, 0, 0, 1)],
    9: [(0, 1), (4, 0, 1), (3, 1, 0, 1), (4, 0, 0, 0, 1)],
}


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_ext_moduli_pinned(q):
    assert [ext_new(q, m).modulus for m in range(1, 5)] == EXT_MODULI[q]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_sub_and_neg_exhaustive(q):
    f = field_new(q)
    for a in range(q):
        assert f.add(f.neg(a), a) == 0
        for b in range(q):
            assert f.add(f.sub(a, b), b) == a


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_ext_field_axioms(q, m):
    e = ext_new(q, m)
    zero, one = e.zero(), e.one()
    element = st.tuples(*[st.integers(0, q - 1)] * m)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(element, element, element)
    def check(x, y, z):
        assert e.add(x, zero) == x and e.mul(x, one) == x
        assert e.mul(x, zero) == zero
        assert e.add(x, y) == e.add(y, x) and e.mul(x, y) == e.mul(y, x)
        assert e.add(e.add(x, y), z) == e.add(x, e.add(y, z))
        assert e.mul(e.mul(x, y), z) == e.mul(x, e.mul(y, z))
        assert e.mul(x, e.add(y, z)) == e.add(e.mul(x, y), e.mul(x, z))
        assert e.add(e.sub(x, y), y) == x
        if x != zero:
            assert e.mul(x, e.inv(x)) == one
        assert frobenius(e, e.add(x, y), 1) == \
            e.add(frobenius(e, x, 1), frobenius(e, y, 1))
    check()


def test_defective_multiply_fails_instead_of_looping(monkeypatch):
    # a multiply that returns zero fails the axioms check; field_new must
    # raise, not loop
    monkeypatch.setattr(gf, "_poly_mulmod",
                        lambda f, a, b, modulus: [0] * (len(modulus) - 1))
    with pytest.raises(VerificationFailed):
        field_new.__wrapped__(4)


def test_mul_table_without_inverses_fails_axioms(monkeypatch):
    # t^2 is reducible: GF(2)[t] / (t^2) is a ring in which t has no inverse
    monkeypatch.setitem(gf._BASE_MODULI, (2, 2), (0, 0, 1))
    with pytest.raises(VerificationFailed, match="inverse"):
        field_new.__wrapped__(4)


def test_inverse_of_zero_raises():
    for q in SUPPORTED_ORDERS:
        with pytest.raises(ZeroDivisionError):
            field_new(q).inv(0)


def test_is_prime_power_matches_trial_division():
    def by_trial_division(q):
        if q < 2:
            return False
        p = next(p for p in range(2, q + 1) if q % p == 0)
        while q % p == 0:
            q //= p
        return q == 1
    assert [q for q in range(-3, 5000)
            if gf.is_prime_power(q) != by_trial_division(q)] == []
    # large primes and their powers, Carmichael numbers, strong
    # pseudoprimes to several small bases, and a product of two primes
    p = 2 ** 61 - 1
    assert gf.is_prime_power(p) and gf.is_prime_power(p ** 3)
    assert gf.is_prime_power(3 ** 200) and gf.is_prime_power(2 ** 127)
    assert not any(map(gf.is_prime_power, (
        561, 41041, 3215031751, 3825123056546413051, p * (2 ** 31 - 1),
        10 ** 30)))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ext_new(2, 3).inv((0, 0, 0)), ZeroDivisionError,
                 "inverse of 0 in GF(2^3)", id="ext-inverse-of-zero"),
])
def test_every_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


def test_field_tables_pinned():
    # every table of every supported field, bit for bit
    tables = repr([(q, f.modulus, f._add, f._mul, f._neg)
                   for q in SUPPORTED_ORDERS for f in [field_new(q)]])
    assert hashlib.sha256(tables.encode()).hexdigest() == (
        "e322c01fb184befaa8cbb5084e3ad913439da62da64bd2f980b4f91375acb0a0")


def test_ext_moduli_pinned_at_every_degree():
    # the modulus of every extension ext_new accepts, m = 1..16
    moduli = repr([(q, m, ext_new(q, m).modulus)
                   for q in SUPPORTED_ORDERS for m in range(1, 17)])
    assert hashlib.sha256(moduli.encode()).hexdigest() == (
        "bd181567fd335898b214a40b4f535a9291f95031814be8d66a96205ab5f3c177")


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2), (4, 2), (9, 2)])
def test_elements_ascend_in_integer_encoding(q, m):
    # element i has digit j, base q, as its coefficient of t^j
    els = list(ext_new(q, m).elements())
    assert els == [tuple(i // q ** j % q for j in range(m))
                   for i in range(q ** m)]
