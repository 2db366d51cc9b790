import random
from itertools import product

import pytest

from field_reference import roots_in_field, smallest_nonsquare_scan
from nmdscodes import finite_field
from nmdscodes.finite_field import (
    FieldSpec,
    _is_irreducible,
    _lex_min_irreducible,
    _mulmod,
    _subfield_roots,
    frobenius,
    quadratic_extension,
    smallest_nonsquare,
    sqrt,
)
from nmdscodes.linalg import power


def _random_elements(spec, rng, count):
    pool = list(spec.elements())
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def test_prime_field_basic_arithmetic():
    F7 = FieldSpec(7)
    a, b = F7(3), F7(5)
    assert (a + b).coeffs == (1,)
    assert (a * b).coeffs == (1,)
    assert (a - b).coeffs == (5,)
    assert (a / b).coeffs == (2,)  # 3 * 5^-1 = 3 * 3 = 9 = 2
    assert (a ** (-1) * a).coeffs == (1,)


def test_field_axioms_seeded_random():
    rng = random.Random(5)
    for spec in (FieldSpec(7), FieldSpec(13), FieldSpec(7, 2), FieldSpec(5, 3)):
        elems = _random_elements(spec, rng, 40)
        one = spec.one()
        for i in range(0, len(elems) - 2, 3):
            a, b, c = elems[i], elems[i + 1], elems[i + 2]
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if a:
                assert a * a.inverse() == one


def test_pow_matches_repeated_multiplication():
    rng = random.Random(6)
    spec = FieldSpec(11, 2)
    for a in _random_elements(spec, rng, 10):
        acc = spec.one()
        for e in range(8):
            assert a**e == acc
            acc = acc * a
        if a:
            assert a ** (-3) == (a**3).inverse()


def test_fermat_orders():
    for spec in (FieldSpec(13), FieldSpec(7, 2), FieldSpec(7, 3)):
        q = spec.order
        rng = random.Random(q)
        for a in _random_elements(spec, rng, 12):
            if a:
                assert a ** (q - 1) == spec.one()


def test_quadratic_extension_uses_least_nonsquare_modulus():
    # x^2 - n with n the least non-square: 3 for F_7, 2 for F_13, 3 for F_31
    assert quadratic_extension(FieldSpec(7)).ext.modulus == (4, 0, 1)
    assert quadratic_extension(FieldSpec(13)).ext.modulus == (11, 0, 1)
    assert quadratic_extension(FieldSpec(31)).ext.modulus == (28, 0, 1)
    assert quadratic_extension(FieldSpec(43)).ext.modulus == (41, 0, 1)
    assert smallest_nonsquare(FieldSpec(7)).coeffs == (3,)
    assert smallest_nonsquare(FieldSpec(13)).coeffs == (2,)


def test_smallest_nonsquare_matches_the_full_scan():
    # even degree scans only elements with first nonzero coefficient 1
    fields = [quadratic_extension(FieldSpec(q)).ext for q in (7, 13, 31, 43, 157, 307, 4423)]
    fields += [FieldSpec(5, 2), FieldSpec(7, 2), FieldSpec(5, 3), FieldSpec(7, 3)]
    for spec in fields:
        assert smallest_nonsquare(spec) == smallest_nonsquare_scan(spec), spec


def _monic(p, degree):
    """Every monic polynomial of the degree over F_p, constant term first."""
    for tail in product(range(p), repeat=degree):
        yield tail + (1,)


def _divides(d, f, p):
    """Whether the monic d divides f, by schoolbook long division."""
    r = list(f)
    for shift in range(len(f) - len(d), -1, -1):
        lead = r[shift + len(d) - 1]
        for i, c in enumerate(d):
            r[shift + i] = (r[shift + i] - lead * c) % p
    return not any(r)


@pytest.mark.parametrize("p, degrees", [(5, (2, 3, 4, 5)), (7, (2, 3, 4))])
def test_irreducibility_matches_trial_division(p, degrees):
    for m in degrees:
        for f in _monic(p, m):
            factor = any(
                _divides(d, f, p) for e in range(1, m // 2 + 1) for d in _monic(p, e)
            )
            assert _is_irreducible(f, p) is not factor, f


def _polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def test_degree_six_needs_the_frobenius_rank():
    # a product of two distinct irreducible cubics divides x^(5^6) - x, so
    # only the rank of Q - I (2 factors, rank 4) can reject it
    p = 5
    cubics = [f for f in _monic(p, 3) if _is_irreducible(f, p)]
    assert len(cubics) == 40
    one, x = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)
    for i, g in enumerate(cubics):
        for h in cubics[i + 1 :]:
            f = _polymul(g, h, p)
            mul = lambda a, b, f=f: _mulmod(a, b, f, p)
            assert power(x, p**6, mul, one) == x
            assert not _is_irreducible(f, p), f
        assert not _is_irreducible(_polymul(g, g, p), p), g
    assert _is_irreducible((1, 0, 0, 0, 1, 0, 1), 7)  # x^6 + x^4 + 1


def test_fermat_inverse_on_a_wide_prime():
    spec = FieldSpec(4294967311, 2)
    one = spec.one()
    for coeffs in ((1, 1), (0, 1), (4294967310, 12345), (2**31 + 7, 2**32 - 1)):
        a = spec(coeffs)
        assert a * a.inverse() == one


def test_default_moduli_are_the_first_irreducibles():
    assert FieldSpec(7, 3).modulus == (1, 0, 1, 1)
    assert FieldSpec(7, 6).modulus == (1, 0, 0, 0, 1, 0, 1)
    for p, m in ((5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2)):
        first = next(f for f in _monic(p, m) if _is_irreducible(f, p))
        assert _lex_min_irreducible(p, m) == first


def test_each_modulus_is_tested_once(monkeypatch):
    # the default scan tests candidates up to its first hit and no more;
    # a modulus the caller gives is tested once
    tested = []

    def counted(mod, p):
        tested.append(mod)
        return _is_irreducible(mod, p)

    monkeypatch.setattr(finite_field, "_is_irreducible", counted)
    assert FieldSpec(7, 6).modulus == (1, 0, 0, 0, 1, 0, 1)
    assert len(tested) == len(set(tested)) == 8
    tested.clear()
    assert FieldSpec(7, 6, (1, 0, 0, 0, 1, 0, 1)).modulus == (1, 0, 0, 0, 1, 0, 1)
    assert tested == [(1, 0, 0, 0, 1, 0, 1)]


def test_default_modulus_for_a_wide_prime():
    # the scan must not materialise range(p): x^2 + 1 is the first hit
    assert FieldSpec(4294967311, 2).modulus == (1, 0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(13, 2, (0, 11, 1))  # x^2 + 11x factors as x(x + 11)


def test_sqrt_all_squares_prime_fields():
    for p in (7, 13, 31, 43):
        spec = FieldSpec(p)
        for v in range(p):
            el = spec(v)
            sq = el * el
            r = sqrt(sq)
            assert r * r == sq
            # canonical choice: lexicographically smaller of the two roots
            assert r.coeffs <= (-r).coeffs


def test_sqrt_extension_field():
    spec = FieldSpec(13, 2)
    rng = random.Random(7)
    for el in _random_elements(spec, rng, 25):
        sq = el * el
        r = sqrt(sq)
        assert r * r == sq


def test_sqrt_of_nonsquare_raises():
    spec = FieldSpec(7)
    with pytest.raises(ValueError):
        sqrt(spec(3))


def test_frobenius_is_field_automorphism_fixing_base():
    base = FieldSpec(7)
    ext = quadratic_extension(base)
    spec = ext.ext
    rng = random.Random(8)
    elems = _random_elements(spec, rng, 16)
    for i in range(0, len(elems) - 1, 2):
        a, b = elems[i], elems[i + 1]
        assert frobenius(a * b, 7) == frobenius(a, 7) * frobenius(b, 7)
        assert frobenius(a + b, 7) == frobenius(a, 7) + frobenius(b, 7)
        assert frobenius(frobenius(a, 7), 7) == a
    for v in range(7):
        assert frobenius(ext.embed(base(v)), 7) == ext.embed(base(v))


def test_quadratic_extension_prime_base():
    base = FieldSpec(7)
    ext = quadratic_extension(base)
    assert ext.ext.order == 49
    img = ext.embed(base(3))
    assert img.coeffs == (3, 0)


def test_quadratic_extension_nonprime_base():
    # F_49 embeds into a flat degree-4 extension of F_7
    base = FieldSpec(7, 2)
    ext = quadratic_extension(base)
    assert ext.ext.order == 49**2
    emb = ext.embed
    rng = random.Random(9)
    elems = _random_elements(base, rng, 10)
    for i in range(0, len(elems) - 1, 2):
        a, b = elems[i], elems[i + 1]
        assert emb(a * b) == emb(a) * emb(b)
        assert emb(a + b) == emb(a) + emb(b)
    # embedded elements are exactly the ones fixed by x -> x^49
    for a in elems:
        assert emb(a) ** 49 == emb(a)


@pytest.mark.parametrize("p, t", [(5, 2), (7, 2), (11, 2), (5, 3), (7, 3), (13, 3)])
def test_subfield_roots_match_the_polynomial_root_finder(p, t):
    base = FieldSpec(p, t)
    ext = FieldSpec(p, 2 * t)
    roots = [ext(r) for r in _subfield_roots(base, ext).tolist()]
    assert len(roots) == t
    assert roots == roots_in_field(base.modulus, ext)
    assert quadratic_extension(base).gen_powers[1] == roots[0]


def test_subfield_roots_under_an_explicit_modulus():
    base = FieldSpec(7, 3)
    ext = FieldSpec(7, 6, (4, 0, 0, 0, 0, 0, 1))  # x^6 - 3, irreducible over F_7
    roots = [ext(r) for r in _subfield_roots(base, ext).tolist()]
    assert roots == roots_in_field(base.modulus, ext)
    assert quadratic_extension(base, ext.modulus).gen_powers[1] == roots[0]


def test_elements_iteration_is_lexicographic():
    spec = FieldSpec(5, 2)
    elems = list(spec.elements())
    assert len(elems) == 25
    assert elems[0].coeffs == (0, 0)
    assert elems[1].coeffs == (0, 1)
    coeff_lists = [e.coeffs for e in elems]
    assert coeff_lists == sorted(coeff_lists)
