"""Square roots and Jacobi symbols against sympy, over random primes of each class.

The root extraction takes a different path for each class of prime: the
exponent shortcut for 3 mod 4, and Tonelli-Shanks for 5 mod 8 (one step of
two-adic correction) and for 1 mod 8 (several).  A key keeps the constants
of both paths after their first use; roots taken with them must equal roots
taken with constants built for the one call.
"""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rabinsig.errors import NonResidueError
from rabinsig.keygen import KeyPair
from rabinsig.numtheory import _principal_root, _PrimeRoots, canonical_sqrt_mod_pq, crt_combine, jacobi, sqrt_mod_pq

sympy = pytest.importorskip("sympy")

PRIME_CLASSES = ((3, 4), (5, 8), (1, 8))


def _prime_in_class(start: int, cls: tuple[int, int]) -> int:
    residue, modulus = cls
    p = sympy.nextprime(start)
    while p % modulus != residue:
        p = sympy.nextprime(p)
    return p


primes = st.builds(_prime_in_class, st.integers(3, 1 << 80), st.sampled_from(PRIME_CLASSES))
prime_pairs = st.tuples(primes, primes).filter(lambda pq: pq[0] != pq[1])


def _square_of_a_unit(x: int, n: int) -> int:
    assume(math.gcd(x, n) == 1)
    return x * x % n


@given(prime_pairs, st.integers(1, 1 << 200))
def test_canonical_root_is_the_least_of_the_four(pq, x):
    p, q = pq
    a = _square_of_a_unit(x, p * q)
    assert canonical_sqrt_mod_pq(a, p, q) == min(r.value for r in sqrt_mod_pq(a, p, q))


@given(prime_pairs, st.integers(1, 1 << 200))
def test_each_root_carries_its_jacobi_class(pq, x):
    p, q = pq
    n = p * q
    a = _square_of_a_unit(x, n)
    roots = sqrt_mod_pq(a, p, q)
    assert len({r.value for r in roots}) == 4
    for r in roots:
        assert r.value * r.value % n == a
        assert (r.jacobi_p, r.jacobi_q) == (jacobi(r.value, p), jacobi(r.value, q))
        assert (r.jacobi_p, r.jacobi_q) == (sympy.jacobi_symbol(r.value, p), sympy.jacobi_symbol(r.value, q))


@given(prime_pairs, st.integers(1, 1 << 200), st.booleans())
def test_a_residue_modulo_one_prime_only_is_refused(pq, x, swap):
    p, q = pq
    if swap:
        p, q = q, p
    z = next(z for z in range(2, q) if sympy.jacobi_symbol(z, q) == -1)
    a = crt_combine(_square_of_a_unit(x, p), z, p, q)  # residue mod p, non-residue mod q
    with pytest.raises(NonResidueError):
        sqrt_mod_pq(a, p, q)
    with pytest.raises(NonResidueError):
        canonical_sqrt_mod_pq(a, p, q)


@given(prime_pairs, st.lists(st.integers(1, 1 << 200), min_size=2, max_size=4))
def test_roots_with_the_key_constants_equal_roots_built_per_call(pq, xs):
    p, q = pq
    key = KeyPair.from_primes("general", p, q)
    for x in xs:  # the first value may leave z**d in the key's constants for the next
        a = _square_of_a_unit(x, key.n)
        assert sqrt_mod_pq(a, p, q, key.idem) == sqrt_mod_pq(a, p, q)
        assert canonical_sqrt_mod_pq(a, p, q, key.idem) == canonical_sqrt_mod_pq(a, p, q)


one_mod_four_primes = st.builds(_prime_in_class, st.integers(3, 1 << 80), st.sampled_from(((5, 8), (1, 8))))


@given(one_mod_four_primes, st.lists(st.integers(1, 1 << 100), min_size=1, max_size=8))
def test_tonelli_shanks_refuses_exactly_the_non_residues(p, values):
    constants = _PrimeRoots(p)
    for a in (v % p for v in values if v % p):
        if sympy.is_quad_residue(a, p):
            for c in (constants, None):
                assert pow(_principal_root(a, p, c), 2, p) == a
        else:
            for c in (constants, None):
                with pytest.raises(NonResidueError):
                    _principal_root(a, p, c)


odd_moduli = st.integers(0, 1 << 120).map(lambda k: 2 * k + 1)
numerators = st.one_of(
    st.integers(-(1 << 300), 1 << 300),  # mostly far larger than n
    st.integers(1, 1 << 200).map(lambda k: k << 7),  # at least seven factors of 2
    st.integers(0, 40).map(lambda k: 1 << k),  # powers of two, odd and even exponents
    st.integers(0, 64),
)


@given(numerators, odd_moduli)
def test_jacobi_agrees_with_sympy(a, n):
    assert jacobi(a, n) == sympy.jacobi_symbol(a, n)

