import math
import random
import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rabinsig.errors import FactorLeakError, NonResidueError
from rabinsig.keygen import KeyPair
from rabinsig.numtheory import (
    Idempotents,
    _principal_root,
    canonical_sqrt_mod_pq,
    crt_combine,
    crt_idempotents,
    is_probable_prime,
    jacobi,
    least_nonresidue,
    mod_inv,
    sqrt_mod_pq,
    sqrt_of_unity_nontrivial,
)
from rabinsig.oracle import SmallRing, all_roots, qr_set, units

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class TestModInv:
    def test_inverse(self):
        assert mod_inv(10, 77) * 10 % 77 == 1

    def test_shared_factor_is_a_leak(self):
        with pytest.raises(FactorLeakError):
            mod_inv(14, 77)

    def test_leak_message_carries_no_digits(self):
        with pytest.raises(FactorLeakError) as excinfo:
            mod_inv(0, 77)
        assert not any(ch.isdigit() for ch in str(excinfo.value))
        # nor does a chained exception show beneath it
        assert excinfo.value.__context__ is None or excinfo.value.__suppress_context__

    @given(st.integers(-10**12, 10**12), st.integers(2, 10**12))
    def test_is_the_least_nonnegative_inverse(self, a, n):
        if math.gcd(a, n) != 1:
            return
        inv = mod_inv(a, n)
        assert 0 <= inv < n and a * inv % n == 1


class TestJacobi:
    def test_known_values(self):
        assert jacobi(2, 7) == 1  # 3*3 = 2 mod 7
        assert jacobi(3, 7) == -1
        assert jacobi(0, 7) == 0

    def test_rejects_bad_modulus(self):
        for n in (0, -7, 10):
            with pytest.raises(ValueError):
                jacobi(3, n)

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_matches_exhaustive_legendre(self, p):
        residues = {x * x % p for x in range(1, p)}
        for a in range(p):
            if a == 0:
                assert jacobi(a, p) == 0
            else:
                assert jacobi(a, p) == (1 if a in residues else -1)

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_least_nonresidue(self, p):
        residues = {x * x % p for x in range(1, p)}
        assert least_nonresidue(p) == min(a for a in range(2, p) if a not in residues)

    @given(st.integers(0, 10**9), st.integers(0, 10**9), st.sampled_from((15, 21, 77, 105, 9797)))
    def test_multiplicative(self, a, b, n):
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(2, 50) if is_probable_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        ]

    def test_strong_pseudoprimes_rejected(self):
        # composites that fool single fixed-base tests
        for n in (2047, 1373653, 25326001, 3215031751):
            assert not is_probable_prime(n, random.Random(5))

    def test_agrees_with_sympy_on_a_window(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(3, 1 << 40) | 1
            assert is_probable_prime(n, rng) == sympy.isprime(n)


class TestIdempotents:
    def test_toy_values(self):
        assert crt_idempotents(7, 11) == Idempotents(22, 56)
        assert crt_idempotents(3, 5) == Idempotents(10, 6)

    def test_equal_primes_rejected(self):
        with pytest.raises(ValueError):
            crt_idempotents(7, 7)

    def test_identities_on_random_pairs(self, rng):
        primes = [p for p in range(3, 2000) if is_probable_prime(p)]
        for _ in range(100):
            p, q = rng.sample(primes, 2)
            n = p * q
            idem = crt_idempotents(p, q)
            assert (idem.psi1 + idem.psi2) % n == 1
            assert idem.psi1 % q == 0 and idem.psi1 % p == 1
            assert idem.psi2 % p == 0 and idem.psi2 % q == 1
            assert idem.psi1 * idem.psi2 % n == 0
            assert idem.psi1 ** 2 % n == idem.psi1
            assert idem.psi2 ** 2 % n == idem.psi2

    def test_crt_combine(self):
        assert crt_combine(1, 2, 7, 11) == 57
        assert crt_combine(3, 4, 7, 11) == 59


class TestSqrtModPrime:
    # the root of one prime, _principal_root, taken to the smaller of the pair

    @staticmethod
    def canonical(a, p):
        s = _principal_root(a, p)
        return min(s, p - s)

    def test_known_values(self):
        assert self.canonical(2, 7) == 3
        assert self.canonical(4, 11) == 2
        assert self.canonical(4, 13) == 2  # a 1-mod-4 prime takes Tonelli-Shanks

    def test_nonresidue_rejected(self):
        with pytest.raises(NonResidueError):
            _principal_root(3, 7)
        with pytest.raises(NonResidueError):
            _principal_root(2, 13)

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_exhaustive_against_brute_force(self, p):
        # covers both the 3-mod-4 shortcut and the general procedure, over every unit
        for a in range(1, p):
            roots = [x for x in range(p) if x * x % p == a]
            if roots:
                assert self.canonical(a, p) == min(roots)
            else:
                with pytest.raises(NonResidueError):
                    _principal_root(a, p)


class TestSqrtModPq:
    def test_four_roots_of_4_mod_77(self):
        assert tuple(r.value for r in sqrt_mod_pq(4, 7, 11)) == (2, 9, 68, 75)

    def test_four_roots_of_unity_mod_77(self):
        assert tuple(r.value for r in sqrt_mod_pq(1, 7, 11)) == (1, 34, 43, 76)

    def test_contains_trivial_roots_of_unity(self, rng):
        for p, q in ((7, 11), (11, 19), (13, 17)):
            values = [r.value for r in sqrt_mod_pq(1, p, q)]
            assert 1 in values and p * q - 1 in values

    def test_closed_under_negation_with_distinct_labels(self):
        ring = SmallRing(7, 11)
        for a in sorted(qr_set(ring)):
            roots = sqrt_mod_pq(a, 7, 11)
            values = {r.value for r in roots}
            assert len(values) == 4
            assert values == {77 - v for v in values}
            # Blum case: the four roots land in the four distinct classes
            assert {(r.jacobi_p, r.jacobi_q) for r in roots} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
            assert values == set(all_roots(a, ring))

    def test_canonical_root_is_smallest(self):
        assert canonical_sqrt_mod_pq(4, 7, 11) == 2
        assert canonical_sqrt_mod_pq(15, 7, 11) == 13

    def test_nonresidue_rejected(self):
        with pytest.raises(NonResidueError):
            sqrt_mod_pq(3, 7, 11)  # 3 is a non-residue mod 7

    def test_shared_factor_is_a_leak_without_disclosing_it(self):
        with pytest.raises(FactorLeakError) as excinfo:
            sqrt_mod_pq(7, 7, 11)
        assert not any(ch.isdigit() for ch in str(excinfo.value))


class TestCompositeModuli:
    """A composite where a prime belongs raises ValueError instead of spinning.

    A perfect square has no non-residue, so the non-residue search stops at
    its first Jacobi symbol of 0; the order loop of Tonelli-Shanks stops
    after s squarings.  A hang would fail these tests through the alarm.
    """

    @pytest.fixture(autouse=True)
    def alarm(self):
        def expire(signum, frame):
            raise TimeoutError("no answer within 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_square_modulus_has_no_nonresidue(self):
        for p in (9, 25, 49 * 121):
            with pytest.raises(ValueError):
                least_nonresidue(p)

    def test_roots_modulo_a_square_raise(self):
        with pytest.raises(ValueError):
            sqrt_mod_pq(4, 9, 5)
        with pytest.raises(ValueError):
            canonical_sqrt_mod_pq(16, 25, 7)

    def test_tonelli_shanks_order_loop_is_bounded(self):
        # 65 = 5*13 is 1 mod 4 with (3/65) = -1, and no power 4**(2**i) is 1 mod 65
        assert least_nonresidue(65) == 3
        with pytest.raises(ValueError):
            sqrt_mod_pq(4, 65, 3)
        with pytest.raises(ValueError):
            canonical_sqrt_mod_pq(4, 3, 65)

    def test_three_mod_four_composite_raises(self):
        # 4**((15+1)/4) = 1 mod 15 squares to neither 4 nor -4
        with pytest.raises(ValueError):
            sqrt_mod_pq(4, 15, 7)


class TestSqrtOfUnity:
    def test_toy_values(self):
        assert sqrt_of_unity_nontrivial(7, 11) == (43, 34)

    def test_squares_to_one_and_leaks_a_factor(self, rng):
        primes = [p for p in range(3, 500) if is_probable_prime(p)]
        for _ in range(50):
            p, q = rng.sample(primes, 2)
            n = p * q
            for v in sqrt_of_unity_nontrivial(p, q):
                assert v * v % n == 1
                assert v not in (1, n - 1)
                assert math.gcd(v + 1, n) in (p, q)


class TestResidueCharacterisation:
    @pytest.mark.parametrize("p,q", ((3, 5), (3, 7), (7, 11)))
    def test_qr_iff_both_jacobi_positive(self, p, q):
        ring = SmallRing(p, q)
        residues = qr_set(ring)
        for a in units(ring):
            assert (a in residues) == (jacobi(a, p) == 1 and jacobi(a, q) == 1)


class TestModulus:
    # the factor-pair checks live in KeyPair.from_primes
    def test_validates(self):
        assert KeyPair.from_primes("general", 7, 11).n == 77

    def test_rejects_bad_material(self):
        for p, q in ((7, 7), (8, 11), (7, 15), (1, 11)):
            with pytest.raises(ValueError):
                KeyPair.from_primes("general", p, q)
