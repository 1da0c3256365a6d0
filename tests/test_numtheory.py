import dataclasses
import itertools
import math
import random
import signal
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabinsig.errors import FactorLeakError, NonResidueError
from rabinsig import keygen, numtheory
from rabinsig.hashing import IDENTITY
from rabinsig.keygen import KeyPair, ProvenPrime, dump_private, gen_keypair, gen_prime, parse_key
from rabinsig.numtheory import (
    _EXACT_BASES,
    _SINCLAIR_BASES,
    _binding_root,
    _bls_test,
    _class_root,
    _exact_prime,
    _miller_rabin,
    _modexp,
    _pocklington,
    _PrimeRoots,
    _proven,
    _sieve_primes,
    canonical_sqrt_mod_pq,
    crt_combine,
    crt_idempotents,
    crt_padding,
    is_probable_prime,
    jacobi,
    least_nonresidue,
    mod_inv,
    sqrt_mod_pq,
    sqrt_of_unity_nontrivial,
)
from rabinsig.oracle import SmallRing, all_roots, qr_set, units

from conftest import NoRandomness, composite_with_a_proven_factor

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


needs_libcrypto = pytest.mark.skipif(numtheory._libcrypto is None,
                                     reason="libcrypto's BN_* functions were not found through _hashlib")


class TestModexp:
    @given(a=st.integers(-(1 << 1200), 1 << 1200), e=st.integers(0, 1 << 700),
           m=st.integers(1 << 64, 1 << 1100), odd=st.booleans())
    def test_agrees_with_pow(self, a, e, m, odd):
        m = m & ~1 | odd  # 2**64 is even, so m stays at or above it
        assert _modexp(a, e, m) == pow(a, e, m)

    @pytest.mark.parametrize("m", [(1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 127) - 1])
    @pytest.mark.parametrize("a", [0, 1, 2, -1, -2, (1 << 64) - 1, 1 << 64, 3 << 64])
    @pytest.mark.parametrize("e", [0, 1, 2, (1 << 64) - 3])
    def test_edge_cases_agree_with_pow(self, a, e, m):
        assert _modexp(a, e, m) == pow(a, e, m)

    def test_four_threads_at_once_agree_with_pow(self):
        # each thread has its own BIGNUMs, and libcrypto runs without the interpreter lock
        barrier, failures, done = threading.Barrier(4, timeout=30), [], []

        def work(seed):
            rng = random.Random(seed)
            barrier.wait()
            for _ in range(100):
                m = rng.getrandbits(rng.randrange(65, 1100)) | 1 << 64
                a, e = rng.getrandbits(1100), rng.getrandbits(600)
                if _modexp(a, e, m) != pow(a, e, m):
                    failures.append((seed, a, e, m))
            done.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and sorted(done) == [0, 1, 2, 3]

    @needs_libcrypto
    def test_pow_runs_below_2_to_64_only(self, monkeypatch):
        moduli = []

        def recorded(base, exp, mod):
            moduli.append(mod)
            return pow(base, exp, mod)

        monkeypatch.setattr(numtheory, "pow", recorded, raising=False)
        for m in ((1 << 64) - 1, 1 << 64, (1 << 512) - 569):
            assert _modexp(3, 1 << 40, m) == pow(3, 1 << 40, m)
        assert moduli == [(1 << 64) - 1]

    @needs_libcrypto
    def test_a_failure_in_libcrypto_raises_naming_no_number(self, monkeypatch):
        real = numtheory._libcrypto

        class Failing:
            def __getattr__(self, name):
                return (lambda *args: 0) if name == "BN_mod_exp" else getattr(real, name)

        monkeypatch.setattr(numtheory, "_libcrypto", Failing())
        with pytest.raises(ArithmeticError) as info:
            _modexp(5, 12345, (1 << 89) - 1)
        assert not any(ch.isdigit() for ch in str(info.value))

    def test_without_libcrypto_a_seeded_key_and_its_load_are_the_same(self, monkeypatch):
        def seeded_key_and_load():
            key = gen_keypair("general", 512, rng=random.Random("modexp/512"))
            text = dump_private(key)
            loaded = parse_key(text)
            return text, loaded, dump_private(loaded)

        native = seeded_key_and_load()
        monkeypatch.setattr(numtheory, "_libcrypto", None)
        assert seeded_key_and_load() == native

    @pytest.mark.parametrize("libcrypto", ["as loaded", "None"])
    def test_a_primes_constants_equal_their_pow_definitions(self, monkeypatch, libcrypto):
        # every prime of the fixed 96-bit keys whose seeded outputs are pinned: 1 mod 16, 5 mod 8,
        # 1 mod 8, 3 mod 8 and 7 mod 8; both constants are integers for any odd prime
        from test_seeded_output import KEYS

        if libcrypto == "None":
            monkeypatch.setattr(numtheory, "_libcrypto", None)
        primes = [prime for _, p, q, _ in KEYS.values() for prime in (p, q)]
        assert {p % 16 for p in primes} >= {1, 13, 9, 11, 15} and min(primes) > 1 << 64
        for p in primes:
            at = _PrimeRoots(p)
            c = pow(2, -(at.exp + 1), p)
            assert at.zpow == pow(at.z, at.exp, p) and at.half_root == min(c, p - c)


PSI_12 = 318665857834031151167461  # least strong pseudoprime to the bases 2..37


@pytest.fixture(scope="module")
def sympy():
    # imported once, outside any Hypothesis example, so the import does not count against its deadline
    return pytest.importorskip("sympy")


class TestExactPrime:
    @given(st.one_of(st.integers(0, (1 << 64) - 1), st.integers(0, 1 << 20)))
    def test_agrees_with_sympy_below_2_to_64(self, sympy, n):
        assert _exact_prime(n) == sympy.isprime(n)
        assert is_probable_prime(n, NoRandomness()) == sympy.isprime(n)  # no random rounds below 2**64

    @pytest.mark.parametrize("n,bases", [(3215031751, (2, 3, 5, 7)),
                                         (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23))])
    def test_strong_pseudoprimes_to_fewer_bases_rejected(self, n, bases):
        assert _miller_rabin(n, bases)  # each fools the shorter list of bases
        assert not _exact_prime(n)
        assert not is_probable_prime(n, NoRandomness())

    def test_agrees_with_sympy_on_every_n_below_2_to_16(self):
        sympy = pytest.importorskip("sympy")
        assert [n for n in range(1 << 16) if _exact_prime(n) != sympy.isprime(n)] == []

    @pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321])
    def test_base_2_strong_pseudoprimes_rejected(self, n):
        # the least five composites that are strong probable primes to base 2
        assert _miller_rabin(n, (2,)) and not _exact_prime(n)

    def test_divisors_of_a_base_are_decided(self):
        # a base that n divides is skipped: 73 and 193 divide 28178, and so does their product 14089
        sympy = pytest.importorskip("sympy")
        divisors = {d for a in _SINCLAIR_BASES for d in sympy.divisors(a) if d > 37}
        assert {73, 193, 14089} <= divisors
        assert [d for d in sorted(divisors) if _exact_prime(d) != sympy.isprime(d)] == []

    def test_psi_12_needs_the_random_rounds(self):
        # it fools all twelve bases, which is why the exact test stops at 2**64 < psi_12
        assert PSI_12 > 1 << 64 and _miller_rabin(PSI_12, _EXACT_BASES)
        for seed in range(5):
            assert not is_probable_prime(PSI_12, random.Random(seed))


def _squared_witnesses(n, steps):
    # each step's witness squared modulo the number that the step proves
    squared = []
    for f, b in steps:
        squared.append((f, b * b % n))
        n = f
    return tuple(squared)


def _witness_of_order(f, r, t):
    # a unit of order f modulo both primes r and t, both 1 mod f: x**((r-1)/f) for the least x
    # with that power not 1, lifted by CRT
    br, bt = (next(y for x in range(2, m) if (y := pow(x, (m - 1) // f, m)) != 1) for m in (r, t))
    return crt_combine(br, bt, crt_idempotents(r, t))


def _reference_witness(n, f):
    # keygen's witness without its Fermat test first: b = 2**((n-1)/f) when _pocklington accepts it, else 0
    b = pow(2, (n - 1) // f, n)
    return b if _pocklington(n, f, b) else 0


class TestProven:
    def test_a_factor_below_the_cube_root_proves_nothing(self):
        # the Carmichael number (6k+1)(12k+1)(18k+1) passes both witness conditions with
        # f = 101 | n - 1, but (2*101)**3 < n, so n may have three prime factors that are 1 mod 202
        k = 1051410
        n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        b = pow(2, (n - 1) // 101, n)
        assert n > 1 << 64 and (n - 1) % 202 == 0 and pow(b, 101, n) == 1 and math.gcd(b - 1, n) == 1
        assert 202**3 < n and not _bls_test(n, 101)
        assert not _pocklington(n, 101, b) and not _proven(n, ((101, b),))

    def test_the_size_and_square_test_decides_every_small_case(self):
        # for each odd prime f < 200 and F = 2f: every n = 1 mod F up to F**3 whose prime factors
        # are all 1 mod F, which are such primes and products of two of them
        sympy = pytest.importorskip("sympy")
        checked = composites = 0
        for f in _sieve_primes(200)[1:]:
            F, top = 2 * f, (2 * f) ** 3
            alive = bytearray([1]) * (F * F)  # n = k*F + 1 for 0 < k < F*F
            alive[0] = 0
            for r in _sieve_primes(math.isqrt(top) + 1)[1:]:
                if r != f:
                    k = -pow(F, -1, r) % r  # the first k*F + 1 divisible by r
                    k += r if k * F + 1 == r else 0  # r itself stays
                    alive[k::r] = bytes(len(range(k, F * F, r)))
            primes = [k * F + 1 for k in range(F * F) if alive[k]]
            products = [r * t for i, r in enumerate(itertools.takewhile(lambda r: r * r <= top, primes))
                        for t in itertools.takewhile(lambda t: r * t <= top, primes[i:])]
            for n in primes + products:
                assert _bls_test(n, f) == sympy.isprime(n), (n, f)
            checked += len(primes) + len(products)
            composites += len(products)
        assert checked > 280_000 and composites > 1500

    def test_a_composite_with_two_factors_is_refused_by_the_square_test_alone(self):
        # n = (15F + 1)(35F + 1) with n**(1/3) < F < n**(1/2), and a witness of order f modulo
        # both primes: every other condition holds, and c1**2 - 4*c2 = (35 - 15)**2
        f = 2147483659
        F = 2 * f
        r, t = 15 * F + 1, 35 * F + 1
        n, b = r * t, _witness_of_order(f, r, t)
        assert _exact_prime(f) and _exact_prime(r) and _exact_prime(t)
        assert n > 1 << 64 and F**2 < n <= F**3 and n % F == 1
        assert 0 < b < n and pow(b, f, n) == 1 and math.gcd(b - 1, n) == 1
        c2, c1 = divmod((n - 1) // F, F)
        assert (c2, c1) == (15 * 35, 15 + 35) and c1 * c1 - 4 * c2 == 20**2
        assert not _bls_test(n, f) and not _pocklington(n, f, b) and not _proven(n, ((f, b),))

    def test_a_composite_just_above_the_cube_is_refused_by_the_size_test_alone(self):
        # F**3 + 1 = (F + 1)(F**2 - F + 1): both factors are 1 mod F and prime, and its digits
        # c2 = F, c1 = 0 pass the square test (c1**2 - 4*c2 < 0), so only F**3 >= n refuses it
        f = 2097629
        F = 2 * f
        r, t = F + 1, F * F - F + 1
        n, b = F**3 + 1, _witness_of_order(f, r, t)
        assert _exact_prime(f) and _exact_prime(r) and _exact_prime(t) and n == r * t > 1 << 64
        assert n % F == 1 and 0 < b < n and pow(b, f, n) == 1 and math.gcd(b - 1, n) == 1
        assert divmod((n - 1) // F, F) == (F, 0)
        assert not _bls_test(n, f) and not _pocklington(n, f, b) and not _proven(n, ((f, b),))

    def test_a_factor_of_the_order_of_2_proves_nothing(self):
        # n = 2298041 * 9361973132609 divides 2**73 - 1, so for the prime f = 8138064073, with
        # f | n - 1 and f*f > n, the base-2 witness 2**((n-1)/f) is 1: b**f = 1, and only
        # gcd(b - 1, n) = 1 fails
        n, f = 2298041 * 9361973132609, 8138064073
        assert (2**73 - 1) % n == 0 and (n - 1) % f == 0 and f * f > n > 1 << 64 and _exact_prime(f)
        b = pow(2, (n - 1) // f, n)
        assert b == 1 and pow(b, f, n) == 1 and math.gcd(b - 1, n) == n
        assert not _pocklington(n, f, b) and not _proven(n, ((f, b),))

    def test_a_chain_ends_at_its_first_element_below_2_to_64(self):
        # ((f, b),) is a valid proof of n, but only it is n's one encoding
        rng = random.Random(3)
        g = gen_prime(20, "none", rng)
        f, c = keygen._search(36, 1, 2 * g, lambda m: keygen._base_2_witness(m, g), rng)
        n, b = keygen._search(66, 1, 2 * f, lambda m: keygen._base_2_witness(m, f), rng)
        assert _proven(n, ((f, b),)) and _proven(f, ())
        assert not _proven(n, ((f, b), (g, c))) and not _proven(f, ((g, c),))
        assert not _proven(n, ())  # above 2**64 a prime needs a chain

    def test_a_key_file_with_squared_witnesses_loads(self):
        # b**2 also has order f, so it proves the step as well as b does: the loader checks
        # the witness in the file and does not compare it with the base-2 one
        key = gen_keypair("blum", 256, IDENTITY, random.Random(5))
        steps = _squared_witnesses(key.p, key.p.chain), _squared_witnesses(key.q, key.q.chain)
        assert all(b != c for (_, b), (_, c) in zip(steps[0] + steps[1], key.p.chain + key.q.chain))
        squared = dataclasses.replace(key, p=ProvenPrime(key.p, steps[0]), q=ProvenPrime(key.q, steps[1]))
        parsed = parse_key(dump_private(squared))
        assert (parsed.p.chain, parsed.q.chain) == steps
        assert parsed == key and hash(parsed) == hash(key)  # witnesses take no part in either

    @pytest.mark.parametrize("witness", ["0", "1", "n-1", "n", "b+n"])
    def test_a_witness_of_order_1_or_2_or_out_of_range_is_refused(self, witness):
        p = gen_prime(200, "none", random.Random(4))
        n, ((f, b), *rest) = int(p), p.chain
        bad = {"0": 0, "1": 1, "n-1": n - 1, "n": n, "b+n": b + n}[witness]
        assert _proven(n, p.chain)
        assert not _pocklington(n, f, bad) and not _proven(n, ((f, bad), *rest))

    def test_a_composite_is_refused_under_its_base_2_witness(self):
        n, f = composite_with_a_proven_factor()
        b = pow(2, (n - 1) // f, n)
        assert not _pocklington(n, f, b) and not _proven(n, ((f, b), *f.chain))

    @given(st.integers(0, 1 << 150))
    def test_a_composite_is_refused_under_any_witness(self, h):
        # h itself, and h**((n-1)/f), which has order dividing f wherever h**(n-1) = 1
        n, f = composite_with_a_proven_factor()
        for b in (h, pow(h, (n - 1) // f, n)):
            assert not _pocklington(n, f, b) and not _proven(n, ((f, b), *f.chain))

    @settings(deadline=None)
    @given(st.integers(20, 200), st.integers(0, 1 << 32), st.integers(0, 1 << 800))
    def test_the_fermat_test_refuses_what_the_witness_refuses(self, bits, seed, r):
        # n = 2fR + 1, R below 8f**2: about half of them within the size test's (2f)**3 >= n
        f = gen_prime(bits, "none", random.Random(seed))
        n = 2 * f * (1 + r % (8 * f * f)) + 1
        assert keygen._base_2_witness(n, f) == _reference_witness(n, f)

    def test_the_fermat_test_keeps_the_witness_of_a_prime_and_refuses_each_composite(self):
        n, f = composite_with_a_proven_factor()  # fails the Fermat test
        m, g = 2298041 * 9361973132609, 8138064073  # passes it: its witness is 1, refused by the gcd
        p = gen_prime(200, "none", random.Random(4))
        (h, b), *_ = p.chain
        # a prime passes it, but a factor e with (2e)**3 < r proves nothing
        e = gen_prime(21, "none", random.Random(4))
        r, _ = keygen._search(100, 1, 2 * e, lambda c: is_probable_prime(c, random.Random(1)), random.Random(4))
        assert pow(2, n - 1, n) != 1 and pow(2, m - 1, m) == 1 and pow(2, (m - 1) // g, m) == 1
        assert (2 * e) ** 3 < r and pow(2, r - 1, r) == 1
        for number, factor, witness in ((n, f, 0), (m, g, 0), (r, e, 0), (int(p), h, b)):
            assert keygen._base_2_witness(number, factor) == _reference_witness(number, factor) == witness


class TestIdempotents:
    def test_toy_values(self):
        for (p, q), psi in (((7, 11), (22, 56)), ((3, 5), (10, 6))):
            idem = crt_idempotents(p, q)
            assert (idem.psi1, idem.psi2) == psi

    def test_equal_primes_rejected(self):
        with pytest.raises(ValueError):
            crt_idempotents(7, 7)
        with pytest.raises(ValueError, match="prime factors must be coprime"):
            crt_idempotents(3, 9)

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
        assert crt_combine(1, 2, crt_idempotents(7, 11)) == 57
        assert crt_combine(3, 4, crt_idempotents(7, 11)) == 59

    def test_a_ring_builds_its_root_constants_on_the_first_root(self, monkeypatch):
        made = {"jacobi": [], "least_nonresidue": []}
        for name, calls in made.items():  # numtheory's own calls go through its module globals
            real = getattr(numtheory, name)
            monkeypatch.setattr(numtheory, name, lambda *a, real=real, calls=calls: calls.append(a) or real(*a))
        p, q = 13, 17  # both 1 mod 4, so each prime's constants need its least non-residue
        ring = crt_idempotents(p, q)
        crt_combine(3, 5, ring), crt_padding(2, 3, 5, ring), sqrt_of_unity_nontrivial(ring)
        assert made == {"jacobi": [], "least_nonresidue": []}
        sqrt_mod_pq(4, ring)
        sqrt_mod_pq(9, ring)
        assert sorted(made["least_nonresidue"]) == [(p,), (q,)]


class TestSqrtModPrime:
    # the root of one prime, _class_root, taken to the smaller of the pair

    @staticmethod
    def canonical(a, p):
        symbol, s = _class_root(a, _PrimeRoots(p))
        assert symbol == 1
        return min(s, p - s)

    def test_known_values(self):
        assert self.canonical(2, 7) == 3
        assert self.canonical(4, 11) == 2
        assert self.canonical(4, 13) == 2  # a 1-mod-4 prime takes Tonelli-Shanks

    def test_nonresidue_rejected(self):
        assert _class_root(3, _PrimeRoots(7))[0] == -1
        assert _class_root(2, _PrimeRoots(13))[0] == -1
        with pytest.raises(NonResidueError):
            sqrt_mod_pq(3, crt_idempotents(7, 11))
        with pytest.raises(NonResidueError):
            sqrt_mod_pq(2, crt_idempotents(13, 17))  # 2 is a residue mod 17, not mod 13

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_exhaustive_against_brute_force(self, p):
        # covers both the 3-mod-4 shortcut and the general procedure, over every unit
        for a in range(1, p):
            roots = [x for x in range(p) if x * x % p == a]
            if roots:
                assert self.canonical(a, p) == min(roots)
            else:
                assert _class_root(a, _PrimeRoots(p))[0] == -1


class TestBindingRoot:
    # variant1's one root per prime: the sign of s that makes v*s a residue, and a root of v*s

    def test_known_value(self):
        # mod 7: 2*3 = 6 is a non-residue, so -3 = 4 is taken, and 2*4 = 1 has the root 1 or 6
        s, t = _binding_root(3, 2, _PrimeRoots(7))
        assert s == 4 and t in (1, 6)

    @pytest.mark.parametrize("p", [p for p in ODD_PRIMES if p % 4 == 3])
    def test_exhaustive_against_brute_force(self, p):
        squares = {x * x % p for x in range(1, p)}
        for s in range(1, p):
            for v in range(1, p):
                signed, t = _binding_root(s, v, _PrimeRoots(p))
                assert signed in (s, p - s)
                assert v * signed % p in squares  # the one sign: -1 is a non-residue mod p
                assert v * (p - signed) % p not in squares
                assert t * t % p == v * signed % p


class TestSqrtModPq:
    def test_four_roots_of_4_mod_77(self):
        assert sqrt_mod_pq(4, crt_idempotents(7, 11)) == (2, 9, 68, 75)

    def test_four_roots_of_unity_mod_77(self):
        assert sqrt_mod_pq(1, crt_idempotents(7, 11)) == (1, 34, 43, 76)

    def test_contains_trivial_roots_of_unity(self, rng):
        for p, q in ((7, 11), (11, 19), (13, 17)):
            values = sqrt_mod_pq(1, crt_idempotents(p, q))
            assert 1 in values and p * q - 1 in values

    def test_closed_under_negation_with_distinct_labels(self):
        ring, ring77 = SmallRing(7, 11), crt_idempotents(7, 11)
        for a in sorted(qr_set(ring)):
            values = set(sqrt_mod_pq(a, ring77))
            assert len(values) == 4
            assert values == {77 - v for v in values}
            # Blum case: the four roots land in the four distinct classes
            assert {(jacobi(v, 7), jacobi(v, 11)) for v in values} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
            assert values == set(all_roots(a, ring))

    def test_canonical_root_is_smallest(self):
        assert canonical_sqrt_mod_pq(4, crt_idempotents(7, 11)) == 2
        assert canonical_sqrt_mod_pq(15, crt_idempotents(7, 11)) == 13

    def test_nonresidue_rejected(self):
        with pytest.raises(NonResidueError):
            sqrt_mod_pq(3, crt_idempotents(7, 11))  # 3 is a non-residue mod 7

    def test_shared_factor_is_a_leak_without_disclosing_it(self):
        with pytest.raises(FactorLeakError) as excinfo:
            sqrt_mod_pq(7, crt_idempotents(7, 11))
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
            sqrt_mod_pq(4, crt_idempotents(9, 5))
        with pytest.raises(ValueError):
            canonical_sqrt_mod_pq(16, crt_idempotents(25, 7))

    def test_tonelli_shanks_order_loop_is_bounded(self):
        # 65 = 5*13 is 1 mod 4 with (3/65) = -1, and no power 4**(2**i) is 1 mod 65
        assert least_nonresidue(65) == 3
        with pytest.raises(ValueError):
            sqrt_mod_pq(4, crt_idempotents(65, 3))
        with pytest.raises(ValueError):
            canonical_sqrt_mod_pq(4, crt_idempotents(3, 65))

    def test_three_mod_four_composite_raises(self):
        # 4**((15+1)/4) = 1 mod 15 squares to neither 4 nor -4
        with pytest.raises(ValueError):
            sqrt_mod_pq(4, crt_idempotents(15, 7))


class TestSqrtOfUnity:
    def test_toy_values(self):
        assert sqrt_of_unity_nontrivial(crt_idempotents(7, 11)) == (43, 34)

    def test_squares_to_one_and_leaks_a_factor(self, rng):
        primes = [p for p in range(3, 500) if is_probable_prime(p)]
        for _ in range(50):
            p, q = rng.sample(primes, 2)
            n = p * q
            for v in sqrt_of_unity_nontrivial(crt_idempotents(p, q)):
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
