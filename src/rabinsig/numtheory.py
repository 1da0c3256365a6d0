"""Modular arithmetic over a two-prime modulus.

Jacobi symbols, modular inverses, least non-residues, CRT idempotents,
the CRT lift and the padding built on it, and square-root extraction mod p
and mod p*q.  Each of these facts is stated here once.  Everything here is
a pure function of its arguments and never mutates key material.  Roots
are stated once too, and every root a signer takes is one _class_root per
prime: _class_roots, the one root pair, for sqrt_mod_pq and every signer
but variant1; _binding_root, for variant1, the root of v*s mod a 3-mod-4
prime after it sets the sign of s to the class of v; _four_lifts forms the four
roots mod p*q, v, n-v, w and n-w, from one CRT lift v; and sqrt_mod_pq, the
one checked root, returns them sorted, the canonical root first.

The one ring object, _KeyRoots, holds p, q and n = p*q, and computes each
constant a lift or a root needs on its first use: psi1 and psi2; per prime,
the root exponent, a non-residue z and its powers for Tonelli-Shanks, the
one root algorithm, and 2**(-(p+1)/4) for the rw signer (_PrimeRoots).  A
private key file hands over psi1 and psi2, certified with no inverse
(know_idempotents); a prime's constants cost one _modexp each, and the ring
computes them.  The roots of a key's padding elements are no ring constant:
the key's padding set carries them (keygen.PaddingSet.roots).
crt_idempotents is the validating constructor, and the ring is the only
modulus argument of every CRT and root function (`idem`).  A KeyPair is
built on its ring (key.idem).  Each constant is fixed by the primes and
written once, so a concurrent first use just computes it twice.  Every one
of them reveals p (a root x of u gives gcd(x**2 - u, n) = p), so they stay
as private as psi1 and psi2.

The exponentiations that decide primality, a Miller-Rabin round's a**d, a
Pocklington witness's b**f, and keygen's Fermat test 2**(n-1) and witness
2**((n-1)/f), go through _modexp:
OpenSSL's BN_mod_exp, in the libcrypto that hashlib already loads, for a
modulus of at least 2**64, about a twelfth of pow's time at 512 bits; pow
below that, and wherever libcrypto cannot be reached.  Both give the same
integers, so no prime, chain, key file or seeded output depends on which
ran.  A prime's constants (z_powers, half_root) take _modexp too; the roots
(_class_root) still take pow.
"""

import math
import random
import threading
from functools import cached_property

from .errors import FactorLeakError, NonResidueError

try:
    import ctypes
except ImportError:  # a CPython built without libffi: _load_libcrypto finds nothing, and _modexp is pow
    ctypes = None

# The one source of randomness for every function whose caller passes no rng.
SYSTEM_RNG = random.SystemRandom()

# Rounds for numbers of unknown origin at or above 2**64, such as the factors
# of a key file written without proofs.  A composite passes one round with a
# random base with probability at most 1/4, whatever the composite (Rabin 1980;
# HAC section 4.2.3), so 40 independent rounds accept it with probability at
# most 4**-40 = 2**-80.  Primes that gen_prime draws carry a proof instead
# (_proven), and below 2**64 the test is exact (_exact_prime).
MILLER_RABIN_ROUNDS = 40

# Below this bound _exact_prime decides primality exactly, and a chain of
# _proven ends at its first element under it.
_EXACT_LIMIT = 1 << 64

# _exact_prime divides by the primes 2..37, then tests to the seven bases of
# J. Sinclair (2011), each reduced mod n and skipped when 0.  They are exact
# below 2**64, as checked against Feitsma's list of the base-2 strong
# pseudoprimes below 2**64 and recorded at miller-rabin.appspot.com.
_EXACT_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


# _modexp sends a modulus at or above this to libcrypto's BN_mod_exp and one below it
# to pow.  The crossover lies between: at a 57-bit modulus BN_mod_exp, with its
# conversions, took 15.1 us and pow 10.7 us; at 96 bits, 10.9 us against 23.5 us
# (CPython 3.11, OpenSSL 3.0, x86-64).  So _exact_prime's bases, and a chain's last
# step, stay on pow.
_NATIVE_MIN_MODULUS = 1 << 64


def _load_libcrypto():
    """OpenSSL's libcrypto with the BN_* functions _modexp calls typed, or None where it cannot be reached.

    It is the libcrypto that hashlib already uses: dlsym on the handle of the
    _hashlib extension also searches the libraries it links.  No library
    search runs (ctypes.util.find_library starts processes).
    """
    try:
        import _hashlib

        ptr = ctypes.c_void_p
        lib = ctypes.CDLL(_hashlib.__file__)
        for name, restype, argtypes in (
            ("BN_CTX_new", ptr, ()),
            ("BN_CTX_free", None, (ptr,)),
            ("BN_new", ptr, ()),
            ("BN_clear_free", None, (ptr,)),
            ("BN_bin2bn", ptr, (ctypes.c_char_p, ctypes.c_int, ptr)),
            ("BN_bn2binpad", ctypes.c_int, (ptr, ctypes.c_char_p, ctypes.c_int)),
            ("BN_mod_exp", ctypes.c_int, (ptr, ptr, ptr, ptr, ptr)),
        ):
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return lib


_libcrypto = _load_libcrypto()


class _Bignums:
    """One thread's BN_CTX and its four BIGNUMs, for the result, base, exponent and modulus; cleared when freed."""

    def __init__(self, lib):
        self.lib, self.ctx = lib, lib.BN_CTX_new()
        self.nums = r, a, e, m = [lib.BN_new() for _ in range(4)]
        if not (self.ctx and r and a and e and m):
            raise MemoryError("libcrypto could not allocate its numbers")

    def __del__(self):
        for num in self.nums:
            self.lib.BN_clear_free(num)
        self.lib.BN_CTX_free(self.ctx)


_per_thread = threading.local()  # .bignums: a _Bignums, made on the thread's first native modexp


def _modexp(a: int, e: int, m: int) -> int:
    """pow(a, e, m) for e >= 0: by libcrypto's BN_mod_exp when m >= _NATIVE_MIN_MODULUS and libcrypto was found.

    Both give the same integer, so no output depends on which ran.  Raises
    ArithmeticError, naming no number, when libcrypto reports a failure.
    """
    lib = _libcrypto
    if lib is None or m < _NATIVE_MIN_MODULUS:
        return pow(a, e, m)
    try:
        nums = _per_thread.bignums
    except AttributeError:
        nums = _per_thread.bignums = _Bignums(lib)
    r_num, a_num, e_num, m_num = nums.nums
    size, e_size = (m.bit_length() + 7) // 8, (e.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(size)
    if not (lib.BN_bin2bn((a % m).to_bytes(size, "big"), size, a_num)
            and lib.BN_bin2bn(e.to_bytes(e_size, "big"), e_size, e_num)
            and lib.BN_bin2bn(m.to_bytes(size, "big"), size, m_num)
            and lib.BN_mod_exp(r_num, a_num, e_num, m_num, nums.ctx)
            and lib.BN_bn2binpad(r_num, out, size) == size):
        raise ArithmeticError("libcrypto's modular exponentiation failed")
    return int.from_bytes(out.raw, "big")


def _sieve_primes(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


_SMALL_PRIMES = _sieve_primes(1000)


def mod_inv(a: int, n: int) -> int:
    """Inverse of a modulo n.  Raises FactorLeakError when gcd(a, n) > 1."""
    try:
        return pow(a, -1, n)
    except ValueError:
        raise FactorLeakError("value is not invertible modulo the modulus") from None


def random_unit(n: int, rng=None) -> int:
    """A uniformly random unit of Z_n, drawn by rejection from [1, n)."""
    rng = rng or SYSTEM_RNG
    while True:
        r = rng.randrange(1, n)
        if math.gcd(r, n) == 1:
            return r


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; the Legendre symbol when n is prime."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs an odd positive lower argument")
    a %= n
    result = 1
    while a:
        if not a & 1:  # strip every factor 2 with one shift
            twos = (a & -a).bit_length() - 1
            a >>= twos
            if twos & 1 and n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & n & 3 == 3:  # both are 3 mod 4
            result = -result
        a %= n
    return result if n == 1 else 0


def is_probable_prime(n: int, rng=None) -> bool:
    """Exact below 2**64; above it, Miller-Rabin with 40 random bases.

    A composite above 2**64 passes with probability at most 4**-40 = 2**-80.
    """
    if n < _EXACT_LIMIT:
        return _exact_prime(n)
    if any(n % p == 0 for p in _SMALL_PRIMES):
        return False
    rng = rng or SYSTEM_RNG
    return _miller_rabin(n, (rng.randrange(2, n - 1) for _ in range(MILLER_RABIN_ROUNDS)))


def _exact_prime(n: int) -> bool:
    """Whether n is prime, decided exactly for every n below 2**64 by _EXACT_BASES and _SINCLAIR_BASES."""
    if n < 2:
        return False
    for a in _EXACT_BASES:
        if n % a == 0:
            return n == a
    return _miller_rabin(n, [a % n for a in _SINCLAIR_BASES if a % n])


def _miller_rabin(n: int, bases) -> bool:
    # Whether n is a strong probable prime to every base; n must be odd and above 3.
    s = ((n - 1) & (1 - n)).bit_length() - 1  # the lowest set bit of n - 1
    d = (n - 1) >> s
    for a in bases:
        x = _modexp(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pocklington(n: int, f: int, b: int) -> bool:
    """Whether the odd prime f and its witness b prove n prime: one step of a chain.

    When 0 < b < n, b**f = 1 and gcd(b - 1, n) = 1, b has order f modulo
    every prime r dividing n, so f | r - 1 (Pocklington's theorem, HAC
    section 4.3.3), r = 1 mod 2f as r and f are odd, and _bls_test decides n.
    The witness costs one exponentiation by f, a third of n's size.
    """
    return _bls_test(n, f) and 0 < b < n and _modexp(b, f, n) == 1 and math.gcd(b - 1, n) == 1


def _bls_test(n: int, f: int) -> bool:
    """The size and square test: whether n is prime, given that its prime factors are all 1 mod F = 2f.

    Brillhart, Lehmer and Selfridge (Math. Comp. 29, 1975, Thm 5; Crandall
    and Pomerance, "Prime Numbers", Thm 4.1.5): with n = 1 mod F and
    F**3 >= n, write (n - 1)/F = c2*F + c1 with 0 <= c1 < F.  Then n is prime
    exactly when c2 = 0 or c1**2 - 4*c2 is not a perfect square: a composite
    n is (a*F + 1)(b*F + 1) with a + b < F, as three such factors exceed F**3,
    so c2 = a*b, c1 = a + b and c1**2 - 4*c2 = (a - b)**2.  A step with
    f*f > n, as key files of earlier versions hold, has c2 = 0.
    """
    F = 2 * f
    if F**3 < n or n % F != 1:  # F**3 < n also refuses every f <= 0
        return False
    c2, c1 = divmod((n - 1) // F, F)
    d = c1 * c1 - 4 * c2
    return c2 == 0 or d < 0 or math.isqrt(d) ** 2 != d


def _proven(n: int, steps) -> bool:
    """Whether `steps` prove n prime.

    The steps are (f1, b1), ..., (fk, bk): each fi with its witness bi proves
    the number before it (n first) by _pocklington, every fi but the last is
    at least 2**64, and the last is below it, where _exact_prime decides.  A
    prime below 2**64 takes no step.  Maurer (J. Cryptology 8, 1995) and FIPS
    186-4 Appendix C.10 build primes with such chains.
    """
    for f, b in steps:
        if n < _EXACT_LIMIT or not _pocklington(n, f, b):
            return False
        n = f
    return n < _EXACT_LIMIT and _exact_prime(n)


class _KeyRoots:
    """The ring Z_n, n = p*q, of two distinct odd primes: its CRT idempotents and root constants.

    psi1 is 1 mod p and 0 mod q; psi2 is 0 mod p and 1 mod q.  They satisfy
    psi1 + psi2 = 1, psi1 * psi2 = 0 and psi_i**2 = psi_i, all mod p*q.  They
    are computed on first use unless a key file hands them over, and the root
    constants of p and q (at_p, at_q) on first use, so a ring costs nothing
    to build and one that only lifts computes no Jacobi symbol.  It holds
    nothing per padding element: the key's padding set carries those roots.
    """

    def __init__(self, p: int, q: int):
        self.p, self.q, self.n = p, q, p * q

    @cached_property
    def psi1(self) -> int:
        """q * (q**-1 mod p).  Raises ValueError unless p and q are coprime (and so distinct)."""
        try:
            return self.q * pow(self.q, -1, self.p)
        except ValueError:
            raise ValueError("prime factors must be coprime") from None

    @cached_property
    def psi2(self) -> int:
        return (1 - self.psi1) % self.n

    def know_idempotents(self, psi1: int, psi2: int) -> bool:
        """Take psi1 and psi2, as a key file holds them, if they meet their definition; returns whether they do."""
        if not (psi1 < self.n and psi1 % self.p == 1 and psi1 % self.q == 0 and psi2 == (1 - psi1) % self.n):
            return False
        self.psi1, self.psi2 = psi1, psi2
        return True

    @cached_property
    def at_p(self) -> "_PrimeRoots":
        return _PrimeRoots(self.p)

    @cached_property
    def at_q(self) -> "_PrimeRoots":
        return _PrimeRoots(self.q)


def crt_idempotents(p: int, q: int) -> _KeyRoots:
    """The ring Z_pq with its idempotents computed.  Raises ValueError unless p and q are coprime."""
    ring = _KeyRoots(p, q)
    ring.psi1  # the one inverse
    return ring


def crt_combine(rp: int, rq: int, idem: _KeyRoots) -> int:
    """Lift the residue pair (rp mod p, rq mod q) to Z_pq: rp*psi1 + rq*psi2."""
    return (rp * idem.psi1 + rq * idem.psi2) % idem.n


def crt_padding(a: int, b: int, r: int, idem: _KeyRoots) -> int:
    """The padding value r**2 * (a*psi1 + b*psi2) mod p*q.

    It is in the Jacobi class of a mod p and of b mod q, whatever the unit r.
    """
    return r * r * crt_combine(a, b, idem) % idem.n


def least_nonresidue(p: int) -> int:
    """The least quadratic non-residue modulo an odd prime p.

    No z below a prime has (z/p) = 0, so meeting one shows that p is not
    prime (a perfect square has no non-residue at all) and raises ValueError.
    """
    z = 2
    while (symbol := jacobi(z, p)) != -1:
        if symbol == 0:
            raise ValueError("modulus is not prime")
        z += 1
    return z


class _PrimeRoots:
    """What a square root modulo the odd prime p needs, computed once per prime.

    With p - 1 = 2**s * d and d odd, exp = (d-1)/2 is the exponent of the one
    modexp a root takes, for every odd prime (Tonelli-Shanks; Cohen, "A Course
    in Computational Algebraic Number Theory", Alg. 1.5.1).  z is a
    non-residue: -1 for p = 3 mod 4, the least one for p = 1 mod 4.  The
    powers of z that a non-residue needs, and 2**(-(p+1)/4) for the rw
    signer, are computed on the first call that needs them, one _modexp
    each.
    """

    def __init__(self, p: int):
        self.p = p
        self.s = ((p - 1) & (1 - p)).bit_length() - 1  # the lowest set bit of p - 1
        self.d = (p - 1) >> self.s
        self.exp = (self.d - 1) // 2
        self.z = -1 if p % 4 == 3 else least_nonresidue(p)

    @cached_property
    def z_powers(self) -> tuple[int, int]:
        """zh = z**exp * z and z**d = zh * z**exp, so zh**2 = z * z**d, from one modexp; (1, -1) for z = -1."""
        if self.z == -1:
            return 1, self.p - 1
        y = _modexp(self.z, self.exp, self.p)
        zh = y * self.z % self.p
        return zh, zh * y % self.p

    @cached_property
    def half_root(self) -> int:
        """2**(-(p+1)/4) for p = 3 mod 4, or p minus it, whichever is below p/2: a square root of (2/p)/2.

        One modexp of (p+1)/2, the inverse of 2, by exp + 1 = (p+1)/4.
        """
        c = _modexp((self.p + 1) // 2, self.exp + 1, self.p)
        return min(c, self.p - c)

    def root_over_class(self, u: int) -> int:
        """A root of u, or of u/z when u is a non-residue."""
        symbol, x = _class_root(u, self)
        return x if symbol == 1 else x * pow(self.z, -1, self.p) % self.p


def _two_order(t: int, p: int, bound: int) -> int:
    # The least i with t**(2**i) = 1 mod p.  Below a prime it is at most
    # `bound`; a p that needs more squarings, or never reaches 1, is not prime.
    i = 0
    while t != 1:
        if i == bound:
            raise ValueError("modulus is not prime")
        t = t * t % p
        i += 1
    return i


def _class_root(a: int, c: _PrimeRoots) -> tuple[int, int]:
    """The Legendre symbol (a/p) and a root x, from one modexp modulo p = c.p.

    x**2 = a for a residue and x**2 = a*z for a non-residue, z = c.z; a
    multiple of p gives (0, 0).  This is Tonelli-Shanks for every odd prime:
    its first order step is Euler's criterion, t = a**d needs all s
    squarings exactly when a**((p-1)/2) = -1, and the root is then taken of
    a*z from c.z_powers.  For p = 3 mod 4, s = 1, z = -1 and the switch
    multiplies by 1, so x = a**((p+1)/4), which squares to (a/p)*a
    (Bernstein, "RSA signatures and Rabin-Williams signatures: the state of
    the art", 2008).  Raises ValueError when the arithmetic shows that p is
    not prime.
    """
    p = c.p
    a %= p
    if a == 0:
        return 0, 0
    y = pow(a, c.exp, p)
    x = y * a % p  # a**((d+1)/2)
    t = x * y % p  # a**d
    symbol, i = 1, _two_order(t, p, c.s)
    if i == c.s:
        zh, zd = c.z_powers
        symbol, x, t = -1, x * zh % p, t * zd % p
        i = _two_order(t, p, c.s - 1)
    if i:
        b, m = c.z_powers[1], c.s
        while i:
            b = pow(b, 1 << (m - i - 1), p)
            x = x * b % p
            b = b * b % p
            t = t * b % p
            m, i = i, _two_order(t, p, i - 1)
    return symbol, x


def _class_roots(a: int, idem: _KeyRoots) -> tuple[int, int, int, int]:
    """((a/p), xp, (a/q), xq), one modexp per prime (_class_root).

    xp**2 is a mod p where a is a residue and a*z otherwise, z being the
    ring's non-residue: -1 for a 3-mod-4 prime, the least non-residue for a
    1-mod-4 prime.  Likewise xq mod q.
    """
    return _class_root(a, idem.at_p) + _class_root(a, idem.at_q)


def _binding_root(s: int, v: int, c: _PrimeRoots) -> tuple[int, int]:
    """The one of s, -s mod the 3-mod-4 prime p = c.p that makes v times it a residue, and a root of that product.

    One _class_root of v*s: its x**2 is -v*s when v*s is a non-residue, and
    -1 is a non-residue mod p, so -s is then the one and x its root.
    """
    symbol, t = _class_root(v * s, c)
    return (s, t) if symbol == 1 else (c.p - s, t)


def _four_lifts(v: int, idem: _KeyRoots) -> tuple[int, int, int, int]:
    """The four values that are +-v mod p and +-v mod q: v, n-v, w and n-w, with v first reduced mod n.

    w = v*(psi1 - psi2) mod n is v mod p and -v mod q, as psi1 - psi2 is 1 mod
    p and -1 mod q.  For a root v of a mod n they are the four square roots
    of a mod n.
    """
    n = idem.n
    v %= n
    w = v * (idem.psi1 - idem.psi2) % n
    return v, n - v, w, n - w


def sqrt_mod_pq(a: int, idem: _KeyRoots) -> tuple[int, int, int, int]:
    """All four square roots of a unit a modulo n = p*q, sorted: _four_lifts of the lift of its prime roots.

    Raises FactorLeakError when gcd(a, n) > 1 (treated as a degenerate,
    factorisation-revealing input) and NonResidueError when a is not a
    residue modulo both primes.
    """
    a %= idem.n
    if math.gcd(a, idem.n) != 1:
        raise FactorLeakError("input shares a factor with the modulus")
    jp, sp, jq, sq = _class_roots(a, idem)
    if jp == -1 or jq == -1:
        raise NonResidueError("value is not a quadratic residue modulo both primes")
    return tuple(sorted(_four_lifts(crt_combine(sp, sq, idem), idem)))


def canonical_sqrt_mod_pq(a: int, idem: _KeyRoots) -> int:
    """The canonical root: the least of the four square roots mod p*q.  Raises as sqrt_mod_pq does."""
    return sqrt_mod_pq(a, idem)[0]


def _canonical_lift(rp: int, rq: int, idem: _KeyRoots) -> int:
    # The least of _four_lifts of the lift of (rp, rq): for roots rp, rq of a mod p and q, a's canonical root.
    return min(_four_lifts(crt_combine(rp, rq, idem), idem))


def sqrt_of_unity_nontrivial(idem: _KeyRoots) -> tuple[int, int]:
    """The two square roots of 1 mod p*q other than 1 and n-1: the second pair of _four_lifts(1).

    Both equal psi1 - psi2 up to sign.  Adding 1 to either gives a multiple
    of one prime factor, so neither may ever appear as a padding value.
    """
    return _four_lifts(1, idem)[2:]
