"""Modular arithmetic over a two-prime modulus.

Jacobi symbols, modular inverses, least non-residues, CRT idempotents,
the CRT lift and the padding built on it, and square-root extraction mod p
and mod p*q.  Each of these facts is stated here once.  Everything here is
a pure function of its arguments and never mutates key material.

The one cache: the constants a root needs are computed once per key, each
on its first use.  Per prime they are the root exponent, a non-residue z,
z**((d+1)/2) and z**d for Tonelli-Shanks, and 2**(-(p+1)/4) for the rw
signer; per padding element, its root over its class (_KeyRoots.unit_roots).
KeyPair.idem holds them and passes them in as `idem`; a caller that passes a
bare Idempotents or None gets them built for that one call.  Each is fixed
by its prime and written once, so a concurrent first use just computes it
twice.  Every one of them reveals p (a root x of u gives gcd(x**2 - u, n)
= p), so they stay as private as psi1 and psi2.
"""

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FactorLeakError, NonResidueError

# The one source of randomness for every function whose caller passes no rng.
SYSTEM_RNG = random.SystemRandom()

# Rounds for numbers of unknown origin, such as the factors in a key file.  A
# composite passes one round with a random base with probability at most 1/4,
# whatever the composite (Rabin 1980; HAC section 4.2.3), so 40 independent rounds
# accept it with probability at most 4**-40 = 2**-80.  Primes that gen_prime
# draws itself need fewer rounds; see keygen._search_rounds.
MILLER_RABIN_ROUNDS = 40


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
    """Miller-Rabin test: a composite passes with probability at most 4**-40 = 2**-80."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return _miller_rabin(n, MILLER_RABIN_ROUNDS, rng or SYSTEM_RNG)


def _miller_rabin(n: int, rounds: int, rng) -> bool:
    # `rounds` strong-probable-prime tests with random bases; n must be odd and above 3.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Idempotents:
    """Complementary CRT idempotents of a two-prime modulus.

    psi1 is 1 mod p and 0 mod q; psi2 is 0 mod p and 1 mod q.  They satisfy
    psi1 + psi2 = 1, psi1 * psi2 = 0 and psi_i**2 = psi_i, all mod p*q.
    """

    psi1: int
    psi2: int


def crt_idempotents(p: int, q: int) -> Idempotents:
    """Idempotents of Z_pq: psi1 = q * (q**-1 mod p) and psi2 = 1 - psi1."""
    if p == q:
        raise ValueError("prime factors must be distinct")
    try:
        psi1 = q * pow(q, -1, p)
    except ValueError:
        raise ValueError("prime factors must be coprime") from None
    return Idempotents(psi1, (1 - psi1) % (p * q))


def crt_combine(rp: int, rq: int, p: int, q: int, idem: Idempotents | None = None) -> int:
    """Lift the residue pair (rp mod p, rq mod q) to Z_pq: rp*psi1 + rq*psi2."""
    if idem is None:
        idem = crt_idempotents(p, q)
    return (rp * idem.psi1 + rq * idem.psi2) % (p * q)


def crt_padding(a: int, b: int, r: int, p: int, q: int, idem: Idempotents | None = None) -> int:
    """The padding value r**2 * (a*psi1 + b*psi2) mod p*q.

    It is in the Jacobi class of a mod p and of b mod q, whatever the unit r.
    """
    return r * r * crt_combine(a, b, p, q, idem) % (p * q)


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

    exp is the exponent of the one modexp a root takes: (p+1)/4 for p = 3 mod 4,
    and (d-1)/2 for p = 1 mod 4, where p - 1 = 2**s * d with d odd (Cohen, "A
    Course in Computational Algebraic Number Theory", Alg. 1.5.1).  z is a
    non-residue: -1 for p = 3 mod 4, the least one for p = 1 mod 4.  The
    powers of z that Tonelli-Shanks needs, and 2**(-(p+1)/4) for the rw
    signer, are computed on the first call that needs them.
    """

    __slots__ = ("p", "exp", "s", "d", "z", "_z_powers", "_half_root")

    def __init__(self, p: int):
        self.p, self._z_powers, self._half_root = p, None, None
        self.s = ((p - 1) & (1 - p)).bit_length() - 1  # the lowest set bit of p - 1
        self.d = (p - 1) >> self.s
        if p % 4 == 3:
            self.exp, self.z = (p + 1) // 4, -1
        else:
            self.exp, self.z = (self.d - 1) // 2, least_nonresidue(p)

    @property
    def z_powers(self) -> tuple[int, int]:
        """z**((d+1)/2) and z**d, from one modexp, for p = 1 mod 4."""
        if self._z_powers is None:
            y = pow(self.z, self.exp, self.p)
            zh = y * self.z % self.p
            self._z_powers = zh, zh * y % self.p
        return self._z_powers

    @property
    def half_root(self) -> int:
        """2**(-(p+1)/4) for p = 3 mod 4, a square root of (2/p)/2."""
        if self._half_root is None:
            self._half_root = pow(2, -self.exp, self.p)
        return self._half_root

    def root_over_class(self, u: int) -> int:
        """A root of u, or of u/z when u is a non-residue."""
        symbol, x = _class_root(u, self)
        return x if symbol == 1 else x * pow(self.z, -1, self.p) % self.p


class _KeyRoots:
    """The CRT idempotents of p*q with the root constants of p and of q.

    It carries psi1 and psi2, so it goes wherever an Idempotents does; a key
    builds one on first use and keeps it (KeyPair.idem).
    """

    __slots__ = ("psi1", "psi2", "at_p", "at_q", "_unit_roots")

    def __init__(self, p: int, q: int, idem: Idempotents | None = None):
        if idem is None:
            idem = crt_idempotents(p, q)
        self.psi1, self.psi2 = idem.psi1, idem.psi2
        self.at_p, self.at_q = _PrimeRoots(p), _PrimeRoots(q)
        self._unit_roots: dict[int, tuple[int, int]] = {}

    def unit_roots(self, u: int) -> tuple[int, int]:
        """root_over_class of u mod p and mod q, computed once per u (a padding element)."""
        roots = self._unit_roots.get(u)
        if roots is None:
            roots = self._unit_roots[u] = self.at_p.root_over_class(u), self.at_q.root_over_class(u)
        return roots


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
    multiple of p gives (0, 0).  For p = 3 mod 4, y = a**((p+1)/4) squares to
    (a/p)*a (Bernstein, "RSA signatures and Rabin-Williams signatures: the
    state of the art", 2008), and z = -1.  For p = 1 mod 4 this is
    Tonelli-Shanks, whose first order step is Euler's criterion: t = a**d
    needs all s squarings exactly when a**((p-1)/2) = -1, and the root is
    then taken of a*z from z**((d+1)/2) and z**d.  Raises ValueError when
    the arithmetic shows that p is not prime.
    """
    p = c.p
    a %= p
    if a == 0:
        return 0, 0
    y = pow(a, c.exp, p)
    if c.z == -1:
        y2 = y * y % p
        if y2 == a:
            return 1, y
        if y2 == p - a:
            return -1, y
        raise ValueError("modulus is not prime")
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


def _principal_root(a: int, p: int, c: _PrimeRoots | None = None) -> int:
    """A square root of a modulo an odd prime p: _class_root, refusing a non-residue.

    c holds p's constants, built here when not given.
    """
    if c is None:
        c = _PrimeRoots(p)
    symbol, x = _class_root(a, c)
    if symbol == -1:
        raise NonResidueError("value has no square root modulo the given prime")
    return x


class Root(NamedTuple):
    """A square root mod p*q with its Jacobi class ((value/p), (value/q))."""

    value: int
    jacobi_p: int
    jacobi_q: int


def _prime_roots(a: int, p: int, q: int, idem) -> tuple[_KeyRoots, int, int]:
    # The key's constants and one principal root of a per prime; the checks
    # and errors shared by sqrt_mod_pq and canonical_sqrt_mod_pq.
    n = p * q
    a %= n
    if math.gcd(a, n) != 1:
        raise FactorLeakError("input shares a factor with the modulus")
    # idem holds the constants when it is a key's, else they are built for this call
    k = idem if isinstance(idem, _KeyRoots) and (idem.at_p.p, idem.at_q.p) == (p, q) else _KeyRoots(p, q, idem)
    try:
        return k, _principal_root(a % p, p, k.at_p), _principal_root(a % q, q, k.at_q)
    except NonResidueError:
        raise NonResidueError("value is not a quadratic residue modulo both primes") from None


def _root_classes(s: int, p: int) -> tuple[int, int]:
    # Jacobi classes mod p of a principal root s and of p - s.  For p = 3 mod 4
    # s is a residue and (-1/p) = -1; for p = 1 mod 4, (-1/p) = 1 and both
    # share the class of s.
    if p % 4 == 3:
        return 1, -1
    c = jacobi(s, p)
    return c, c


def sqrt_mod_pq(a: int, p: int, q: int, idem: Idempotents | None = None) -> tuple[Root, ...]:
    """All four square roots of a unit a modulo n = p*q, sorted by value.

    The result is closed under negation mod n and each root carries its
    Jacobi class.  Raises FactorLeakError when gcd(a, n) > 1 (treated as a
    degenerate, factorisation-revealing input) and NonResidueError when a
    is not a residue modulo both primes.
    """
    k, sp, sq = _prime_roots(a, p, q, idem)
    return tuple(sorted(
        Root(crt_combine(rp, rq, p, q, k), jp, jq)
        for rp, jp in zip((sp, p - sp), _root_classes(sp, p))
        for rq, jq in zip((sq, q - sq), _root_classes(sq, q))
    ))


def canonical_sqrt_mod_pq(a: int, p: int, q: int, idem: Idempotents | None = None) -> int:
    """The canonical root: the smallest of the four square roots mod p*q.

    Raises exactly as sqrt_mod_pq does, but labels no classes.
    """
    k, sp, sq = _prime_roots(a, p, q, idem)
    return _canonical_lift(sp, sq, p, q, k)


def _canonical_lift(rp: int, rq: int, p: int, q: int, idem: Idempotents) -> int:
    """The least of the four values that are +-rp mod p and +-rq mod q.

    Two CRT lifts, v from (rp, rq) and w from (rp, -rq), give the four as
    v, n-v, w and n-w.  For roots rp, rq of a mod p and q this is a's
    canonical root.
    """
    n = p * q
    v = crt_combine(rp, rq, p, q, idem)
    w = crt_combine(rp, q - rq, p, q, idem)
    return min(v, n - v, w, n - w)


def sqrt_of_unity_nontrivial(p: int, q: int, idem: Idempotents | None = None) -> tuple[int, int]:
    """The two square roots of 1 mod p*q other than 1 and n-1.

    Both equal psi1 - psi2 up to sign.  Adding 1 to either gives a multiple
    of one prime factor, so neither may ever appear as a padding value.
    """
    v = crt_combine(1, -1, p, q, idem)
    return v, p * q - v
