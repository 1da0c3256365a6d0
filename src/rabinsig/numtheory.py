"""Modular arithmetic over a two-prime modulus.

Jacobi symbols, modular inverses, least non-residues, CRT idempotents,
the CRT lift and the padding built on it, and square-root extraction mod p
and mod p*q.  Each of these facts is stated here once.  Everything here is
a pure function of its arguments; key material is never mutated, so
concurrent use is safe.
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
    """The least quadratic non-residue modulo an odd prime p."""
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    return z


def _tonelli_shanks(a: int, p: int) -> int:
    # General root extraction for p = 1 mod 4; caller guarantees (a/p) = 1.
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    y = pow(a, (d - 1) // 2, p)  # one modexp gives x = a**((d+1)/2) and t = a**d
    x = y * a % p
    t = x * y % p
    if t == 1:  # x is a root already, so no non-residue is needed
        return x
    c = pow(least_nonresidue(p), d, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _principal_root(a: int, p: int) -> int:
    """A square root of the unit a (reduced mod p) modulo an odd prime p.

    For p = 3 mod 4 this is a**((p+1)/4), itself a residue; squaring it back
    replaces the residuosity test, since it squares to (a/p)*a (Bernstein,
    "RSA signatures and Rabin-Williams signatures: the state of the art",
    2008).  For p = 1 mod 4, a Jacobi symbol guards Tonelli-Shanks.
    """
    if p % 4 == 3:
        s = pow(a, (p + 1) // 4, p)
        if s * s % p != a:
            raise NonResidueError("value has no square root modulo the given prime")
        return s
    if jacobi(a, p) != 1:
        raise NonResidueError("value has no square root modulo the given prime")
    return _tonelli_shanks(a, p)


class Root(NamedTuple):
    """A square root mod p*q with its Jacobi class ((value/p), (value/q))."""

    value: int
    jacobi_p: int
    jacobi_q: int


def _prime_roots(a: int, p: int, q: int) -> tuple[int, int, int]:
    # n = p*q, a reduced mod n and one principal root of a per prime; the
    # checks and errors shared by sqrt_mod_pq and canonical_sqrt_mod_pq.
    n = p * q
    a %= n
    if math.gcd(a, n) != 1:
        raise FactorLeakError("input shares a factor with the modulus")
    try:
        return n, _principal_root(a % p, p), _principal_root(a % q, q)
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
    _, sp, sq = _prime_roots(a, p, q)
    if idem is None:
        idem = crt_idempotents(p, q)
    return tuple(sorted(
        Root(crt_combine(rp, rq, p, q, idem), jp, jq)
        for rp, jp in zip((sp, p - sp), _root_classes(sp, p))
        for rq, jq in zip((sq, q - sq), _root_classes(sq, q))
    ))


def canonical_sqrt_mod_pq(a: int, p: int, q: int, idem: Idempotents | None = None) -> int:
    """The canonical root: the smallest of the four square roots mod p*q.

    Raises exactly as sqrt_mod_pq does, but labels no classes: two CRT
    lifts give the four roots as v, n-v, w and n-w.
    """
    n, sp, sq = _prime_roots(a, p, q)
    if idem is None:
        idem = crt_idempotents(p, q)
    v = crt_combine(sp, sq, p, q, idem)
    w = crt_combine(sp, q - sq, p, q, idem)
    return min(v, n - v, w, n - w)


def sqrt_of_unity_nontrivial(p: int, q: int, idem: Idempotents | None = None) -> tuple[int, int]:
    """The two square roots of 1 mod p*q other than 1 and n-1.

    Both equal psi1 - psi2 up to sign.  Adding 1 to either gives a multiple
    of one prime factor, so neither may ever appear as a padding value.
    """
    v = crt_combine(1, -1, p, q, idem)
    return v, p * q - v
