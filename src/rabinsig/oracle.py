"""Exhaustive ground truth on tiny two-prime rings.

Results here are computed by brute force over the whole ring (quadratic
residue sets, root sets, verification predicates evaluated with plain
pow), so they are definitionally correct and independent of the signing
and verification code paths they are used to check.
"""

import hashlib
import math
from dataclasses import dataclass, field

from . import schemes
from .errors import FactorLeakError
from .hashing import IDENTITY, DigestRef, RedundancySpec, apply_redundancy
from .keygen import KeyPair, build_padding_set
from .numtheory import SYSTEM_RNG, crt_idempotents

SMALL_RING_LIMIT = 10_000


def _is_prime_naive(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class SmallRing:
    """A modulus small enough to enumerate completely."""

    p: int
    q: int

    def __post_init__(self):
        if self.p == self.q or self.p % 2 == 0 or self.q % 2 == 0:
            raise ValueError("ring needs two distinct odd primes")
        if not _is_prime_naive(self.p) or not _is_prime_naive(self.q):
            raise ValueError("ring factors must be prime")
        if self.p * self.q > SMALL_RING_LIMIT:
            raise ValueError(f"ring exceeds the exhaustive-enumeration limit {SMALL_RING_LIMIT}")

    @property
    def n(self) -> int:
        return self.p * self.q


def units(ring: SmallRing) -> tuple[int, ...]:
    return tuple(x for x in range(1, ring.n) if math.gcd(x, ring.n) == 1)


def qr_set(ring: SmallRing) -> frozenset[int]:
    """Quadratic residues among the units, by exhaustive squaring."""
    return frozenset(x * x % ring.n for x in units(ring))


def all_roots(a: int, ring: SmallRing) -> tuple[int, ...]:
    """Every x with x**2 = a (mod n), by exhaustive search."""
    a %= ring.n
    return tuple(x for x in range(ring.n) if x * x % ring.n == a)


def unity_roots(ring: SmallRing) -> tuple[int, ...]:
    return all_roots(1, ring)


def brute_valid(sig, n: int, redundancy: RedundancySpec, padding_elements=()) -> bool:
    """Evaluate a scheme's defining equations directly with pow().

    Only the one encoding a signer emits is valid: each component lies in
    1..n-1 (rw's e is 1 or n-1 and its f is 1 or 2); under identity or
    quadratic redundancy the message is an integer in 0..n-1, and under
    digest redundancy an integer is non-negative and a digest reference
    lies in 0..2**(8 * digest size) - 1.
    """
    scheme = getattr(sig, "scheme", None)
    if scheme not in schemes.SCHEMES:
        raise TypeError(f"unknown signature type {type(sig)!r}")
    m = sig.m
    if redundancy.tag != "digest":
        if not isinstance(m, int) or not 0 <= m < n:
            return False
    elif isinstance(m, DigestRef):
        if not 0 <= m.digest_int < 2 ** (8 * hashlib.new(redundancy.digest_name).digest_size):
            return False
    elif isinstance(m, int) and m < 0:
        return False
    h = apply_redundancy(redundancy, m, n)
    if scheme == "classic":
        return 0 < sig.U < n and 0 < sig.S < n and pow(sig.S, 2, n) == h * sig.U % n
    if scheme == "general":
        return 0 < sig.u < n and 0 < sig.S < n and sig.u in padding_elements and pow(sig.S, 2, n) == h * sig.u % n
    if scheme == "variant1":
        return (
            0 < sig.U < n and 0 < sig.S < n and 0 < sig.T < n
            and pow(sig.T, 2, n) == (sig.U + 1) * sig.S % n
            and pow(sig.S, 2, n) == h * sig.U % n
        )
    if scheme == "variant2":
        return 0 < sig.F < n and 0 < sig.R3 < n and pow(sig.F, 12, n) == pow(sig.R3, 4, n) * pow(h, 6, n) % n
    if sig.e not in (1, n - 1) or sig.f not in (1, 2) or not 0 < sig.S < n:  # rw
        return False
    sign = 1 if sig.e == 1 else -1
    return sign * sig.f * pow(sig.S, 2, n) % n == h


@dataclass
class ExhaustiveReport:
    scheme: str
    n: int
    redundancy: str
    signed: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.signed > 0 and not self.failures


def check_scheme_exhaustive(
    scheme: str, ring: SmallRing, redundancy: RedundancySpec = IDENTITY, rng=None
) -> ExhaustiveReport:
    """Sign every signable message in the ring and check everything checkable.

    For each message: the signature must verify, the brute-force predicate
    must agree with the verifier on the signature and on every +-1
    perturbation of every component, and the padding choice must match the
    residue-class prediction.
    """
    rng = rng or SYSTEM_RNG
    descriptor = schemes.SCHEMES[scheme]
    kind, sig_type = descriptor.key_kind, descriptor.sig_type
    fields = ("m",) + descriptor.components
    n = ring.n
    idem = crt_idempotents(ring.p, ring.q)
    padding = None
    if descriptor.needs_padding:
        padding = build_padding_set(ring.p, ring.q, idem.psi1, idem.psi2, rng)
    key = KeyPair.from_primes(kind, ring.p, ring.q, redundancy, padding)
    pub = key.public()
    elements = padding.elements if padding else ()

    qr = qr_set(ring)
    nontrivial_unity = set(unity_roots(ring)) - {1, n - 1}
    report = ExhaustiveReport(scheme, n, redundancy.token)

    for m in range(1, n):
        h = apply_redundancy(redundancy, m, n)
        if h == 0 or math.gcd(h, n) != 1:
            report.skipped += 1
            continue
        try:
            sig = schemes.sign(key, m, scheme, rng=rng)
        except FactorLeakError:  # variant1 drew 64 paddings U with U+1 a non-unit
            report.failures.append(f"m={m}: signing kept failing")
            continue
        report.signed += 1

        if not schemes.verify(pub, sig).valid:
            report.failures.append(f"m={m}: honest signature rejected")
        if not brute_valid(sig, n, redundancy, elements):
            report.failures.append(f"m={m}: honest signature fails the defining equations")

        _check_padding_choice(report, scheme, sig, h, n, qr, elements, nontrivial_unity, m)

        values = [getattr(sig, name) for name in fields]
        for i, name in enumerate(fields):
            value = values[i]
            for delta in (1, n - 1):
                values[i] = (value + delta) % n
                mutated = sig_type(*values)
                brute = brute_valid(mutated, n, redundancy, elements)
                verified = schemes.verify(pub, mutated).valid
                if brute != verified:
                    report.failures.append(
                        f"m={m}: verifier disagrees with brute force on {name}+{delta}"
                    )
            values[i] = value
    return report


def _check_padding_choice(report, scheme, sig, h, n, qr, elements, nontrivial_unity, m):
    if scheme == "classic":
        if sig.U * h % n not in qr:
            report.failures.append(f"m={m}: padding does not make the message a residue")
    elif scheme == "general":
        matches = [u for u in elements if u * h % n in qr]
        if len(matches) != 1 or sig.u != matches[0]:
            report.failures.append(f"m={m}: padding choice does not match the class prediction")
    elif scheme == "variant1":
        if sig.U in nontrivial_unity:
            report.failures.append(f"m={m}: forbidden padding value published")
        if (sig.U + 1) * sig.S % n not in qr:
            report.failures.append(f"m={m}: selected root does not admit a second root")
    elif scheme == "rw":
        good = [
            (e, f)
            for e in (1, n - 1)
            for f in (1, 2)
            if h * pow(e * f % n, -1, n) % n in qr
        ]
        if len(good) != 1 or (sig.e, sig.f) != good[0]:
            report.failures.append(f"m={m}: multiplier pair does not match the class prediction")
