"""Sign and verify for the five signature schemes sharing a modulus n = p*q.

classic   [m, U, S]     S**2 = H(m)*U, U a free padding value
general   [m, u, S]     S**2 = H(m)*u, u drawn from the public padding set
variant1  [m, U, S, T]  T**2 = (U+1)*S and S**2 = H(m)*U  (Blum primes)
variant2  [m, F, R3]    F**12 = R3**4 * H(m)**6           (Blum primes)
rw        [m, e, f, S]  e*f*S**2 = H(m), e in {1,-1}, f in {1,2}

Verification is pure and reports the exact number of modular squares and
products it performed, excluding the redundancy evaluation.
"""

import math
import random
from dataclasses import dataclass
from typing import ClassVar, Union

from .errors import FactorLeakError, SignatureFormatError, UnsignableMessageError
from .hashing import DigestRef, Message, apply_redundancy, digest_int
from .keygen import KeyPair, PublicKey
from .numtheory import canonical_sqrt_mod_pq, jacobi, mod_inv, sqrt_mod_pq, sqrt_of_unity_nontrivial

_SYSTEM_RNG = random.SystemRandom()

SCHEME_TAGS = ("classic", "general", "variant1", "variant2", "rw")


@dataclass(frozen=True)
class ClassicSignature:
    scheme: ClassVar[str] = "classic"
    m: Message
    U: int
    S: int


@dataclass(frozen=True)
class GeneralSignature:
    scheme: ClassVar[str] = "general"
    m: Message
    u: int
    S: int


@dataclass(frozen=True)
class Variant1Signature:
    scheme: ClassVar[str] = "variant1"
    m: Message
    U: int
    S: int
    T: int


@dataclass(frozen=True)
class Variant2Signature:
    scheme: ClassVar[str] = "variant2"
    m: Message
    F: int
    R3: int


@dataclass(frozen=True)
class RWSignature:
    scheme: ClassVar[str] = "rw"
    m: Message
    e: int
    f: int
    S: int


Signature = Union[
    ClassicSignature, GeneralSignature, Variant1Signature, Variant2Signature, RWSignature
]


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    failed_check: str | None = None
    op_counts: tuple[int, int] = (0, 0)  # (squares, products)


class _OpCounter:
    """Counts the modular squares and products spent during verification."""

    __slots__ = ("squares", "products")

    def __init__(self):
        self.squares = 0
        self.products = 0

    def sq(self, x, n):
        self.squares += 1
        return x * x % n

    def mul(self, x, y, n):
        self.products += 1
        return x * y % n

    @property
    def counts(self):
        return (self.squares, self.products)


def _require_blum(key: KeyPair):
    if key.p % 4 != 3 or key.q % 4 != 3:
        raise ValueError("this scheme needs both prime factors congruent to 3 mod 4")


def _require_rw(key: KeyPair):
    if not key.is_rw:
        raise ValueError("this scheme needs prime factors congruent to 3 and 7 mod 8")


def _hash_for_signing(key: KeyPair, m: Message) -> int:
    h = apply_redundancy(key.redundancy, m, key.n)
    if h == 0 or math.gcd(h, key.n) != 1:
        raise UnsignableMessageError("message redundancy value is zero or not a unit")
    return h


def _sample_unit(n: int, rng) -> int:
    while True:
        r = rng.randrange(1, n)
        if math.gcd(r, n) == 1:
            return r


def _nonresidue_rep(p: int) -> int:
    # -1 represents the non-residue class only for 3-mod-4 primes; otherwise
    # fall back to the smallest non-residue.
    if p % 4 == 3:
        return p - 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    return z


def _deterministic_padding(key: KeyPair, h: int, r: int) -> int:
    """Padding value R**2 * (f1*psi1 + f2*psi2) built from the class of h.

    f1, f2 are class representatives mod p and q (so H(m) times the result
    is a residue modulo both primes); on Blum factors they are just +-1.
    """
    f1 = 1 if jacobi(h, key.p) == 1 else _nonresidue_rep(key.p)
    f2 = 1 if jacobi(h, key.q) == 1 else _nonresidue_rep(key.q)
    return r * r * (f1 * key.psi1 + f2 * key.psi2) % key.n


# ---------------------------------------------------------------------------
# classic


def classic_sign(key: KeyPair, m: Message, rng=None) -> ClassicSignature:
    """Sign with a random padding value U making H(m)*U a residue."""
    h = _hash_for_signing(key, m)
    r = _sample_unit(key.n, rng or _SYSTEM_RNG)
    padding = _deterministic_padding(key, h, r)
    root = canonical_sqrt_mod_pq(h * padding % key.n, key.p, key.q, key.idem)
    return ClassicSignature(m, padding, root)


def classic_verify(pub: PublicKey | KeyPair, sig: ClassicSignature) -> VerifyReport:
    h = apply_redundancy(pub.redundancy, sig.m, pub.n)
    ops = _OpCounter()
    lhs = ops.sq(sig.S, pub.n)
    rhs = ops.mul(h, sig.U, pub.n)
    if lhs != rhs:
        return VerifyReport(False, "signature equation", ops.counts)
    return VerifyReport(True, None, ops.counts)


# ---------------------------------------------------------------------------
# general (four-multiplier padding set)


def general_sign(key: KeyPair, m: Message) -> GeneralSignature:
    """Sign with the unique padding-set element in the Jacobi class of H(m)."""
    if key.padding is None:
        raise ValueError("general signing needs a key with a padding set")
    h = _hash_for_signing(key, m)
    target = (jacobi(h, key.p), jacobi(h, key.q))
    for u in key.padding.elements:
        if (jacobi(u, key.p), jacobi(u, key.q)) == target:
            root = canonical_sqrt_mod_pq(h * u % key.n, key.p, key.q, key.idem)
            return GeneralSignature(m, u, root)
    raise ValueError("padding set does not cover the class of the message")


def general_verify(pub: PublicKey | KeyPair, sig: GeneralSignature) -> VerifyReport:
    ops = _OpCounter()
    if pub.padding is None or sig.u not in pub.padding.elements:
        return VerifyReport(False, "membership", ops.counts)
    h = apply_redundancy(pub.redundancy, sig.m, pub.n)
    lhs = ops.sq(sig.S, pub.n)
    rhs = ops.mul(h, sig.u, pub.n)
    if lhs != rhs:
        return VerifyReport(False, "signature equation", ops.counts)
    return VerifyReport(True, None, ops.counts)


# ---------------------------------------------------------------------------
# variant1 (four-tuple with a second root binding the padding)


def variant1_sign(key: KeyPair, m: Message, rng=None) -> Variant1Signature:
    """Sign as [m, U, S, T] with T**2 = (U+1)*S and S**2 = H(m)*U.

    U is re-drawn when it lands on a nontrivial square root of unity
    (publishing one would reveal the factorisation).  S is the unique root
    of H(m)*U whose Jacobi class matches U+1, which makes (U+1)*S a
    residue; T is its canonical root.
    """
    _require_blum(key)
    h = _hash_for_signing(key, m)
    rng = rng or _SYSTEM_RNG
    forbidden = sqrt_of_unity_nontrivial(key.p, key.q, key.idem)
    for _ in range(64):
        r = _sample_unit(key.n, rng)
        padding = _deterministic_padding(key, h, r)
        if padding not in forbidden:
            break
    else:
        raise RuntimeError("could not draw an acceptable padding value")
    if math.gcd(padding + 1, key.n) != 1:
        raise FactorLeakError("padding value adjacent to a multiple of a prime factor")
    target = (jacobi(padding + 1, key.p), jacobi(padding + 1, key.q))
    roots = sqrt_mod_pq(h * padding % key.n, key.p, key.q, key.idem)
    root = next(r.value for r in roots if (r.jacobi_p, r.jacobi_q) == target)
    if math.gcd(root, key.n) != 1:
        raise FactorLeakError("selected root shares a factor with the modulus")
    tail = canonical_sqrt_mod_pq((padding + 1) * root % key.n, key.p, key.q, key.idem)
    return Variant1Signature(m, padding, root, tail)


def variant1_verify(pub: PublicKey | KeyPair, sig: Variant1Signature) -> VerifyReport:
    h = apply_redundancy(pub.redundancy, sig.m, pub.n)
    ops = _OpCounter()
    if ops.sq(sig.T, pub.n) != ops.mul((sig.U + 1) % pub.n, sig.S, pub.n):
        return VerifyReport(False, "T equation", ops.counts)
    if ops.sq(sig.S, pub.n) != ops.mul(h, sig.U, pub.n):
        return VerifyReport(False, "S equation", ops.counts)
    return VerifyReport(True, None, ops.counts)


# ---------------------------------------------------------------------------
# variant2 (hidden unity-root padding, cubed nonce)


def variant2_sign(key: KeyPair, m: Message, rng=None) -> Variant2Signature:
    """Sign as [m, F, R**3] with F = R*S and S**2 = H(m)*U, U a unity root."""
    _require_blum(key)
    h = _hash_for_signing(key, m)
    padding = (jacobi(h, key.p) * key.psi1 + jacobi(h, key.q) * key.psi2) % key.n
    root = canonical_sqrt_mod_pq(h * padding % key.n, key.p, key.q, key.idem)
    r = _sample_unit(key.n, rng or _SYSTEM_RNG)
    return Variant2Signature(m, r * root % key.n, pow(r, 3, key.n))


def _power_chain_check(f_val: int, r3: int, h: int, n: int, ops: _OpCounter) -> bool:
    """Check F**12 == R3**4 * h**6 using 7 squares and 3 products."""
    f2 = ops.sq(f_val, n)
    f4 = ops.sq(f2, n)
    f8 = ops.sq(f4, n)
    f12 = ops.mul(f8, f4, n)
    r3_2 = ops.sq(r3, n)
    r3_4 = ops.sq(r3_2, n)
    h2 = ops.sq(h, n)
    h4 = ops.sq(h2, n)
    h6 = ops.mul(h4, h2, n)
    return f12 == ops.mul(r3_4, h6, n)


def variant2_verify(pub: PublicKey | KeyPair, sig: Variant2Signature) -> VerifyReport:
    h = apply_redundancy(pub.redundancy, sig.m, pub.n)
    ops = _OpCounter()
    if not _power_chain_check(sig.F, sig.R3, h, pub.n, ops):
        return VerifyReport(False, "verification equation", ops.counts)
    return VerifyReport(True, None, ops.counts)


# ---------------------------------------------------------------------------
# rw (two-multiplier correction, primes 3 and 7 mod 8)


def rw_sign(key: KeyPair, m: Message) -> RWSignature:
    """Sign as [m, e, f, S]: the unique (e, f) makes H(m)/(e*f) a residue."""
    _require_rw(key)
    h = _hash_for_signing(key, m)
    for e in (1, -1):
        for f in (1, 2):
            target = h * mod_inv(e * f % key.n, key.n) % key.n
            if jacobi(target, key.p) == 1 and jacobi(target, key.q) == 1:
                root = canonical_sqrt_mod_pq(target, key.p, key.q, key.idem)
                return RWSignature(m, e, f, root)
    raise RuntimeError("no multiplier pair admits a root; key is not an rw key")


def rw_verify(pub: PublicKey | KeyPair, sig: RWSignature) -> VerifyReport:
    e = sig.e % pub.n  # -1 is serialised as n-1
    if e not in (1, pub.n - 1) or sig.f not in (1, 2):
        return VerifyReport(False, "multiplier range", (0, 0))
    h = apply_redundancy(pub.redundancy, sig.m, pub.n)
    ops = _OpCounter()
    lhs = ops.mul(sig.f, ops.sq(sig.S, pub.n), pub.n)
    if e == pub.n - 1:
        lhs = (pub.n - lhs) % pub.n
    if lhs != h:
        return VerifyReport(False, "verification equation", ops.counts)
    return VerifyReport(True, None, ops.counts)


# ---------------------------------------------------------------------------
# dispatch helpers

_SIGNERS = {
    "classic": classic_sign,
    "general": lambda key, m, rng=None: general_sign(key, m),
    "variant1": variant1_sign,
    "variant2": variant2_sign,
    "rw": lambda key, m, rng=None: rw_sign(key, m),
}

_VERIFIERS = {
    ClassicSignature: classic_verify,
    GeneralSignature: general_verify,
    Variant1Signature: variant1_verify,
    Variant2Signature: variant2_verify,
    RWSignature: rw_verify,
}


def sign(key: KeyPair, m: Message, scheme: str, rng=None) -> Signature:
    try:
        signer = _SIGNERS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None
    return signer(key, m, rng=rng)


def verify(pub: PublicKey | KeyPair, sig: Signature) -> VerifyReport:
    return _VERIFIERS[type(sig)](pub, sig)


# ---------------------------------------------------------------------------
# Signature file format: line-oriented text, one component per line.

SIG_MAGIC = "rabin-sig v1"

_COMPONENT_FIELDS = {
    "classic": ("U", "S"),
    "general": ("u", "S"),
    "variant1": ("U", "S", "T"),
    "variant2": ("F", "R3"),
    "rw": ("e", "f", "S"),
}

_SIG_TYPES = {
    "classic": ClassicSignature,
    "general": GeneralSignature,
    "variant1": Variant1Signature,
    "variant2": Variant2Signature,
    "rw": RWSignature,
}


def dump_signature(sig: Signature, pub: PublicKey | KeyPair) -> str:
    lines = [SIG_MAGIC, f"scheme = {sig.scheme}"]
    m = sig.m
    if isinstance(m, int):
        lines.append(f"message = {m}")
    elif isinstance(m, DigestRef):
        lines.append(f"message-digest = {m.digest_int}")
    else:  # raw bytes: store by digest reference
        lines.append(f"message-digest = {digest_int(pub.redundancy, m)}")
    for name in _COMPONENT_FIELDS[sig.scheme]:
        value = getattr(sig, name)
        if sig.scheme == "rw" and name == "e":
            value %= pub.n
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def parse_signature(text: str, path_hint: str = "signature file") -> Signature:
    lines = text.splitlines()
    if not lines or lines[0] != SIG_MAGIC:
        raise SignatureFormatError(f"{path_hint} does not start with {SIG_MAGIC!r}")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise SignatureFormatError(f"malformed line {line!r} in {path_hint}")
        name, value = name.strip(), value.strip()
        if name in fields:
            raise SignatureFormatError(f"duplicate field {name!r} in {path_hint}")
        fields[name] = value

    scheme = fields.pop("scheme", None)
    if scheme not in _COMPONENT_FIELDS:
        raise SignatureFormatError(f"unknown or missing scheme in {path_hint}")

    def take_int(name):
        try:
            value = int(fields.pop(name))
        except KeyError:
            raise SignatureFormatError(f"missing field {name!r} in {path_hint}") from None
        except ValueError:
            raise SignatureFormatError(f"field {name!r} is not a decimal integer in {path_hint}") from None
        if value < 0:
            raise SignatureFormatError(f"field {name!r} is negative in {path_hint}")
        return value

    if "message" in fields and "message-digest" in fields:
        raise SignatureFormatError(f"both message and message-digest present in {path_hint}")
    if "message" in fields:
        m: Message = take_int("message")
    elif "message-digest" in fields:
        m = DigestRef(take_int("message-digest"))
    else:
        raise SignatureFormatError(f"missing message in {path_hint}")

    components = [take_int(name) for name in _COMPONENT_FIELDS[scheme]]
    if fields:
        raise SignatureFormatError(f"unexpected fields {sorted(fields)} in {path_hint}")
    return _SIG_TYPES[scheme](m, *components)
