"""Sign and verify for the five signature schemes sharing a modulus n = p*q.

classic   [m, U, S]     S**2 = H(m)*U, U a free padding value
general   [m, u, S]     S**2 = H(m)*u, u drawn from the public padding set
variant1  [m, U, S, T]  T**2 = (U+1)*S and S**2 = H(m)*U  (Blum primes)
variant2  [m, F, R3]    F**12 = R3**4 * H(m)**6           (Blum primes)
rw        [m, e, f, S]  e*f*S**2 = H(m), e in {1,-1}, f in {1,2}

Verification is pure and reports the exact number of modular squares and
products it performed, excluding the redundancy evaluation.  Every verifier
first rejects a signature with a component that is 0 mod n: zeros satisfy
every scheme's equations for each message whose redundancy is 0 mod n, and
classic's [m, 0, 0] for every message, while no honest signature has one
(signing needs H(m) to be a unit, so each component is a unit or a fixed
multiplier).
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Union

from .errors import FactorLeakError, SignatureFormatError, UnsignableMessageError
from .hashing import DigestRef, Message, apply_redundancy, digest_int
from .keygen import KeyPair, PublicKey, _int_field, _parse_record
from .numtheory import (
    SYSTEM_RNG,
    canonical_sqrt_mod_pq,
    crt_padding,
    jacobi,
    mod_inv,
    random_unit,
    sqrt_mod_pq,
    sqrt_of_unity_nontrivial,
)


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


def _hash_for_signing(key: KeyPair, m: Message) -> int:
    h = apply_redundancy(key.redundancy, m, key.n)
    if h == 0 or math.gcd(h, key.n) != 1:
        raise UnsignableMessageError("message redundancy value is zero or not a unit")
    return h


def _deterministic_padding(key: KeyPair, h: int, r: int) -> int:
    """Padding value R**2 * (f1*psi1 + f2*psi2) built from the class of h.

    f1, f2 are class representatives mod p and q (so H(m) times the result
    is a residue modulo both primes): 1 where h is a residue, otherwise the
    key's non-residue z, -1 for a 3-mod-4 prime and the least non-residue
    for a 1-mod-4 prime.
    """
    p, q, k = key.p, key.q, key.idem
    f1 = 1 if jacobi(h, p) == 1 else k.at_p.z
    f2 = 1 if jacobi(h, q) == 1 else k.at_q.z
    return crt_padding(f1, f2, r, p, q, k)


# ---------------------------------------------------------------------------
# classic


def classic_sign(key: KeyPair, m: Message, rng=None) -> ClassicSignature:
    """Sign with a random padding value U making H(m)*U a residue."""
    h = _hash_for_signing(key, m)
    padding = _deterministic_padding(key, h, random_unit(key.n, rng))
    root = canonical_sqrt_mod_pq(h * padding % key.n, key.p, key.q, key.idem)
    return ClassicSignature(m, padding, root)


def classic_verify(pub: PublicKey | KeyPair, sig: ClassicSignature) -> VerifyReport:
    if not (sig.U % pub.n and sig.S % pub.n):
        return VerifyReport(False, "zero component")
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
    SCHEMES["general"].check_key(key)
    h = _hash_for_signing(key, m)
    target = (jacobi(h, key.p), jacobi(h, key.q))
    for u, cls in zip(key.padding.elements, key.padding.classes):
        if cls == target:
            root = canonical_sqrt_mod_pq(h * u % key.n, key.p, key.q, key.idem)
            return GeneralSignature(m, u, root)
    raise ValueError("padding set does not cover the class of the message")


def general_verify(pub: PublicKey | KeyPair, sig: GeneralSignature) -> VerifyReport:
    if not (sig.u % pub.n and sig.S % pub.n):
        return VerifyReport(False, "zero component")
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
    SCHEMES["variant1"].check_key(key)
    h = _hash_for_signing(key, m)
    rng = rng or SYSTEM_RNG
    forbidden = sqrt_of_unity_nontrivial(key.p, key.q, key.idem)
    for _ in range(64):
        padding = _deterministic_padding(key, h, random_unit(key.n, rng))
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
    if not (sig.U % pub.n and sig.S % pub.n and sig.T % pub.n):
        return VerifyReport(False, "zero component")
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
    SCHEMES["variant2"].check_key(key)
    h = _hash_for_signing(key, m)
    padding = _deterministic_padding(key, h, 1)
    root = canonical_sqrt_mod_pq(h * padding % key.n, key.p, key.q, key.idem)
    r = random_unit(key.n, rng)
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
    if not (sig.F % pub.n and sig.R3 % pub.n):
        return VerifyReport(False, "zero component")
    h = apply_redundancy(pub.redundancy, sig.m, pub.n)
    ops = _OpCounter()
    if not _power_chain_check(sig.F, sig.R3, h, pub.n, ops):
        return VerifyReport(False, "verification equation", ops.counts)
    return VerifyReport(True, None, ops.counts)


# ---------------------------------------------------------------------------
# rw (two-multiplier correction, primes 3 and 7 mod 8)


def rw_sign(key: KeyPair, m: Message) -> RWSignature:
    """Sign as [m, e, f, S]: the unique (e, f) makes H(m)/(e*f) a residue."""
    SCHEMES["rw"].check_key(key)
    h = _hash_for_signing(key, m)
    # The class of h/(e*f) mod each prime is (h/p)*(e/p)*(f/p).  Both primes
    # are 3 mod 4, so (-1/p) = -1 and (e/p) = e; (2/p) is 1 for the prime
    # that is 7 mod 8 and -1 for the one that is 3 mod 8.
    classes = [(jacobi(h, prime), 1 if prime % 8 == 7 else -1) for prime in (key.p, key.q)]
    for e in (1, -1):
        for f in (1, 2):
            if all(j * e * (two if f == 2 else 1) == 1 for j, two in classes):
                target = h * mod_inv(e * f % key.n, key.n) % key.n
                root = canonical_sqrt_mod_pq(target, key.p, key.q, key.idem)
                return RWSignature(m, e, f, root)
    raise RuntimeError("no multiplier pair admits a root; key is not an rw key")


def rw_verify(pub: PublicKey | KeyPair, sig: RWSignature) -> VerifyReport:
    if not (sig.e % pub.n and sig.f % pub.n and sig.S % pub.n):
        return VerifyReport(False, "zero component")
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
# the scheme registry


@dataclass(frozen=True)
class Scheme:
    """One scheme: its signature type, signer, verifier and key requirement.

    The tag is `sig_type.scheme` and the components are the fields of
    `sig_type` after the message.
    """

    sig_type: type
    key_kind: str  # the key kind the oracle builds to check this scheme
    sign: Callable  # (key, m, rng=None) -> signature
    verify: Callable  # (pub, sig) -> VerifyReport
    key_ok: Callable[[KeyPair], bool] = lambda key: True
    key_needs: str = ""  # what key_ok demands, for the error message

    @property
    def tag(self) -> str:
        return self.sig_type.scheme

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(self.sig_type)[1:])

    def check_key(self, key: KeyPair):
        """Raise ValueError unless the key meets this scheme's requirement."""
        if not self.key_ok(key):
            raise ValueError(f"the {self.tag} scheme needs a key with {self.key_needs}")


_BLUM_KEY = {"key_ok": lambda key: key.is_blum, "key_needs": "both primes congruent to 3 mod 4"}

# The lambdas look general_sign and rw_sign up when called, so rebinding the
# module attribute also reaches the calls made through sign().
SCHEMES: dict[str, Scheme] = {s.tag: s for s in (
    Scheme(ClassicSignature, "general", classic_sign, classic_verify),
    Scheme(GeneralSignature, "general", lambda key, m, rng=None: general_sign(key, m), general_verify,
           lambda key: key.padding is not None and key.padding.classes is not None, "a private padding set"),
    Scheme(Variant1Signature, "blum", variant1_sign, variant1_verify, **_BLUM_KEY),
    Scheme(Variant2Signature, "blum", variant2_sign, variant2_verify, **_BLUM_KEY),
    Scheme(RWSignature, "rw", lambda key, m, rng=None: rw_sign(key, m), rw_verify,
           lambda key: key.is_rw, "primes congruent to 3 and 7 mod 8"),
)}

SCHEME_TAGS = tuple(SCHEMES)

# sign() and verify() dispatch through these module-level dicts rather than
# through SCHEMES, because instrumentation that swaps a function (perfbench's
# tracer, a test's monkeypatch) rebinds module attributes and module-level dict
# values and cannot reach into Scheme objects.  _VERIFIERS stays keyed by
# signature class, the key that verify() and its callers index it by.
_SIGNERS = {tag: s.sign for tag, s in SCHEMES.items()}
_VERIFIERS = {s.sig_type: s.verify for s in SCHEMES.values()}


def sign(key: KeyPair, m: Message, scheme: str, rng=None) -> Signature:
    try:
        signer = _SIGNERS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None
    return signer(key, m, rng=rng)


def verify(pub: PublicKey | KeyPair, sig: Signature) -> VerifyReport:
    return _VERIFIERS[type(sig)](pub, sig)


# ---------------------------------------------------------------------------
# Signature file format: the record format of key files (see keygen), one
# component per line.

SIG_MAGIC = "rabin-sig v1"


def dump_signature(sig: Signature, pub: PublicKey | KeyPair) -> str:
    lines = [SIG_MAGIC, f"scheme = {sig.scheme}"]
    m = sig.m
    if isinstance(m, int):
        lines.append(f"message = {m}")
    elif isinstance(m, DigestRef):
        lines.append(f"message-digest = {m.digest_int}")
    else:  # raw bytes: store by digest reference
        lines.append(f"message-digest = {digest_int(pub.redundancy, m)}")
    for name in SCHEMES[sig.scheme].components:
        value = getattr(sig, name)
        if sig.scheme == "rw" and name == "e":
            value %= pub.n
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def parse_signature(text: str, path_hint: str = "signature file") -> Signature:
    fields = _parse_record(text, SIG_MAGIC, SignatureFormatError, path_hint)
    scheme = SCHEMES.get(fields.pop("scheme", None))
    if scheme is None:
        raise SignatureFormatError(f"unknown or missing scheme in {path_hint}")

    def take_int(name):
        return _int_field(fields, name, SignatureFormatError, path_hint)

    if "message" in fields and "message-digest" in fields:
        raise SignatureFormatError(f"both message and message-digest present in {path_hint}")
    if "message" in fields:
        m: Message = take_int("message")
    elif "message-digest" in fields:
        m = DigestRef(take_int("message-digest"))
    else:
        raise SignatureFormatError(f"missing message in {path_hint}")

    components = [take_int(name) for name in scheme.components]
    if fields:
        raise SignatureFormatError(f"unexpected fields {sorted(fields)} in {path_hint}")
    return scheme.sig_type(m, *components)
