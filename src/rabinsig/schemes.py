"""Sign and verify for the five signature schemes sharing a modulus n = p*q.

classic   [m, U, S]     S**2 = H(m)*U, U a free padding value
general   [m, u, S]     S**2 = H(m)*u, u drawn from the public padding set
variant1  [m, U, S, T]  T**2 = (U+1)*S and S**2 = H(m)*U  (Blum primes)
variant2  [m, F, R3]    F**12 = R3**4 * H(m)**6           (Blum primes)
rw        [m, e, f, S]  e*f*S**2 = H(m), e in {1,N-1}, f in {1,2}

Verification is pure.  Each scheme states its equation once, in a private
helper equation(n, h, *components, ops), which checks each congruence with
one reduction: its last square and product are taken unreduced and only
their difference is reduced mod N.  One function, _checked, applies the
range rule, the message rule and the count for every <tag>_verify, the
blind verifier and each signer's check of its own output (_released).  A
verdict reports the squares and products taken, excluding the redundancy
evaluation: those of the paper, for example 7 squares and 3 products for
variant2.  Each signature has one valid encoding, the one its signer emits
and its file holds: _checked first rejects, as "component range" with no
operations counted, a component outside 0 < x < N (_in_range) or a message
outside the message rule (_message_in_range).  Otherwise x + k*N would
verify wherever x does, and zeros satisfy every scheme's equations for
each message whose redundancy is 0 mod N, and classic's [m, 0, 0] for
every message.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Union

from .errors import FactorLeakError, SignatureFormatError, UnsignableMessageError
from .hashing import DigestRef, Message, apply_redundancy, digest_int
from .keygen import _KIND_CLASSES, KeyPair, PublicKey, _dump_record, _fits_kind, _Record
from .numtheory import _binding_root, _canonical_lift, _class_roots, crt_combine, crt_padding, random_unit


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
    """Counts the squares and products a verification takes, as it takes them.

    sq and mul reduce mod n.  sq_wide and mul_wide leave the result
    unreduced, for an equation's last square and product, whose
    difference alone is reduced.
    """

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

    def sq_wide(self, x):
        self.squares += 1
        return x * x

    def mul_wide(self, x, y):
        self.products += 1
        return x * y

    def report(self, failed: str | None) -> "VerifyReport":
        """The verdict with the counts so far; `failed` names the failed check, None when all held."""
        return _verdict(failed is None, failed, self.squares, self.products)


@functools.cache
def _verdict(valid: bool, failed_check: str | None, squares: int, products: int) -> VerifyReport:
    # One shared report per outcome: VerifyReport is frozen, and the counts
    # in the key are the ones the counter holds, so each stays exact.
    return VerifyReport(valid, failed_check, (squares, products))


_OUT_OF_RANGE = VerifyReport(False, "component range")


def _in_range(n: int, a: int, b: int = 1, c: int = 1) -> bool:
    """The component rule: each value passed has 0 < x < n."""
    return 0 < a < n and 0 < b < n and 0 < c < n


def _message_in_range(key: PublicKey | KeyPair, m: Message) -> bool:
    """The message rule: an integer 0 <= m, and m < N under identity or quadratic redundancy;
    bytes, or a digest reference below 2**(8 * digest size), under digest redundancy."""
    spec = key.redundancy
    if isinstance(m, int):
        return 0 <= m and (m < key.n or spec.tag == "digest")
    if spec.tag != "digest":
        return False
    return isinstance(m, bytes) or 0 <= m.digest_int < spec.digest_limit


def _message_hash(key: PublicKey | KeyPair, m: Message) -> int | None:
    """H(m), or None for a message outside the message rule."""
    return apply_redundancy(key.redundancy, m, key.n) if _message_in_range(key, m) else None


def _hash_for_signing(key: PublicKey | KeyPair, m: Message) -> int:
    """H(m), refusing a message outside the message rule or whose H(m) is not a unit."""
    h = _message_hash(key, m)
    if h is None:
        raise UnsignableMessageError("message is outside the range the key signs")
    if math.gcd(h, key.n) != 1:
        raise UnsignableMessageError("message redundancy value is zero or not a unit")
    return h


def _checked(equation, n: int, h: int | None, *components: int) -> VerifyReport:
    """The verdict on components under equation(n, h, *components, ops), which names its failed check or gives None.

    h None (a message outside the message rule) or a component outside
    0 < x < n is "component range", with no operations counted.
    """
    if h is None or not _in_range(n, *components):
        return _OUT_OF_RANGE
    ops = _OpCounter()
    return ops.report(equation(n, h, *components, ops))


def _released(sig, report: VerifyReport):
    """sig, once its verifier's check has passed for it, as each signer checks its output.

    A fault in one CRT half gives a signature that holds mod one prime only,
    and publishing it gives that prime away (Boneh, DeMillo and Lipton,
    EUROCRYPT 1997), so it is withheld: FactorLeakError, whose message
    carries no number.
    """
    if not report.valid:
        raise FactorLeakError("the signature failed its own check and was withheld")
    return sig


def _class_padding(key: KeyPair, hp: int, hq: int, r: int) -> int:
    """Padding value r**2 * (f1*psi1 + f2*psi2) for h of class (hp, hq).

    f1, f2 are 1 where h is a residue and the key's non-residue z otherwise,
    so h times the result is a residue modulo both primes, with the roots
    r*xp and r*xq of _class_roots.
    """
    k = key.idem
    return crt_padding(1 if hp == 1 else k.at_p.z, 1 if hq == 1 else k.at_q.z, r, k)


# ---------------------------------------------------------------------------
# classic


def classic_sign(key: KeyPair, m: Message, rng=None) -> ClassicSignature:
    """Sign with a random padding value U making H(m)*U a residue."""
    h = _hash_for_signing(key, m)
    hp, xp, hq, xq = _class_roots(h, key.idem)
    r = random_unit(key.n, rng)
    p, q = key.p, key.q
    padding, root = _class_padding(key, hp, hq, r), _canonical_lift(r * xp % p, r * xq % q, key.idem)
    return _released(ClassicSignature(m, padding, root), _checked(_square_equation, key.n, h, padding, root))


def _square_equation(n: int, h: int, u: int, s: int, ops: _OpCounter) -> str | None:
    """S**2 = h*u, the classic and general equation: the failed check, or None when it holds."""
    return "signature equation" if (ops.sq_wide(s) - ops.mul_wide(h, u)) % n else None


def classic_verify(pub: PublicKey | KeyPair, sig: ClassicSignature) -> VerifyReport:
    return _checked(_square_equation, pub.n, _message_hash(pub, sig.m), sig.U, sig.S)


# ---------------------------------------------------------------------------
# general (four-multiplier padding set)


def general_sign(key: KeyPair, m: Message, rng=None) -> GeneralSignature:
    """Sign with the unique padding-set element in the Jacobi class of H(m).

    With f the class representative of both h and u mod p (1 or z), the
    root of h*u mod p is the product of h's root over f and u's, which the
    key's padding set carries.
    """
    SCHEMES["general"].check_key(key)
    h = _hash_for_signing(key, m)
    hp, xp, hq, xq = _class_roots(h, key.idem)
    try:
        i = key.padding.classes.index((hp, hq))
    except ValueError:
        raise ValueError("padding set does not cover the class of the message") from None
    p, q, u, w = key.p, key.q, key.padding.elements[i], key.padding.roots[i]
    root = _canonical_lift(xp * w % p, xq * w % q, key.idem)
    return _released(GeneralSignature(m, u, root), _checked(_square_equation, key.n, h, u, root))


def _not_a_member(n: int, h: int, u: int, s: int, ops: _OpCounter) -> str:
    """general's refusal of a u outside the padding set, once the range rule holds: no operation taken."""
    return "membership"


def general_verify(pub: PublicKey | KeyPair, sig: GeneralSignature) -> VerifyReport:
    member = pub.padding is not None and sig.u in pub.padding.elements
    return _checked(_square_equation if member else _not_a_member, pub.n, _message_hash(pub, sig.m), sig.u, sig.S)


# ---------------------------------------------------------------------------
# variant1 (four-tuple with a second root binding the padding)


def variant1_sign(key: KeyPair, m: Message, rng=None) -> Variant1Signature:
    """Sign as [m, U, S, T] with T**2 = (U+1)*S and S**2 = H(m)*U.

    U = h*w**2 for h = H(m) and a uniform unit w, so h*w is already a root
    of h*U and the signer takes one root per prime, that of (U+1)*S.  U runs
    over h's class coset, each value from 4 draws, as r**2 times a fixed
    element of that class would.  w stays secret: S/(h*w) is +-1 mod each
    prime, which gives a factor of N whenever the two signs differ.  One
    rule picks w: it is re-drawn, at most 64 times, until U+1 is a unit,
    since a published U with gcd(U+1, N) > 1 reveals a factor; after 64 bad
    draws the signer raises FactorLeakError.  The rule covers the nontrivial
    square roots of unity: each is 1 mod one prime and -1 mod the other, so
    its U+1 is a multiple of the second prime.  S is h*w with its sign mod
    each prime set to the Jacobi class of U+1 (_binding_root): the unique
    root of h*U that makes (U+1)*S a residue.  T is its canonical root.
    """
    SCHEMES["variant1"].check_key(key)
    h = _hash_for_signing(key, m)
    n, k = key.n, key.idem
    for _ in range(64):
        w = random_unit(n, rng)
        padding = h * w * w % n
        if math.gcd(padding + 1, n) == 1:
            break
    else:
        raise FactorLeakError("could not draw a padding value U with U+1 a unit")
    s0 = h * w
    sp, tp = _binding_root(s0 % key.p, padding + 1, k.at_p)
    sq, tq = _binding_root(s0 % key.q, padding + 1, k.at_q)
    root, t = crt_combine(sp, sq, k), _canonical_lift(tp, tq, k)
    return _released(Variant1Signature(m, padding, root, t), _checked(_variant1_equations, n, h, padding, root, t))


def _variant1_equations(n: int, h: int, u: int, s: int, t: int, ops: _OpCounter) -> str | None:
    """T**2 = (U+1)*S, then S**2 = h*U: the first that fails, or None when both hold.

    U+1 is not reduced first: U+1 = N gives (U+1)*S = 0 mod N all the same.
    """
    if (ops.sq_wide(t) - ops.mul_wide(u + 1, s)) % n:
        return "T equation"
    return "S equation" if (ops.sq_wide(s) - ops.mul_wide(h, u)) % n else None


def variant1_verify(pub: PublicKey | KeyPair, sig: Variant1Signature) -> VerifyReport:
    return _checked(_variant1_equations, pub.n, _message_hash(pub, sig.m), sig.U, sig.S, sig.T)


# ---------------------------------------------------------------------------
# variant2 (hidden unity-root padding, cubed nonce)


def variant2_sign(key: KeyPair, m: Message, rng=None) -> Variant2Signature:
    """Sign as [m, F, R**3] with F = R*S and S**2 = H(m)*U, U a unity root."""
    SCHEMES["variant2"].check_key(key)
    h = _hash_for_signing(key, m)
    # the hidden padding U = f1*psi1 + f2*psi2 is a root of unity, and S the canonical root of h*U
    _, xp, _, xq = _class_roots(h, key.idem)
    return Variant2Signature(m, *_hidden_root(_canonical_lift(xp, xq, key.idem), h, key.n, rng))


def _hidden_root(root: int, h: int, n: int, rng) -> tuple[int, int]:
    """(R*root, R**3), R a secret nonce, once F**12 = R3**4 * h**6 holds: the answer of variant2 and blind_sign."""
    r = random_unit(n, rng)
    f_val, r3 = r * root % n, pow(r, 3, n)
    return _released((f_val, r3), _checked(_power_chain_check, n, h, f_val, r3))


def _power_chain_check(n: int, h: int, f_val: int, r3: int, ops: _OpCounter) -> str | None:
    """F**12 = R3**4 * h**6 in 7 squares and 3 products: the failed check, or None when it holds.

    The last two products, F**8 * F**4 and R3**4 * h**6, are taken unreduced.
    """
    f2 = ops.sq(f_val, n)
    f4 = ops.sq(f2, n)
    f8 = ops.sq(f4, n)
    r3_2 = ops.sq(r3, n)
    r3_4 = ops.sq(r3_2, n)
    h2 = ops.sq(h, n)
    h4 = ops.sq(h2, n)
    h6 = ops.mul(h4, h2, n)
    return "verification equation" if (ops.mul_wide(f8, f4) - ops.mul_wide(r3_4, h6)) % n else None


def variant2_verify(pub: PublicKey | KeyPair, sig: Variant2Signature) -> VerifyReport:
    return _checked(_power_chain_check, pub.n, _message_hash(pub, sig.m), sig.F, sig.R3)


# ---------------------------------------------------------------------------
# rw (two-multiplier correction, primes 3 and 7 mod 8)


def rw_sign(key: KeyPair, m: Message, rng=None) -> RWSignature:
    """Sign as [m, e, f, S]: the unique (e, f) makes H(m)/(e*f) a residue; e is 1 or N-1."""
    SCHEMES["rw"].check_key(key)
    h = _hash_for_signing(key, m)
    # The class of h/(e*f) mod each prime is (h/p)*(e/p)*(f/p).  Both primes
    # are 3 mod 4, so (-1/p) = -1 and (e/p) = e, and yp**2 = (h/p)*h; (2/p)
    # is 1 for the prime that is 7 mod 8 and -1 for the one that is 3 mod 8.
    # So f = 1 and e = (h/p) when the two classes agree, and S = y.  When
    # they differ, f = 2 and e = (h/p)*(2/p), and S = y * 2**(-(p+1)/4)
    # mod each prime, since that constant squares to (2/p)/2.
    p, q, k = key.p, key.q, key.idem
    hp, yp, hq, yq = _class_roots(h, k)
    if hp == hq:
        e, f = hp, 1
    else:
        e, f = hp * (1 if p % 8 == 7 else -1), 2
        yp, yq = yp * k.at_p.half_root % p, yq * k.at_q.half_root % q
    e, root = e % key.n, _canonical_lift(yp, yq, k)
    return _released(RWSignature(m, e, f, root), _checked(_rw_equation, key.n, h, e, f, root))


def _rw_equation(n: int, h: int, e: int, f: int, s: int, ops: _OpCounter) -> str | None:
    """e*f*S**2 = h with e in {1, n-1}, checked as f*S**2 - e*h = 0 (e*e = 1): the failed check, or None."""
    return "verification equation" if (ops.mul_wide(f, ops.sq_wide(s)) - (h if e == 1 else -h)) % n else None


def rw_verify(pub: PublicKey | KeyPair, sig: RWSignature) -> VerifyReport:
    if sig.e not in (1, pub.n - 1) or sig.f not in (1, 2):
        return _OUT_OF_RANGE
    return _checked(_rw_equation, pub.n, _message_hash(pub, sig.m), sig.e, sig.f, sig.S)


# ---------------------------------------------------------------------------
# the scheme registry


@dataclass(frozen=True)
class Scheme:
    """One scheme: its signature type and key requirement.

    The tag is `sig_type.scheme` and the components are the fields of
    `sig_type` after the message.  Its signer is this module's
    `<tag>_sign(key, m, rng=None)` and its verifier `<tag>_verify(pub, sig)`.
    """

    sig_type: type
    key_kind: str  # the key kind the oracle builds, whose congruences a signing key must meet
    needs_padding: bool = False  # and a private padding set, with classes and roots (general)

    @property
    def tag(self) -> str:
        return self.sig_type.scheme

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(self.sig_type)[1:])

    def key_ok(self, key: KeyPair) -> bool:
        padding = key.padding
        return _fits_kind(key.p, key.q, self.key_kind) and (
            not self.needs_padding or (padding is not None and None not in (padding.classes, padding.roots)))

    def check_key(self, key: KeyPair):
        """Raise ValueError unless the key meets this scheme's requirement."""
        if not self.key_ok(key):
            needs = "a private padding set" if self.needs_padding else _KIND_CLASSES[self.key_kind][3]
            raise ValueError(f"the {self.tag} scheme needs a key with {needs}")


SCHEMES: dict[str, Scheme] = {s.tag: s for s in (
    Scheme(ClassicSignature, "general"),
    Scheme(GeneralSignature, "general", needs_padding=True),
    Scheme(Variant1Signature, "blum"),
    Scheme(Variant2Signature, "blum"),
    Scheme(RWSignature, "rw"),
)}

SCHEME_TAGS = tuple(SCHEMES)

# sign() looks `<tag>_sign` up in this module's namespace when it runs, and
# verify() indexes _VERIFIERS, a module-level dict of the `<tag>_verify`
# functions keyed by signature class.  Instrumentation that swaps a function
# (perfbench's tracer, a test's monkeypatch) rebinds module attributes and
# module-level dict values, so the swapped function is the one called.
_VERIFIERS = {s.sig_type: globals()[f"{tag}_verify"] for tag, s in SCHEMES.items()}


def sign(key: KeyPair, m: Message, scheme: str, rng=None) -> Signature:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return globals()[f"{scheme}_sign"](key, m, rng=rng)


def verify(pub: PublicKey | KeyPair, sig: Signature) -> VerifyReport:
    return _VERIFIERS[type(sig)](pub, sig)


# ---------------------------------------------------------------------------
# Signature file format: the record format of key files (see keygen), one
# component per line.

SIG_MAGIC = "rabin-sig v1"


def dump_signature(sig: Signature, pub: PublicKey | KeyPair) -> str:
    m = sig.m
    fields = {"scheme": sig.scheme}
    if isinstance(m, int):
        fields["message"] = m
    else:  # raw bytes are stored by their digest reference
        fields["message-digest"] = m.digest_int if isinstance(m, DigestRef) else digest_int(pub.redundancy, m)
    fields.update((name, getattr(sig, name)) for name in SCHEMES[sig.scheme].components)
    return _dump_record(SIG_MAGIC, fields)


def parse_signature(text: str, path_hint: str = "signature file") -> Signature:
    record = _Record(text, SIG_MAGIC, SignatureFormatError, path_hint)
    scheme = SCHEMES.get(record.pop("scheme", None))
    if scheme is None:
        raise SignatureFormatError(f"unknown or missing scheme in {path_hint}")
    if "message" in record:
        m: Message = record.integer("message")
    elif "message-digest" in record:
        m = DigestRef(record.integer("message-digest"))
    else:
        raise SignatureFormatError(f"missing message in {path_hint}")
    components = [record.integer(name) for name in scheme.components]
    record.done()
    return scheme.sig_type(m, *components)
