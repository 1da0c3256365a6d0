"""Key generation for the signature schemes, plus the text key-file format.

Key kinds:
  general  -- any pair of distinct odd primes; carries a four-element
              padding set covering all Jacobi classes
  blum     -- both primes congruent to 3 mod 4
  rw       -- one prime congruent to 3 and the other to 7 mod 8
"""

import math
import re
from dataclasses import InitVar, dataclass, field
from itertools import compress

from . import numtheory
from .errors import KeyFormatError
from .hashing import IDENTITY, RedundancySpec
from .numtheory import (
    SYSTEM_RNG,
    _exact_prime,
    _four_lifts,
    _KeyRoots,
    _modexp,
    _pocklington,
    _PrimeRoots,
    _sieve_primes,
    crt_combine,
    crt_idempotents,
    crt_padding,
    jacobi,
    random_unit,
)

_CONSTRAINTS = {"none": (1, 2), "3mod4": (3, 4), "3mod8": (3, 8), "7mod8": (7, 8)}

# Congruence constraints of the two primes of each key kind.
_KIND_CONSTRAINTS = {"general": ("none", "none"), "blum": ("3mod4", "3mod4"), "rw": ("3mod8", "7mod8")}

KINDS = tuple(_KIND_CONSTRAINTS)


def _kind_classes(kind: str) -> tuple[int, set[int], int, str]:
    """m, a kind's prime residues mod m (in either order), the class of N mod m, and that in words."""
    (rp, m), (rq, _) = (_CONSTRAINTS[c] for c in _KIND_CONSTRAINTS[kind])
    return m, {rp, rq}, rp * rq % m, f"primes congruent to {' and '.join(map(str, sorted({rp, rq})))} mod {m}"


_KIND_CLASSES = {kind: _kind_classes(kind) for kind in KINDS}


def _fits_kind(p: int, q: int, kind: str) -> bool:
    """Whether the primes p and q meet the congruences of a `kind` key."""
    m, residues, _, _ = _KIND_CLASSES[kind]
    return {p % m, q % m} == residues


# The most bits a key's prime may have.  gen_keypair, KeyPair.from_primes and
# parse_key refuse more, so that loading an untrusted key file is bounded work.
MAX_PRIME_BITS = 4096

# The most bits of a prime that comes without a proof: from_primes refuses a
# larger one before its 40 Miller-Rabin rounds.  A key file without proofs took
# 0.03 s to load at 1024 bits and 1.4 s at MAX_PRIME_BITS with the rounds in
# libcrypto (numtheory._modexp), and 0.37 s and 16 s where they take pow
# (CPython 3.11, x86-64); a proof costs a few modexps at any size.
MAX_UNPROVEN_BITS = 1024

# Padding multipliers a, b only matter through their residue classes, so
# small values are enough and keep generation cheap.
_MULTIPLIER_BOUND = 1 << 16

# gen_prime strikes multiples of odd primes below bits**2/64, at most 2**14,
# from each window of candidates: below 4096 at 512 bits, which leaves about
# 13.5% of them (Mertens), and below 2**14 from 1024 bits on.  With witnesses
# in libcrypto (numtheory._modexp), a 512-bit prime took about 0.8x the time
# of the earlier bits**2/16, over interleaved reps that found the same primes;
# at 1536 bits both reach 2**14.  A full 2**14 sieve at every level of the
# recursion costs more than it saves.  That was measured when a refused
# survivor cost two modexps; with the Fermat test first it costs one.
_SIEVE_PRIMES = _sieve_primes(1 << 14)[1:]


class ProvenPrime(int):
    """A prime with the chain of (f, b) steps that proves it (numtheory._proven); empty below 2**64.

    The chain is as secret as the prime.  Its first factor f divides p - 1
    and has a third of p's bits, so it gives p mod 2f, about N**(1/6): less
    than the N**(1/4) from which Coppersmith's method factors N, but its
    first witness b has b**f = 1 mod p, so gcd(b**f - 1 mod N, N) = p.
    """

    chain: tuple[tuple[int, int], ...]

    def __new__(cls, value: int, chain: tuple[tuple[int, int], ...]):
        self = super().__new__(cls, value)
        self.chain = chain
        return self

    def __getnewargs__(self):  # copy and pickle, as for a plain int
        return int(self), self.chain


def gen_prime(bits: int, constraint: str = "none", rng=None) -> int:
    """A random prime of exactly `bits` bits meeting the congruence constraint.

    Returns a ProvenPrime, which carries its proof.  Below 2**64 the search
    tests candidates with the exact _exact_prime.  Above, a prime is built as in
    Maurer's generator (J. Cryptology 8, 1995; HAC Alg. 4.62): a proven prime
    f of ceil(bits/3) bits, then a search over candidates p = 2*R*f + 1.  A
    candidate that passes the Fermat test 2**(p-1) = 1 gets the witness
    b = 2**((p-1)/f), checked by numtheory._pocklington, whose size and
    square test proves p prime once (2f)**3 >= p.  A 512-bit prime thus takes
    two steps, through f of 171 and 57 bits.  The prime keeps each step's
    (f, b) as its proof.  A refused candidate costs one numtheory._modexp and
    the prime three, in libcrypto where it can be reached and by pow where
    not; both find the same prime from the same rng.
    """
    if bits < 8:
        raise ValueError("need at least 8 bits per prime factor")
    residue, step = _CONSTRAINTS[constraint]
    return _proven_prime(bits, residue, step, rng or SYSTEM_RNG)


def _proven_prime(bits: int, residue: int, step: int, rng) -> ProvenPrime:
    # gen_prime for the class residue mod step (step is 2, 4 or 8).
    if bits <= 64:
        return ProvenPrime(_search(bits, residue, step, _exact_prime, rng)[0], ())
    f = _proven_prime(-(-bits // 3), 1, 2, rng)  # (2f)**3 >= 2**(3*ceil(bits/3)) > p
    # p = 1 + 2*f*R with p = residue mod step: R*f = (residue-1)/2 mod step/2
    half = step // 2
    t = (residue - 1) // 2 * pow(f, -1, half) % half
    p, b = _search(bits, 1 + 2 * f * t, 2 * f * half, lambda n: _base_2_witness(n, f), rng)
    return ProvenPrime(p, ((int(f), b), *f.chain))


def _base_2_witness(n: int, f: int) -> int:
    # b = 2**((n-1)/f) mod n when it proves n prime by _pocklington, and 0 when not.  With f | n - 1,
    # b**f = 2**(n-1), so an n that fails the Fermat test to base 2 fails _pocklington: one modexp refuses it.
    if _modexp(2, n - 1, n) != 1:
        return 0
    b = _modexp(2, (n - 1) // f, n)
    return b if _pocklington(n, f, b) else 0


def _search(bits: int, residue: int, modulus: int, witness, rng) -> tuple[int, int]:
    """The first `bits`-bit n = residue mod modulus with a true witness(n), and that witness.

    HAC section 4.4.1: a random start in the class, then its next 2*bits
    members, of which those with an odd prime factor below bits**2/64 (at
    most 2**14) are struck out and the rest tested in order.  modulus is a
    power of 2, or one times a prime above the sieve bound, so it is a unit
    modulo every sieving prime.
    """
    low = 1 << (bits - 1)
    window, limit = _sieve_bounds(bits)
    while True:
        start = low | rng.getrandbits(bits - 1)
        start += (residue - start) % modulus
        count = min(window, ((low << 1) - 1 - start) // modulus + 1)
        if count <= 0:
            continue
        alive = bytearray([1]) * count
        for s in _SIEVE_PRIMES:
            if s >= limit:
                break
            i = -(start % s) * pow(modulus, -1, s) % s
            if i < count:
                alive[i::s] = bytes((count - 1 - i) // s + 1)
        for i in compress(range(count), alive):
            cand = start + modulus * i
            if w := witness(cand):
                return cand, w


def _sieve_bounds(bits: int) -> tuple[int, int]:
    # _search's window length and sieve limit for bits-bit candidates; the limit is below 2**(bits-1),
    # so no candidate is struck as itself
    return 2 * bits, min(bits * bits // 64, 1 << 14)


@dataclass(frozen=True)
class PaddingSet:
    """Four public multipliers covering the four Jacobi classes.

    `classes` lists ((u/p), (u/q)) per element and `roots`, per element u, a
    root w over its class: w**2 = u mod p where u is a residue and
    w**2 * z = u where it is not, z the ring's non-residue, and likewise mod
    q.  Both are only populated on the private side, where a set from
    KeyPair.from_primes always has both, and they are the one store of the
    roots that the general signer takes; the published form is the bare
    elements in a randomised order.  build_padding_set makes the roots,
    from_primes takes them from a set that lacks them, as key files of
    earlier versions do, and a key file holds the least of w's four lifts
    mod N.  A root is as secret as a chain (gcd(w**2 - u, N) = p for an
    element that is a residue mod p only), so it stays out of ==, hash,
    repr and the published form.
    """

    elements: tuple[int, int, int, int]
    classes: tuple[tuple[int, int], ...] | None = None
    roots: tuple[int, ...] | None = field(default=None, repr=False, compare=False)


def padding_set_flaws(elements, p: int, q: int) -> list[str]:
    """Safety checks a padding set must pass before publication.

    Returns human-readable descriptions of every violated condition:
    elements must be units in 1..N-1, must not be square roots of unity,
    must cover all four Jacobi classes, and no pairwise difference may share
    a factor with the modulus.
    """
    return _padding_flaws(elements, [(jacobi(u, p), jacobi(u, q)) for u in elements], p * q)


def _padding_flaws(elements, classes, n: int) -> list[str]:
    # padding_set_flaws for elements whose classes ((u/p), (u/q)) are known;
    # a class with a 0 in it belongs to a non-unit.  classes None is a public
    # key's set: only the checks that need no factor of n run.
    if len(elements) != 4:
        return [f"a padding set has four elements, not {len(elements)}"]
    # a gcd per element or per pair runs only to name what a product's gcd (_coprime) found
    units = _coprime(elements, n)
    flaws = []
    for i, u in enumerate(elements):  # named by its place: a value moved into a private file's line may be secret
        if not 0 < u < n or not units and math.gcd(u, n) != 1:  # 1..N-1: one encoding per element, as in a key file
            flaws.append(f"element {i} is not a unit in 1..N-1")
        elif u * u % n == 1:
            flaws.append(f"element {i} is a square root of unity")
    if classes is not None and len({c for c in classes if 0 not in c}) != 4:
        flaws.append("elements do not cover all four Jacobi classes")
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    if not _coprime([elements[i] - elements[j] for i, j in pairs], n):
        for i, j in pairs:
            if math.gcd(elements[i] - elements[j], n) != 1:
                flaws.append(f"difference of elements {i} and {j} shares a factor with the modulus")
    return flaws


def _coprime(values, n: int) -> bool:
    """Whether every value is a unit mod n: a prime divides their product exactly when it divides one of them."""
    product = 1
    for v in values:
        product = product * v % n
    return math.gcd(product, n) == 1


def _sample_with_jacobi(p: int, target: int, rng) -> int:
    while True:
        a = rng.randrange(2, _MULTIPLIER_BOUND)
        if jacobi(a, p) == target:
            return a


def build_padding_set(p: int, q: int, psi1: int, psi2: int, rng=None, ring=None) -> PaddingSet:
    """Build a safe padding set by rejection sampling.

    Draws class representatives a1, a2 (residue / non-residue mod p) and
    b1, b2 (mod q) once, then four distinct random units r_i, re-drawn until
    every safety check passes, for at most 4096 rounds.  The element
    r**2 * (a*psi1 + b*psi2) is r**2 * a mod p and r**2 * b mod q, so its
    class is that of (a, b) and no Jacobi symbol is computed for it.  New
    multipliers would reach no set that new r_i cannot, since a class is
    {r**2 * c : r a unit} for any c in it.  The element's root over its
    class is r times its multipliers' roots, so the four roots take one
    root of each multiplier: two per prime.  Those roots build the root
    constants of p and q (z, and its powers for p = 1 mod 4) in the ring
    of p and q, which a caller that keeps them passes as `ring`.  Raises
    ValueError unless psi1 and psi2 are the idempotents of p and q that
    crt_idempotents gives, and unless `ring` is a ring of p and q.
    """
    rng = rng or SYSTEM_RNG
    idem = crt_idempotents(p, q) if ring is None else ring
    if (idem.p, idem.q) != (p, q):
        raise ValueError("ring is not the ring of p and q")
    if (psi1, psi2) != (idem.psi1, idem.psi2):
        raise ValueError("psi1 and psi2 are not the idempotents of p and q")
    n = idem.n
    a1 = _sample_with_jacobi(p, 1, rng)
    a2 = _sample_with_jacobi(p, -1, rng)
    b1 = _sample_with_jacobi(q, 1, rng)
    b2 = _sample_with_jacobi(q, -1, rng)
    pairs = ((a1, b1), (a1, b2), (a2, b1), (a2, b2))
    classes = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    for _ in range(4096):
        rs: list[int] = []
        while len(rs) < 4:  # with r_1 = r_4, u1/u4 is a1/a2 mod p and b1/b2 mod q: 2**32 guesses find p
            r = random_unit(n, rng)
            if r not in rs:
                rs.append(r)
        elements = tuple(crt_padding(a, b, r, idem) for (a, b), r in zip(pairs, rs))
        if not _padding_flaws(elements, classes, n):
            order = list(range(4))
            rng.shuffle(order)  # publication order must not hint at the classes
            root_a = {a: idem.at_p.root_over_class(a) for a in (a1, a2)}
            root_b = {b: idem.at_q.root_over_class(b) for b in (b1, b2)}
            roots = [crt_combine(r * root_a[a] % p, r * root_b[b] % q, idem) for (a, b), r in zip(pairs, rs)]
            return PaddingSet(
                tuple(elements[i] for i in order),
                tuple(classes[i] for i in order),
                tuple(roots[i] for i in order),
            )
    raise RuntimeError("could not build a safe padding set for this modulus")


@dataclass(frozen=True)
class PublicKey:
    kind: str
    n: int
    redundancy: RedundancySpec
    padding: PaddingSet | None = None


@dataclass(frozen=True)
class KeyPair:
    """A private key: its primes, with N, psi1 and psi2 read from their ring (idem).

    idem, the ring of p and q (numtheory._KeyRoots), is the key's one store
    of derived constants of the primes; the roots of the padding elements
    are the padding set's.  __init__ takes it as `ring`, as from_primes and
    gen_keypair pass the ring they filled, or builds a fresh one, as
    dataclasses.replace does.  p and q stay out of repr.  A proven p or q is
    a ProvenPrime, whose chain is as secret as the prime: it acts as its
    int, so like idem, which is no field, the chain stays out of ==, hash,
    repr and public().  A key built here, not by from_primes, on a padding
    set without roots cannot sign general.
    """

    kind: str
    p: int = field(repr=False)
    q: int = field(repr=False)
    redundancy: RedundancySpec
    padding: PaddingSet | None = None
    ring: InitVar[_KeyRoots | None] = None

    def __post_init__(self, ring):
        ring = ring or _KeyRoots(self.p, self.q)
        if (ring.p, ring.q) != (self.p, self.q):
            raise ValueError("ring is not the ring of p and q")
        object.__setattr__(self, "idem", ring)
        object.__setattr__(self, "n", ring.n)

    @property
    def psi1(self) -> int:
        return self.idem.psi1

    @property
    def psi2(self) -> int:
        return self.idem.psi2

    def public(self) -> PublicKey:
        padding = None
        if self.padding is not None:
            padding = PaddingSet(self.padding.elements)  # classes stay private
        return PublicKey(self.kind, self.n, self.redundancy, padding)

    @classmethod
    def from_primes(cls, kind, p, q, redundancy=IDENTITY, padding=None) -> "KeyPair":
        """A key on primes of unknown origin, certified here.

        A ProvenPrime is certified by numtheory._proven on its chain alone, and
        any other int by is_probable_prime.  Raises ValueError unless p and q have
        at most MAX_PRIME_BITS bits, and MAX_UNPROVEN_BITS without a chain, pass and
        meet the kind's congruences, and unless a padding set is on a general key
        and passes padding_set_flaws.  A padding set without roots, as key
        files of earlier versions hold it, gets them here, one root over its
        class per element and prime.  The classes of every set are then
        certified in one way, by squaring each element's root (one product mod
        each prime, or two for a non-residue), which also refuses a root that
        is no root of its element over a class.  The key's set carries its
        roots and certified classes.  The key is built on the ring that does
        this, so it keeps the root constants built here, each prime's
        non-residue z too.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown key kind {kind!r}")
        if p == q:
            raise ValueError("prime factors must be distinct")
        if p < 3 or q < 3 or p % 2 == 0 or q % 2 == 0:
            raise ValueError("prime factors must be odd and at least 3")
        if max(p, q).bit_length() > MAX_PRIME_BITS:
            raise ValueError(f"prime factors have at most {MAX_PRIME_BITS} bits")
        if any(getattr(prime, "chain", None) is None and prime.bit_length() > MAX_UNPROVEN_BITS for prime in (p, q)):
            raise ValueError(f"a factor above {MAX_UNPROVEN_BITS} bits needs a proof of primality")
        for prime in (p, q):
            if (chain := getattr(prime, "chain", None)) is not None:
                if not all(isinstance(s, tuple) and len(s) == 2 for s in chain):
                    raise ValueError(f"a factor's proof of primality does not check as {_PROOF_FORM}")
                if not numtheory._proven(prime, chain):
                    raise ValueError("a factor's proof of primality does not prove the factor prime")
            # looked up on the module, so a substitute for the prime test reaches this call
            elif not numtheory.is_probable_prime(prime):
                raise ValueError("factor failed the primality test")
        if not _fits_kind(p, q, kind):
            raise ValueError(f"{kind} keys need {_KIND_CLASSES[kind][3]}")
        if padding is not None and kind != "general":
            raise ValueError("only general keys carry a padding set")
        ring = _KeyRoots(p, q)  # its z are found only now, as a least non-residue search needs a prime
        if padding is not None:  # the classes are certified here, never taken on trust
            roots = padding.roots
            if roots is None:
                roots = tuple(crt_combine(ring.at_p.root_over_class(u), ring.at_q.root_over_class(u), ring)
                              for u in padding.elements)
            classes = _root_classes(padding.elements, roots, ring.at_p, ring.at_q)
            flaws = _padding_flaws(padding.elements, classes, p * q)
            if flaws:
                raise ValueError(f"unsafe padding set: {flaws[0]}")
            padding = PaddingSet(padding.elements, classes, roots)
        return cls(kind, p, q, redundancy, padding, ring)


def _root_classes(elements, roots, at_p: _PrimeRoots, at_q: _PrimeRoots) -> tuple[tuple[int, int], ...]:
    """((u/p), (u/q)) per element u, read off its root w by squaring.

    w**2 = u mod a prime shows u a residue, and w**2 * z = u, z the prime's
    non-residue, shows it a non-residue.  A non-unit gets the class (0, 0),
    whatever its root, so that _padding_flaws names it as a Jacobi symbol
    would.  Raises ValueError for any other root that shows neither, and for
    a count of roots other than the elements'.
    """
    if len(roots) != len(elements):
        raise ValueError(f"a padding set has a root per element, not {len(roots)} roots for {len(elements)}")

    def symbol(i: int, at: _PrimeRoots) -> int:
        prime = at.p
        u, square = elements[i] % prime, roots[i] * roots[i] % prime
        if square == u:
            return 1
        if square * at.z % prime == u:
            return -1
        # the root is as secret as p, so the message names only its place
        raise ValueError(f"the root of padding element {i + 1} is no root of it over a Jacobi class")

    p, q = at_p.p, at_q.p
    return tuple((symbol(i, at_p), symbol(i, at_q)) if u % p and u % q else (0, 0) for i, u in enumerate(elements))


def gen_keypair(kind: str, bits: int, redundancy=IDENTITY, rng=None) -> KeyPair:
    """Generate a key pair of the requested kind with `bits`-bit prime factors.

    The primes come straight from gen_prime, so the key is built without the
    re-certification that KeyPair.from_primes gives untrusted primes, and
    they keep their proofs for its key file.  A general key is built on the
    ring that gave its padding roots, and keeps the constants they built.
    Raises ValueError for more than MAX_PRIME_BITS bits.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown key kind {kind!r}")
    if bits > MAX_PRIME_BITS:
        raise ValueError(f"at most {MAX_PRIME_BITS} bits per prime factor")
    rng = rng or SYSTEM_RNG
    p_constraint, q_constraint = _KIND_CONSTRAINTS[kind]
    p = gen_prime(bits, p_constraint, rng)
    q = gen_prime(bits, q_constraint, rng)
    while q == p:
        q = gen_prime(bits, q_constraint, rng)
    if kind != "general":
        return KeyPair(kind, p, q, redundancy)
    ring = crt_idempotents(p, q)
    return KeyPair(kind, p, q, redundancy, build_padding_set(p, q, ring.psi1, ring.psi2, rng, ring), ring)


# ---------------------------------------------------------------------------
# Key and signature files share one record format: a magic line, then one
# "name = value" line per field, every integer in canonical decimal.  _Record
# reads no other form, so each value has one encoding; only the final line
# break may be left out.  A name has _FIELD_NAME's form, which holds no run
# of digits, so an error may name a field, but it names any other line only
# by its number, since such a line may hold a secret anywhere.  A private
# key file may add p_proof and q_proof, each chain's steps in decimal
# separated by single spaces, f1 b1 f2 b2 ...; a prime below 2**64 has none.
# A private general key file may add u1_root .. u4_root, all four or none:
# each padding element's root over its class.
# Files of earlier versions may also hold, per prime, a root constant
# (_prime_constants): p_zpow and q_zpow, and p_half_root and q_half_root.
# They load when each equals what the key's ring computes, and are not
# written back.

KEY_MAGIC = "rabin-key v1"

_PROOF_FORM = "pairs 'f1 b1 f2 b2 ...' of a factor and its witness"
_FIELD_NAME = re.compile(r"[A-Za-z]+[0-9]?(?:[_-][a-z]+)*")
_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_DECIMALS = re.compile(rf"(?:{_DECIMAL.pattern})(?: (?:{_DECIMAL.pattern}))*")


def _prime_constants(kind: str, prime: int) -> tuple[str, ...]:
    """The _PrimeRoots constants a private key file of an earlier version may hold for a prime of a `kind` key.

    zpow for a prime that is 1 mod 4, whose z is no -1, and half_root on an
    rw key.
    """
    return ("zpow",) * (prime % 4 == 1) + ("half_root",) * (kind == "rw")


def _public_fields(pub: PublicKey | KeyPair) -> dict:
    fields = {"kind": pub.kind, "hash": pub.redundancy.token, "N": pub.n}
    if pub.padding is not None:
        fields.update((f"u{i}", u) for i, u in enumerate(pub.padding.elements, start=1))
    return fields


def dump_public(pub: PublicKey | KeyPair) -> str:
    return _dump_record(KEY_MAGIC, _public_fields(pub))


def dump_private(key: KeyPair) -> str:
    """The private key file, with psi1, psi2 and the padding set's roots, if it has them."""
    ring = key.idem
    fields = _public_fields(key) | {"p": key.p, "q": key.q, "psi1": ring.psi1, "psi2": ring.psi2}
    if key.padding is not None and key.padding.roots is not None:  # each the least of its lifts: one file per key
        fields.update((f"u{i}_root", min(_four_lifts(w, ring))) for i, w in enumerate(key.padding.roots, start=1))
    for name, prime in (("p_proof", key.p), ("q_proof", key.q)):
        if chain := getattr(prime, "chain", ()):
            fields[name] = " ".join(str(x) for step in chain for x in step)
    return _dump_record(KEY_MAGIC, fields)


def _dump_record(magic: str, fields: dict) -> str:
    """The record of `fields`: the magic line, then one "name = value" line per field."""
    return "".join([f"{magic}\n", *(f"{name} = {value}\n" for name, value in fields.items())])


class _Record(dict):
    """A record's fields by name, each taken out once by its reader; done() refuses the rest."""

    def __init__(self, text: str, magic: str, error: type, path_hint: str):
        self.error, self.path_hint = error, path_hint
        lines = text.removesuffix("\n").split("\n")
        if lines[0] != magic:
            raise error(f"{path_hint} does not start with {magic!r}")
        for number, line in enumerate(lines[1:], start=2):
            name, sep, value = line.partition(" = ")
            if not (sep and _FIELD_NAME.fullmatch(name)):
                raise error(f"malformed line {number} in {path_hint}")
            if name in self:
                raise error(f"duplicate field {name!r} in {path_hint}")
            self[name] = value

    def integer(self, name: str) -> int:
        """Take a field that must hold ASCII digits with no leading zero, or `0`."""
        if name not in self:
            raise self.error(f"missing field {name!r} in {self.path_hint}")
        return self._decimals(name, _DECIMAL, "a canonical decimal integer")[0]

    def proven(self, prime: int, name: str) -> int:
        """Take the optional proof `name` of prime, in canonical decimals f1 b1 f2 b2 ..., as a ProvenPrime."""
        if name not in self:
            return prime
        values = self._decimals(name, _DECIMALS, "canonical decimals separated by single spaces")
        if len(values) % 2:
            raise self.error(f"field {name!r} is not {_PROOF_FORM} in {self.path_hint}")
        return ProvenPrime(prime, tuple(zip(values[::2], values[1::2])))

    def _decimals(self, name: str, form: re.Pattern, in_words: str) -> list[int]:
        raw = self.pop(name)
        if not form.fullmatch(raw):
            raise self.error(f"field {name!r} is not {in_words} in {self.path_hint}")
        try:
            return [int(part) for part in raw.split(" ")]
        except ValueError:  # more digits than int() converts
            raise self.error(f"field {name!r} is too long in {self.path_hint}") from None

    def done(self):
        """Refuse the fields that no reader took."""
        if self:
            raise self.error(f"unexpected fields {sorted(self)} in {self.path_hint}")


def parse_key(text: str, path_hint: str = "key file") -> KeyPair | PublicKey:
    """Parse a public or private key file.

    Private files carry p, q, psi1, psi2 and may carry p_proof and q_proof,
    which KeyPair.from_primes checks in place of the 40-round test, and a
    general key's u1_root .. u4_root, by which it certifies the padding
    classes in place of Jacobi symbols.  Each root must be the least of its
    four lifts mod N, so that a key has one file.  Each of a prime's
    _prime_constants, as earlier versions wrote them, may be there too, and
    must equal the value the key's ring computes.  The key's ring takes psi1
    and psi2; an error names its field, never its value.  An N above
    2*MAX_PRIME_BITS bits is refused before any arithmetic on it.  A public
    file's padding set gets the checks that need no factor of N: each
    element is a unit below N and no square root of unity, and no
    difference shares a factor with N.  A private file's gets every check,
    in from_primes.
    """
    record = _Record(text, KEY_MAGIC, KeyFormatError, path_hint)
    kind = record.pop("kind", None)
    if kind not in KINDS:
        raise KeyFormatError(f"unknown or missing kind in {path_hint}")
    token = record.pop("hash", "")
    try:
        redundancy = RedundancySpec.from_token(token)
    except ValueError:  # the token may hold a secret moved into its line: the message names the field only
        raise KeyFormatError(f"bad hash field in {path_hint}") from None
    if token != redundancy.token:  # one encoding per key file: no 'digest' shorthand
        raise KeyFormatError(f"hash field is not the one token {redundancy.token!r} in {path_hint}")
    n = record.integer("N")
    if n.bit_length() > 2 * MAX_PRIME_BITS:  # before any arithmetic on n
        raise KeyFormatError(f"N has more than {2 * MAX_PRIME_BITS} bits in {path_hint}")
    if n <= 1 or n % 2 == 0 or math.isqrt(n) ** 2 == n:
        raise KeyFormatError(f"N is not an odd non-square above 1 in {path_hint}")
    m, _, n_class, _ = _KIND_CLASSES[kind]
    if n % m != n_class:
        raise KeyFormatError(f"N is not {n_class} mod {m}, as a {kind} key's is, in {path_hint}")

    padding = None
    if kind == "general" and any(f"u{i}" in record for i in range(1, 5)):  # all four or none
        padding = PaddingSet(tuple(record.integer(f"u{i}") for i in range(1, 5)))

    if "p" not in record:
        record.done()
        if padding is not None and (flaws := _padding_flaws(padding.elements, None, n)):
            raise KeyFormatError(f"invalid key material in {path_hint}: unsafe padding set: {flaws[0]}")
        return PublicKey(kind, n, redundancy, padding)

    p, q, psi1, psi2 = (record.integer(name) for name in ("p", "q", "psi1", "psi2"))
    p, q = record.proven(p, "p_proof"), record.proven(q, "q_proof")
    if padding is not None and any(f"u{i}_root" in record for i in range(1, 5)):  # all four or none
        padding = PaddingSet(padding.elements, roots=tuple(record.integer(f"u{i}_root") for i in range(1, 5)))
    constants = {(i, c): record.integer(f"{name}_{c}") for i, (name, prime) in enumerate((("p", p), ("q", q)))
                 for c in _prime_constants(kind, prime) if f"{name}_{c}" in record}
    record.done()
    if p * q != n:
        raise KeyFormatError(f"N does not equal p*q in {path_hint}")
    try:  # from_primes also runs the padding set's safety checks
        key = KeyPair.from_primes(kind, p, q, redundancy, padding)
    except ValueError as exc:
        raise KeyFormatError(f"invalid key material in {path_hint}: {exc}") from None
    ring = key.idem
    if not ring.know_idempotents(psi1, psi2):  # by their definition, with no inverse
        raise KeyFormatError(f"idempotents do not match the prime factors in {path_hint}")
    if padding is not None and padding.roots is not None:
        for i, w in enumerate(padding.roots, start=1):
            if w != min(_four_lifts(w, ring)):
                raise KeyFormatError(f"root of padding element {i} is not the least of its four lifts in {path_hint}")
    for (i, c), value in constants.items():
        if getattr((ring.at_p, ring.at_q)[i], c) != value:  # each reveals p: the message names only its field
            raise KeyFormatError(f"field '{'pq'[i]}_{c}' fails its check in {path_hint}")
    return key
