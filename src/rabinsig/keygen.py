"""Key generation for the signature schemes, plus the text key-file format.

Key kinds:
  general  -- any pair of distinct odd primes; carries a four-element
              padding set covering all Jacobi classes
  blum     -- both primes congruent to 3 mod 4
  rw       -- one prime congruent to 3 and the other to 7 mod 8
"""

import functools
import math
import re
from dataclasses import dataclass
from itertools import compress

from . import numtheory
from .errors import KeyFormatError
from .hashing import IDENTITY, RedundancySpec
from .numtheory import (
    MILLER_RABIN_ROUNDS,
    SYSTEM_RNG,
    Idempotents,
    _KeyRoots,
    _miller_rabin,
    _sieve_primes,
    crt_idempotents,
    crt_padding,
    jacobi,
    random_unit,
)

KINDS = ("general", "blum", "rw")

_CONSTRAINTS = {
    "none": (1, 2),
    "3mod4": (3, 4),
    "3mod8": (3, 8),
    "7mod8": (7, 8),
}

# Congruence constraints of the two primes of each key kind.
_KIND_CONSTRAINTS = {"general": ("none", "none"), "blum": ("3mod4", "3mod4"), "rw": ("3mod8", "7mod8")}

# Padding multipliers a, b only matter through their residue classes, so
# small values are enough and keep generation cheap.
_MULTIPLIER_BOUND = 1 << 16

# gen_prime strikes multiples of these odd primes from each window of
# candidates, leaving about 12% of the odd numbers for Miller-Rabin.
_SIEVE_PRIMES = _sieve_primes(1 << 14)[1:]

# Chance, as a power of 2, that gen_prime returns a composite.
_SEARCH_ERROR_BITS = 80


def _search_rounds(bits: int, window: int) -> int:
    """Miller-Rabin rounds for a search over `window` candidates of `bits` bits.

    Damgård, Landrock and Pomerance (Math. Comp. 61, 1993, 177-194; the
    bound behind HAC Table 4.4, section 4.4.1) show that a random odd k-bit
    number that passes t rounds is composite with probability below
    k**1.5 * 2**t * t**-0.5 * 4**(2 - sqrt(t*k)) for 3 <= t <= k/9.  For
    2**-80 that is 6 rounds at 512 bits.  gen_prime does not test independent
    random odd numbers, and a margin covers the differences:
      - each candidate is uniform on one residue class mod 2, 4 or 8, which
        holds at least a quarter of the odd numbers, so its chance of being a
        composite that passes is at most 4 times the bound;
      - it tests up to `window` candidates per random start (incremental
        search, analysed by Brandt and Damgård, CRYPTO '92), and the union
        bound over them costs a factor of `window`;
      - a window of 2*k candidates holds a prime except with probability
        about e**-5.8 (prime number theorem), so redrawing adds under 1%;
      - sieving only removes composites, so it costs nothing.
    With 2*k candidates per window the margin is 12 bits at 512 bits, and
    the bound gives 7 rounds.  Below 189 bits the bound never reaches
    the target and the worst-case MILLER_RABIN_ROUNDS are used instead.
    """
    target = -_SEARCH_ERROR_BITS - math.log2(4 * window)
    for t in range(3, bits // 9 + 1):
        if 1.5 * math.log2(bits) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * bits)) <= target:
            return t
    return MILLER_RABIN_ROUNDS


def gen_prime(bits: int, constraint: str = "none", rng=None) -> int:
    """A random probable prime of exactly `bits` bits meeting the congruence constraint.

    Incremental search with a sieve (HAC section 4.4.1): a random start in
    the residue class, then the next 2*bits members of the class, of which
    those with an odd prime factor below 2**14 are struck out and the rest
    tested in order with the rounds of `_search_rounds`.
    """
    if bits < 8:
        raise ValueError("need at least 8 bits per prime factor")
    residue, step = _CONSTRAINTS[constraint]
    rng = rng or SYSTEM_RNG
    window = 2 * bits
    rounds = _search_rounds(bits, window)
    low = 1 << (bits - 1)
    while True:
        start = low | rng.getrandbits(bits - 1)
        start += (residue - start) % step
        count = min(window, ((low << 1) - 1 - start) // step + 1)
        if count <= 0:
            continue
        alive = bytearray([1]) * count
        for s in _SIEVE_PRIMES:
            if s >= low:
                break  # every candidate exceeds s, so a struck multiple is never s itself
            i = -(start % s) * pow(step, -1, s) % s
            if i < count:
                alive[i::s] = bytes((count - 1 - i) // s + 1)
        for i in compress(range(count), alive):
            cand = start + step * i
            if _miller_rabin(cand, rounds, rng):
                return cand


@dataclass(frozen=True)
class PaddingSet:
    """Four public multipliers covering the four Jacobi classes.

    `classes` lists ((u/p), (u/q)) per element and is only populated on the
    private side, where KeyPair.from_primes computes it; the published form
    is the bare elements in a randomised order.
    """

    elements: tuple[int, int, int, int]
    classes: tuple[tuple[int, int], ...] | None = None


def padding_set_flaws(elements, p: int, q: int) -> list[str]:
    """Safety checks a padding set must pass before publication.

    Returns human-readable descriptions of every violated condition:
    elements must be units, must not be square roots of unity, must cover
    all four Jacobi classes, and no pairwise difference may share a factor
    with the modulus.
    """
    return _padding_flaws(elements, [(jacobi(u, p), jacobi(u, q)) for u in elements], p * q)


def _padding_flaws(elements, classes, n: int) -> list[str]:
    # padding_set_flaws for elements whose classes ((u/p), (u/q)) are known;
    # a class with a 0 in it belongs to a non-unit.
    if len(elements) != 4:
        return [f"a padding set has four elements, not {len(elements)}"]
    flaws = []
    for u in elements:
        if math.gcd(u, n) != 1:
            flaws.append(f"element {u} is not a unit")
        elif u * u % n == 1:
            flaws.append(f"element {u} is a square root of unity")
    if len({c for c in classes if 0 not in c}) != 4:
        flaws.append("elements do not cover all four Jacobi classes")
    for i in range(4):
        for j in range(i + 1, 4):
            if math.gcd(elements[i] - elements[j], n) != 1:
                flaws.append(f"difference of elements {i} and {j} shares a factor with the modulus")
    return flaws


def _sample_with_jacobi(p: int, target: int, rng) -> int:
    while True:
        a = rng.randrange(2, _MULTIPLIER_BOUND)
        if jacobi(a, p) == target:
            return a


def compose_padding_set(a1, a2, b1, b2, rs, p, q, psi1, psi2):
    """Form the four products r**2 * (a*psi1 + b*psi2) with their class labels."""
    idem = Idempotents(psi1, psi2)
    elements, classes = [], []
    for (a, b), r in zip(((a1, b1), (a1, b2), (a2, b1), (a2, b2)), rs):
        u = crt_padding(a, b, r, p, q, idem)
        elements.append(u)
        classes.append((jacobi(u, p), jacobi(u, q)))
    return tuple(elements), tuple(classes)


def build_padding_set(p: int, q: int, psi1: int, psi2: int, rng=None) -> PaddingSet:
    """Build a safe padding set by rejection sampling.

    Draws class representatives a1, a2 (residue / non-residue mod p) and
    b1, b2 (mod q), then four distinct random units r_i; the r_i are
    re-drawn until every safety check passes, with fresh multipliers after
    64 failed rounds.
    """
    rng = rng or SYSTEM_RNG
    n = p * q
    for _ in range(64):
        a1 = _sample_with_jacobi(p, 1, rng)
        a2 = _sample_with_jacobi(p, -1, rng)
        b1 = _sample_with_jacobi(q, 1, rng)
        b2 = _sample_with_jacobi(q, -1, rng)
        for _ in range(64):
            rs: list[int] = []
            while len(rs) < 4:
                r = random_unit(n, rng)
                if r not in rs:
                    rs.append(r)
            elements, classes = compose_padding_set(a1, a2, b1, b2, rs, p, q, psi1, psi2)
            if not _padding_flaws(elements, classes, n):
                order = list(range(4))
                rng.shuffle(order)  # publication order must not hint at the classes
                return PaddingSet(
                    tuple(elements[i] for i in order),
                    tuple(classes[i] for i in order),
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
    kind: str
    p: int
    q: int
    n: int
    psi1: int
    psi2: int
    redundancy: RedundancySpec
    padding: PaddingSet | None = None

    @functools.cached_property
    def idem(self) -> _KeyRoots:
        """psi1 and psi2 with the root constants of p and q, built on first use.

        Not a field, so it stays out of ==, hash, repr, key files and public().
        """
        return _KeyRoots(self.p, self.q, Idempotents(self.psi1, self.psi2))

    @property
    def is_blum(self) -> bool:
        return self.p % 4 == 3 and self.q % 4 == 3

    @property
    def is_rw(self) -> bool:
        return {self.p % 8, self.q % 8} == {3, 7}

    def public(self) -> PublicKey:
        padding = None
        if self.padding is not None:
            padding = PaddingSet(self.padding.elements)  # classes stay private
        return PublicKey(self.kind, self.n, self.redundancy, padding)

    @classmethod
    def from_primes(cls, kind, p, q, redundancy=IDENTITY, padding=None, rng=None) -> "KeyPair":
        """A key on primes of unknown origin, certified here.

        Raises ValueError unless p and q pass the primality test and the kind's
        congruences, and unless a padding set passes padding_set_flaws.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown key kind {kind!r}")
        if p == q:
            raise ValueError("prime factors must be distinct")
        if p < 3 or q < 3 or p % 2 == 0 or q % 2 == 0:
            raise ValueError("prime factors must be odd and at least 3")
        # looked up on the module, so a substitute for the prime test reaches this call
        if not numtheory.is_probable_prime(p, rng) or not numtheory.is_probable_prime(q, rng):
            raise ValueError("factor failed the primality test")
        if kind == "blum" and (p % 4 != 3 or q % 4 != 3):
            raise ValueError("blum keys need both primes congruent to 3 mod 4")
        if kind == "rw" and {p % 8, q % 8} != {3, 7}:
            raise ValueError("rw keys need primes congruent to 3 and 7 mod 8")
        idem = crt_idempotents(p, q)
        if padding is not None:  # the classes are computed here, never taken on trust
            classes = tuple((jacobi(u, p), jacobi(u, q)) for u in padding.elements)
            flaws = _padding_flaws(padding.elements, classes, p * q)
            if flaws:
                raise ValueError(f"unsafe padding set: {flaws[0]}")
            padding = PaddingSet(padding.elements, classes)
        return cls(kind, p, q, p * q, idem.psi1, idem.psi2, redundancy, padding)


def gen_keypair(kind: str, bits: int, redundancy=IDENTITY, rng=None) -> KeyPair:
    """Generate a key pair of the requested kind with `bits`-bit prime factors.

    The primes come straight from gen_prime, so the key is built without the
    re-certification that KeyPair.from_primes gives untrusted primes.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown key kind {kind!r}")
    rng = rng or SYSTEM_RNG
    p_constraint, q_constraint = _KIND_CONSTRAINTS[kind]
    p = gen_prime(bits, p_constraint, rng)
    q = gen_prime(bits, q_constraint, rng)
    while q == p:
        q = gen_prime(bits, q_constraint, rng)
    idem = crt_idempotents(p, q)
    padding = None
    if kind == "general":
        padding = build_padding_set(p, q, idem.psi1, idem.psi2, rng)
    return KeyPair(kind, p, q, p * q, idem.psi1, idem.psi2, redundancy, padding)


# ---------------------------------------------------------------------------
# Key file format: line-oriented text, "name = decimal-value" per line.

KEY_MAGIC = "rabin-key v1"


def dump_public(pub: PublicKey | KeyPair) -> str:
    lines = [KEY_MAGIC, f"kind = {pub.kind}", f"hash = {pub.redundancy.token}", f"N = {pub.n}"]
    if pub.padding is not None:
        for i, u in enumerate(pub.padding.elements, start=1):
            lines.append(f"u{i} = {u}")
    return "\n".join(lines) + "\n"


def dump_private(key: KeyPair) -> str:
    lines = dump_public(key).splitlines()
    lines += [f"p = {key.p}", f"q = {key.q}", f"psi1 = {key.psi1}", f"psi2 = {key.psi2}"]
    return "\n".join(lines) + "\n"


# Both text formats, keys and signatures: a magic line, then "name = value"
# lines, every integer in canonical decimal so each file has one encoding.
_DECIMAL = re.compile(r"0|[1-9][0-9]*")


def _parse_record(text: str, magic: str, error: type, path_hint: str) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0] != magic:
        raise error(f"{path_hint} does not start with {magic!r}")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise error(f"malformed line {line!r} in {path_hint}")
        name, value = name.strip(), value.strip()
        if name in fields:
            raise error(f"duplicate field {name!r} in {path_hint}")
        fields[name] = value
    return fields


def _int_field(fields: dict[str, str], name: str, error: type, path_hint: str) -> int:
    """Pop a field that must hold ASCII digits with no leading zero, or `0`."""
    try:
        raw = fields.pop(name)
    except KeyError:
        raise error(f"missing field {name!r} in {path_hint}") from None
    if not _DECIMAL.fullmatch(raw):
        raise error(f"field {name!r} is not a canonical decimal integer in {path_hint}")
    try:
        return int(raw)
    except ValueError:  # more digits than int() converts
        raise error(f"field {name!r} is too long in {path_hint}") from None


def parse_key(text: str, path_hint: str = "key file") -> KeyPair | PublicKey:
    """Parse a public or private key file; private files carry p, q, psi1, psi2."""
    fields = _parse_record(text, KEY_MAGIC, KeyFormatError, path_hint)
    kind = fields.pop("kind", None)
    if kind not in KINDS:
        raise KeyFormatError(f"unknown or missing kind in {path_hint}")
    try:
        redundancy = RedundancySpec.from_token(fields.pop("hash", ""))
    except ValueError as exc:
        raise KeyFormatError(f"bad hash field in {path_hint}: {exc}") from None
    n = _int_field(fields, "N", KeyFormatError, path_hint)
    if n <= 1 or n % 2 == 0 or math.isqrt(n) ** 2 == n:
        raise KeyFormatError(f"N is not an odd non-square above 1 in {path_hint}")

    padding = None
    if kind == "general":
        elements = tuple(_int_field(fields, f"u{i}", KeyFormatError, path_hint) for i in range(1, 5))
        if len(set(elements)) != 4 or any(u >= n or math.gcd(u, n) != 1 for u in elements):
            raise KeyFormatError(f"padding elements are not four distinct units below N in {path_hint}")
        padding = PaddingSet(elements)

    if "p" not in fields:
        if fields:
            raise KeyFormatError(f"unexpected fields {sorted(fields)} in {path_hint}")
        return PublicKey(kind, n, redundancy, padding)

    p, q, psi1, psi2 = (_int_field(fields, name, KeyFormatError, path_hint)
                        for name in ("p", "q", "psi1", "psi2"))
    if fields:
        raise KeyFormatError(f"unexpected fields {sorted(fields)} in {path_hint}")
    if p * q != n:
        raise KeyFormatError(f"N does not equal p*q in {path_hint}")
    try:  # from_primes also runs the padding set's safety checks
        key = KeyPair.from_primes(kind, p, q, redundancy, padding)
    except ValueError as exc:
        raise KeyFormatError(f"invalid key material in {path_hint}: {exc}") from None
    if (key.psi1, key.psi2) != (psi1, psi2):
        raise KeyFormatError(f"idempotents do not match the prime factors in {path_hint}")
    return key
