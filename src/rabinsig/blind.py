"""Blind signing on top of the hidden-padding triple scheme.

The hardened protocol never releases a bare square root of the disguised
message: the signer multiplies it into F = R*S with a nonce R of its own
and publishes R**3 alongside.  A deliberately naive signer that returns a
bare random root is also provided as the target of the blinding attack.
"""

import math
from dataclasses import dataclass, field

from .errors import FactorLeakError, UnsignableMessageError
from .hashing import Message, apply_redundancy
from .keygen import KeyPair, PublicKey
from .numtheory import SYSTEM_RNG, canonical_sqrt_mod_pq, jacobi, mod_inv, random_unit, sqrt_mod_pq
from .schemes import SCHEMES, Variant2Signature, VerifyReport, _class_padding, _OpCounter, _power_chain_check


@dataclass(frozen=True)
class BlindSignature:
    """Signer's answer to a disguised message: [disguised, F, R**3]."""

    disguised: int
    F: int
    R3: int


@dataclass
class BlindSession:
    """One full author/signer exchange, kept for demos and inspection.

    The transcript records the exchanged values in protocol order:
    disguise, then blind-sign, then unblind.
    """

    m: Message
    r: int
    signer_R: int
    disguised: int
    blind_sig: BlindSignature
    published: Variant2Signature
    transcript: list[tuple[str, dict]] = field(default_factory=list)


def disguise(m: Message, r: int, pub: PublicKey | KeyPair) -> int:
    """Author step: submit r**2 * H(m) instead of the message itself."""
    if math.gcd(r, pub.n) != 1:
        raise FactorLeakError("blinding factor is not invertible")
    h = apply_redundancy(pub.redundancy, m, pub.n)
    if h == 0 or math.gcd(h, pub.n) != 1:
        raise UnsignableMessageError("message redundancy value is zero or not a unit")
    return r * r * h % pub.n


def blind_sign(key: KeyPair, disguised: int, rng=None) -> BlindSignature:
    """Signer step: pick a secret nonce R and answer [disguised, R*S, R**3].

    S is the canonical root of disguised*u, where the unity-root padding u
    is computed from the Jacobi class of the disguised value; since the
    blinding square cannot change that class, u equals the padding of the
    underlying message.
    """
    SCHEMES["variant2"].check_key(key)
    if disguised % key.n == 0 or math.gcd(disguised, key.n) != 1:
        raise FactorLeakError("disguised value is degenerate")
    root = _recover_root(key, disguised)
    nonce = random_unit(key.n, rng)
    return BlindSignature(disguised, nonce * root % key.n, pow(nonce, 3, key.n))


def unblind(bsig: BlindSignature, r: int, m: Message, pub: PublicKey | KeyPair) -> Variant2Signature:
    """Author step: divide out the blinding factor, publishing [m, F/r**2, R**3/r**3]."""
    rinv = mod_inv(r, pub.n)
    f_pub = bsig.F * rinv % pub.n * rinv % pub.n
    r3_pub = bsig.R3 * pow(rinv, 3, pub.n) % pub.n
    return Variant2Signature(m, f_pub, r3_pub)


def verify_blind_signature(bsig: BlindSignature, n: int) -> VerifyReport:
    """Check F**12 == R3**4 * disguised**6; same cost as the triple scheme.

    As every verifier does, rejects an F or R3 that is 0 mod n.
    """
    if not (bsig.F % n and bsig.R3 % n):
        return VerifyReport(False, "zero component")
    ops = _OpCounter()
    if not _power_chain_check(bsig.F, bsig.R3, bsig.disguised % n, n, ops):
        return VerifyReport(False, "verification equation", ops.counts)
    return VerifyReport(True, None, ops.counts)


def naive_blind_sign(key: KeyPair, disguised: int, rng=None) -> int:
    """A broken signer that returns a bare, uniformly random root.

    Only accepts residues (blinded squares always are).  Handing out
    uniformly random roots is exactly what the blinding attack needs.
    """
    roots = sqrt_mod_pq(disguised, key.p, key.q, key.idem)
    return (rng or SYSTEM_RNG).choice(roots).value


def run_blind_session(key: KeyPair, m: Message, rng=None, r: int | None = None) -> BlindSession:
    """Drive one complete disguise / blind-sign / unblind exchange."""
    rng = rng or SYSTEM_RNG
    pub = key.public()
    if r is None:
        r = random_unit(key.n, rng)
    disguised = disguise(m, r, pub)
    transcript = [("disguise", {"disguised": disguised})]
    bsig = blind_sign(key, disguised, rng)
    transcript.append(("blind-sign", {"F": bsig.F, "R3": bsig.R3}))
    published = unblind(bsig, r, m, pub)
    transcript.append(("unblind", {"F": published.F, "R3": published.R3}))
    # the signer's nonce is recoverable here only because we play both roles
    signer_r = bsig.F * mod_inv(_recover_root(key, disguised), key.n) % key.n
    return BlindSession(m, r, signer_r, disguised, bsig, published, transcript)


# The blind signer still finds the class with Jacobi symbols and takes the
# root with canonical_sqrt_mod_pq, twice per session (ROADMAP item 1): the
# benchmark pins those two canonical roots per session, so this path changes
# together with the benchmark, when signer_R goes.
def _deterministic_padding(key: KeyPair, h: int, r: int) -> int:
    """The signers' padding r**2 * (f1*psi1 + f2*psi2), from the Jacobi symbols of h."""
    return _class_padding(key, jacobi(h, key.p), jacobi(h, key.q), r)


def _recover_root(key: KeyPair, disguised: int) -> int:
    """The signer's root S: the canonical root of disguised times its unity-root padding."""
    padding = _deterministic_padding(key, disguised, 1)
    return canonical_sqrt_mod_pq(disguised * padding % key.n, key.p, key.q, key.idem)
