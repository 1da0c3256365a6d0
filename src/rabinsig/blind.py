"""Blind signing on top of the hidden-padding triple scheme.

The hardened protocol never releases a bare square root of the disguised
message: the signer multiplies it into F = R*S with a nonce R of its own
and publishes R**3 alongside.  A deliberately naive signer that returns a
bare random root is also provided as the target of the blinding attack.
"""

import math
from dataclasses import dataclass, field

from .errors import FactorLeakError, UnsignableMessageError
from .hashing import Message
from .keygen import KeyPair, PublicKey
from .numtheory import SYSTEM_RNG, canonical_sqrt_mod_pq, jacobi, mod_inv, random_unit, sqrt_mod_pq
from .schemes import (SCHEMES, _OUT_OF_RANGE, Variant2Signature, VerifyReport, _class_padding, _hash_for_signing,
                      _hidden_root, _in_range, _OpCounter, _power_chain_check)


@dataclass(frozen=True)
class BlindSignature:
    """Signer's answer to a disguised message: [disguised, F, R**3]."""

    disguised: int
    F: int
    R3: int


@dataclass
class BlindSession:
    """One full author/signer exchange, kept for demos and inspection; its secrets r and signer_R stay out of repr."""

    m: Message
    r: int = field(repr=False)
    signer_R: int = field(repr=False)
    disguised: int
    blind_sig: BlindSignature
    published: Variant2Signature


def disguise(m: Message, r: int, pub: PublicKey | KeyPair) -> int:
    """Author step: submit r**2 * H(m), with H(m) taken, or refused, as the signers take it."""
    if math.gcd(r, pub.n) != 1:
        raise FactorLeakError("blinding factor is not invertible")
    return r * r * _hash_for_signing(pub, m) % pub.n


def blind_sign(key: KeyPair, disguised: int, rng=None) -> BlindSignature:
    """Signer step: answer [disguised, R*S, R**3] for a secret nonce R, as variant2 answers (schemes._hidden_root).

    S is the canonical root of disguised*u, where the unity-root padding u
    is computed from the Jacobi class of the disguised value; since the
    blinding square cannot change that class, u equals the padding of the
    underlying message.  Like every signer, it checks its answer before
    returning it, by the blind verifier's equation (schemes._released).
    """
    SCHEMES["variant2"].check_key(key)
    if math.gcd(disguised, key.n) != 1:
        raise FactorLeakError("disguised value is degenerate")
    if not _in_range(key.n, disguised):  # the answer echoes it, and the blind verifier refuses it
        raise UnsignableMessageError("disguised value is not below N")
    return BlindSignature(disguised, *_hidden_root(_recover_root(key, disguised), disguised, key.n, rng))


def unblind(bsig: BlindSignature, r: int, m: Message, pub: PublicKey | KeyPair) -> Variant2Signature:
    """Author step: divide out the blinding factor, publishing [m, F/r**2, R**3/r**3]."""
    rinv = mod_inv(r, pub.n)
    f_pub = bsig.F * rinv % pub.n * rinv % pub.n
    r3_pub = bsig.R3 * pow(rinv, 3, pub.n) % pub.n
    return Variant2Signature(m, f_pub, r3_pub)


def verify_blind_signature(bsig: BlindSignature, n: int) -> VerifyReport:
    """Check F**12 == R3**4 * disguised**6; same cost as the triple scheme.

    As every verifier does, first rejects a value outside 0 < x < n: F, R3 or the disguised value.
    """
    if not _in_range(n, bsig.F, bsig.R3, bsig.disguised):
        return _OUT_OF_RANGE
    ops = _OpCounter()
    return ops.report(_power_chain_check(bsig.F, bsig.R3, bsig.disguised, n, ops))


def naive_blind_sign(key: KeyPair, disguised: int, rng=None) -> int:
    """A broken signer that returns a bare, uniformly random root.

    Only accepts residues (blinded squares always are).  Handing out
    uniformly random roots is exactly what the blinding attack needs.
    """
    return (rng or SYSTEM_RNG).choice(sqrt_mod_pq(disguised, key.idem))


def _exchange(key: KeyPair, m: Message, rng=None) -> tuple[int, int, BlindSignature, Variant2Signature]:
    # One disguise / blind-sign / unblind exchange: (r, disguised, bsig, published).
    pub = key.public()
    r = random_unit(key.n, rng)
    disguised = disguise(m, r, pub)
    bsig = blind_sign(key, disguised, rng)
    return r, disguised, bsig, unblind(bsig, r, m, pub)


def run_blind_session(key: KeyPair, m: Message, rng=None) -> BlindSession:
    """Drive one complete disguise / blind-sign / unblind exchange."""
    r, disguised, bsig, published = _exchange(key, m, rng)
    # the signer's nonce is recoverable here only because we play both roles
    signer_r = bsig.F * mod_inv(_recover_root(key, disguised), key.n) % key.n
    return BlindSession(m, r, signer_r, disguised, bsig, published)


# The blind signer still finds the class with Jacobi symbols and takes the
# root with canonical_sqrt_mod_pq, twice per session (ROADMAP item 1): the
# benchmark pins those two canonical roots per session, so this path changes
# together with the benchmark, when signer_R goes.
def _recover_root(key: KeyPair, disguised: int) -> int:
    """The signer's root S: the canonical root of disguised times its unity-root padding."""
    padding = _class_padding(key, jacobi(disguised, key.p), jacobi(disguised, key.q), 1)
    return canonical_sqrt_mod_pq(disguised * padding % key.n, key.idem)
