"""Executable attacks against the signature schemes.

Two families:

* Scaling forgeries.  Under identity redundancy every scheme's verifier is
  (pseudo-)homogeneous: raising a free factor to fixed per-component powers
  maps valid signatures to valid signatures on a different message.  The
  per-scheme exponents live in TRANSFORMS.

* Oracle attacks.  The classic scheme admits outright substitution
  (choose the message, solve for the padding), and a naive blind signer
  that returns bare roots can be milked to extract square roots of chosen
  ciphertexts, which decrypts them or factors the modulus.  So can the
  hardened signer, once each answer is read as F**3/(R3*d) (cube_oracle).

* Public factoring.  One variant2 signature, or one hardened blind answer,
  whose H has Jacobi symbol -1 reveals a prime factor of N
  (variant2_factor).
"""

import math
from dataclasses import dataclass, fields
from typing import Callable

from .blind import BlindSignature, blind_sign
from .keygen import KeyPair, PublicKey
from .numtheory import SYSTEM_RNG, mod_inv, random_unit
from .schemes import ClassicSignature, Signature, Variant2Signature, _message_hash


@dataclass(frozen=True)
class ForgeryTransform:
    """Scaling exponents: message power n0 and per-component powers n1, n2, ...

    Scaling a valid tuple by (lam**n0, lam**n1, ...) multiplies both sides
    of the i-th verifier equation by one power lam**t_i: t = 2 for classic,
    general and rw, (2, 4) for variant1's two equations, and 12 for variant2
    and the blind signature.  So the equalities survive for every unit lam.
    """

    message_power: int
    component_powers: tuple[int, ...]


TRANSFORMS = {
    "classic": ForgeryTransform(2, (0, 1)),
    "general": ForgeryTransform(2, (0, 1)),
    "variant1": ForgeryTransform(4, (0, 2, 1)),
    "variant2": ForgeryTransform(2, (1, 0)),
    "rw": ForgeryTransform(2, (0, 0, 1)),
    "blind": ForgeryTransform(2, (1, 0)),
}


def apply_scaling(sig: Signature | BlindSignature, lam: int, n: int):
    """Scale the message (a blind signature's disguised value) and each component by its power of lam, mod n."""
    tf = TRANSFORMS["blind" if isinstance(sig, BlindSignature) else sig.scheme]
    values = [getattr(sig, f.name) for f in fields(sig)]
    if not isinstance(values[0], int):
        raise TypeError("scaling forgeries only apply to integer messages")
    powers = (tf.message_power, *tf.component_powers)
    return type(sig)(*(x * pow(lam, power, n) % n for x, power in zip(values, powers)))


def forge_classic(sig: ClassicSignature, m_target: int, n: int) -> ClassicSignature:
    """Substitution forgery: keep S, solve the padding as S**2 / m_target."""
    padding = sig.S * sig.S % n * mod_inv(m_target, n) % n
    return ClassicSignature(m_target % n, padding, sig.S)


@dataclass(frozen=True)
class AttackOutcome:
    kind: str  # "decrypted" | "factored" | "failed"
    value: int | None = None
    trials: int = 0


def rsa_blinding_attack(
    oracle: Callable[[int], int],
    c: int,
    n: int,
    rng=None,
    trials: int = 1,
    known_root: int | None = None,
) -> AttackOutcome:
    """Milk a blind-signing oracle for square roots of the ciphertext c.

    Each trial blinds c with a fresh r and submits r**2 * c; the oracle's
    answer over r is a root y of c when answer**2 == r**2 * c.  Against a
    signer that hands out bare uniformly random roots, every trial yields
    one: either y is the (negated) plaintext or gcd(y - x, n) splits the
    modulus.  Pass the plaintext root as known_root to classify a trial
    immediately; otherwise roots are combined across trials and two
    inequivalent ones factor n.  A hardened signer never releases a usable
    root, so every trial fails the square check.

    Since r is a unit, each test on y = answer/r is made on answer instead:
    y == +-x is answer == +-x*r, gcd(y - x, n) is gcd(answer - x*r, n), and
    y == +-y1 for an earlier trial's answer a1 and blinder r1 is
    answer*r1 == +-a1*r.  So no trial inverts r; only a "decrypted" result
    found without known_root divides by its r.
    """
    rng = rng or SYSTEM_RNG
    c %= n
    x = None if known_root is None else known_root % n
    first = None  # (answer, r) of the first trial that gave a root
    trial = 0
    for trial in range(1, trials + 1):
        r = random_unit(n, rng)
        blinded = r * r * c % n
        answer = oracle(blinded) % n
        if answer * answer % n != blinded:
            continue
        if x is not None:
            xr = x * r % n
            if answer == xr or answer == n - xr:
                return AttackOutcome("decrypted", x if answer == xr else n - x, trial)
            return AttackOutcome("factored", math.gcd(answer - xr, n), trial)
        if first is None:
            first = answer, r
        else:
            a1, r1 = first
            u, v = answer * r1 % n, a1 * r % n
            if u != v and u != n - v:
                return AttackOutcome("factored", math.gcd(u - v, n), trial)
    if first is not None:
        a1, r1 = first
        return AttackOutcome("decrypted", a1 * mod_inv(r1, n) % n, trial)
    return AttackOutcome("failed", None, trial)


def cube_oracle(key: KeyPair, rng=None) -> Callable[[int], int]:
    """The hardened blind signer as a root oracle for rsa_blinding_attack: d -> F**3/(R3*d).

    F**3/R3 = S**3 for the signer's root S of d*u, u its unity-root padding,
    so the answer is S*u: a square root of d whenever d is a square.
    """
    def answer(d: int) -> int:
        bsig = blind_sign(key, d, rng)
        return pow(bsig.F, 3, key.n) * mod_inv(bsig.R3 * d, key.n) % key.n

    return answer


def variant2_factor(pub: PublicKey | KeyPair, sig: Variant2Signature | BlindSignature) -> int | None:
    """A factor of N read off one variant2 signature or blind answer, or None.

    X = F**3/R3 is public, and a valid signature on h (H(m), or a blind
    answer's disguised d) has X**4 == h**6, so w = X**2/h**3 squares to 1.
    When (h/N) = -1, w is not +-1 and gcd(w - 1, N) is p or q.  Multiplied
    through by the unit R3**2 * h**3, that is gcd(F**6 - R3**2 * h**3, N):
    no inverse needed.  A message outside the key's message rule gives None.
    """
    n = pub.n
    h = sig.disguised if isinstance(sig, BlindSignature) else _message_hash(pub, sig.m)
    if h is None:
        return None
    g = math.gcd(pow(sig.F, 6, n) - sig.R3 * sig.R3 * pow(h, 3, n), n)
    return g if 1 < g < n else None
