"""Executable attacks against the signature schemes.

Two families:

* Scaling forgeries.  Under identity redundancy every scheme's verifier is
  (pseudo-)homogeneous: raising a free factor to fixed per-component powers
  maps valid signatures to valid signatures on a different message.  The
  per-scheme exponents live in TRANSFORMS.

* Oracle attacks.  The classic scheme admits outright substitution
  (choose the message, solve for the padding), and a naive blind signer
  that returns bare roots can be milked to extract square roots of chosen
  ciphertexts, which decrypts them or factors the modulus.
"""

import math
from dataclasses import dataclass, fields
from typing import Callable

from .blind import BlindSignature
from .numtheory import SYSTEM_RNG, mod_inv, random_unit
from .schemes import ClassicSignature, Signature


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

    Each trial blinds c with a fresh r, submits r**2 * c and divides the
    oracle's answer by r.  Against a signer that hands out bare uniformly
    random roots, every trial yields a root y of c: either y is the
    (negated) plaintext or gcd(y - x, n) splits the modulus.  Pass the
    plaintext root as known_root to classify a trial immediately;
    otherwise roots are combined across trials and two inequivalent ones
    factor n.  A hardened signer never releases a usable root, so every
    trial fails the y**2 == c check.
    """
    rng = rng or SYSTEM_RNG
    c %= n
    first = None
    trial = 0
    for trial in range(1, trials + 1):
        r = random_unit(n, rng)
        answer = oracle(r * r * c % n)
        y = answer * mod_inv(r, n) % n
        if y * y % n != c:
            continue
        if known_root is not None:
            x = known_root % n
            if y == x or y == n - x:
                return AttackOutcome("decrypted", y, trial)
            return AttackOutcome("factored", math.gcd((y - x) % n, n), trial)
        if first is None:
            first = y
        elif y != first and y != n - first:
            return AttackOutcome("factored", math.gcd((y - first) % n, n), trial)
    if first is not None:
        return AttackOutcome("decrypted", first, trial)
    return AttackOutcome("failed", None, trial)
