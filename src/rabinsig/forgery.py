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
from dataclasses import dataclass
from typing import Callable

from .blind import BlindSignature
from .numtheory import SYSTEM_RNG, mod_inv, random_unit
from .schemes import SCHEMES, ClassicSignature, Signature


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
    """Scale every component of sig by the registered power of lam (mod n)."""
    if isinstance(sig, BlindSignature):
        tf = TRANSFORMS["blind"]
        disguised = sig.disguised * pow(lam, tf.message_power, n) % n
        f_val = sig.F * pow(lam, tf.component_powers[0], n) % n
        return BlindSignature(disguised, f_val, sig.R3)
    tf = TRANSFORMS[sig.scheme]
    if not isinstance(sig.m, int):
        raise TypeError("scaling forgeries only apply to integer messages")
    m = sig.m * pow(lam, tf.message_power, n) % n
    components = [getattr(sig, name) * pow(lam, power, n) % n
                  for name, power in zip(SCHEMES[sig.scheme].components, tf.component_powers)]
    return type(sig)(m, *components)


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
