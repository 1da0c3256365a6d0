import dataclasses
import math
import random

import pytest

from rabinsig.blind import BlindSignature, blind_sign, naive_blind_sign, verify_blind_signature
from rabinsig.errors import FactorLeakError, NonResidueError
from rabinsig.forgery import (
    TRANSFORMS,
    AttackOutcome,
    apply_scaling,
    forge_classic,
    rsa_blinding_attack,
)
from rabinsig.hashing import IDENTITY, QUADRATIC, RedundancySpec, apply_redundancy
from rabinsig.keygen import gen_keypair
from rabinsig.numtheory import mod_inv
from rabinsig.schemes import (
    ClassicSignature,
    GeneralSignature,
    RWSignature,
    Variant1Signature,
    Variant2Signature,
    classic_verify,
    general_verify,
    sign,
    variant1_verify,
    variant2_verify,
    verify,
)


class TestClassicForgery:
    def test_toy_vector(self, toy_key):
        forged = forge_classic(ClassicSignature(5, 59, 8), 10, 77)
        assert forged == ClassicSignature(10, 68, 8)
        assert classic_verify(toy_key.public(), forged).valid

    def test_same_message_target(self, toy_key):
        forged = forge_classic(ClassicSignature(5, 59, 8), 5, 77)
        assert classic_verify(toy_key.public(), forged).valid

    def test_noninvertible_target_rejected(self):
        with pytest.raises(FactorLeakError):
            forge_classic(ClassicSignature(5, 59, 8), 14, 77)

    def test_succeeds_for_arbitrary_targets(self, toy_key, rng):
        sig = ClassicSignature(5, 59, 8)
        hits = 0
        while hits < 100:
            target = rng.randrange(1, 77)
            if math.gcd(target, 77) != 1:
                continue
            assert classic_verify(toy_key.public(), forge_classic(sig, target, 77)).valid
            hits += 1


class TestScalingTransforms:
    def test_general_toy_vector(self, general_toy_key):
        forged = apply_scaling(GeneralSignature(5, 3, 57), 2, 77)
        assert forged == GeneralSignature(20, 3, 37)
        assert general_verify(general_toy_key.public(), forged).valid

    def test_variant1_toy_vector(self, toy_key):
        forged = apply_scaling(Variant1Signature(3, 59, 67, 4), 2, 77)
        assert forged == Variant1Signature(48, 59, 37, 8)
        assert variant1_verify(toy_key.public(), forged).valid

    def test_variant2_toy_vector(self, toy_key):
        forged = apply_scaling(Variant2Signature(4, 6, 27), 2, 77)
        assert forged == Variant2Signature(16, 12, 27)
        assert variant2_verify(toy_key.public(), forged).valid

    def test_blind_toy_vector(self, toy_key):
        forged = apply_scaling(BlindSignature(36, 12, 8), 2, 77)
        assert forged == BlindSignature(67, 24, 8)
        assert verify_blind_signature(forged, 77).valid

    def test_blind_negation_factor(self):
        forged = apply_scaling(BlindSignature(36, 12, 8), 76, 77)
        assert forged == BlindSignature(36, 77 - 12, 8)
        assert verify_blind_signature(forged, 77).valid

    def test_unit_factor_is_the_identity(self, general_toy_key):
        sig = GeneralSignature(5, 3, 57)
        assert apply_scaling(sig, 1, 77) == sig

    def test_rw_transform_keeps_multipliers(self, rw_toy_key):
        forged = apply_scaling(RWSignature(5, 76, 2, 6), 3, 77)
        assert (forged.e, forged.f) == (76, 2)
        assert forged.m == 45 and forged.S == 18
        assert verify(rw_toy_key.public(), forged).valid

    def test_registry_covers_all_schemes(self):
        assert set(TRANSFORMS) == {"classic", "general", "variant1", "variant2", "rw", "blind"}

    def test_byte_messages_cannot_be_scaled(self):
        with pytest.raises(TypeError):
            apply_scaling(Variant2Signature(b"m", 6, 27), 2, 77)


SCHEMES_AND_KINDS = (
    ("classic", "general"),
    ("general", "general"),
    ("variant1", "blum"),
    ("variant2", "blum"),
    ("rw", "rw"),
)


class TestScalingProperties:
    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_identity_redundancy_scales_to_valid(self, scheme, kind, rng):
        key = gen_keypair(kind, 48, IDENTITY, rng)
        pub = key.public()
        hits = 0
        while hits < 100:
            m = rng.randrange(1, key.n)
            lam = rng.randrange(2, key.n)
            if math.gcd(m, key.n) != 1 or math.gcd(lam, key.n) != 1:
                continue
            forged = apply_scaling(sign(key, m, scheme, rng=rng), lam, key.n)
            assert verify(pub, forged).valid
            hits += 1

    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_quadratic_redundancy_scales_to_invalid(self, scheme, kind, rng):
        key = gen_keypair(kind, 48, QUADRATIC, rng)
        pub = key.public()
        hits = 0
        while hits < 100:
            m = rng.randrange(1, key.n)
            lam = rng.randrange(2, key.n - 1)  # exclude 1 and n-1
            if math.gcd(m * (m + 1), key.n) != 1 or math.gcd(lam, key.n) != 1:
                continue
            forged = apply_scaling(sign(key, m, scheme, rng=rng), lam, key.n)
            assert not verify(pub, forged).valid
            hits += 1


class TestBlindingAttack:
    def test_lucky_root_decrypts(self, toy_key):
        # plaintext x = 9, ciphertext 4; the scripted signer returns the root 27
        # of the blinded value 36, and 27/3 = 9 recovers x
        oracle = lambda d: {36: 27}[d]
        outcome = rsa_blinding_attack(oracle, 4, 77, rng=_FixedBlinder(3), known_root=9)
        assert outcome == AttackOutcome("decrypted", 9, 1)

    def test_other_root_factors(self, toy_key):
        # same trial but the signer returns 6; 6/3 = 2 and gcd(2 - 9, 77) = 7
        oracle = lambda d: {36: 6}[d]
        outcome = rsa_blinding_attack(oracle, 4, 77, rng=_FixedBlinder(3), known_root=9)
        assert outcome == AttackOutcome("factored", 7, 1)

    def test_every_trial_decrypts_or_factors_the_naive_signer(self, toy_key, rng):
        oracle = lambda d: naive_blind_sign(toy_key, d, rng)
        kinds = {"decrypted": 0, "factored": 0}
        for _ in range(200):
            outcome = rsa_blinding_attack(oracle, 4, 77, rng, known_root=9)
            kinds[outcome.kind] += 1
            if outcome.kind == "decrypted":
                assert outcome.value in (9, 68)
            else:
                assert outcome.value in (7, 11)
        assert kinds["decrypted"] > 0 and kinds["factored"] > 0

    def test_self_judging_mode_factors_across_trials(self, toy_key, rng):
        oracle = lambda d: naive_blind_sign(toy_key, d, rng)
        outcome = rsa_blinding_attack(oracle, 4, 77, rng, trials=64)
        assert outcome.kind == "factored"
        assert outcome.value in (7, 11)

    def test_hardened_signer_defeats_the_attack(self, rng):
        # at n=77 the signer's nonce squares to 1 often enough to leak roots by
        # accident, so run this at a realistic size where that never happens
        key = gen_keypair("blum", 48, IDENTITY, rng)
        x = rng.randrange(2, key.n)
        c = x * x % key.n
        oracle = lambda d: blind_sign(key, d, rng).F
        outcome = rsa_blinding_attack(oracle, c, key.n, rng, trials=50, known_root=x)
        assert outcome.kind == "failed"
        assert outcome.value is None

    def test_oracle_refusal_propagates(self, toy_key, rng):
        def refusing(d):
            raise NonResidueError("refused")

        with pytest.raises(NonResidueError):
            rsa_blinding_attack(refusing, 4, 77, rng)


# ROADMAP item 9: X = F**3/R3 = S**3 is public, and a valid variant2 signature has
# X**4 = H**6, so w = X**2/H**3 squares to 1.  When (H/N) = -1, w is not +-1 and
# gcd(w - 1, N) is a prime.  Likewise each hardened blind answer gives F**3/(R3*d) = S*u,
# a root of d*u for the signer's unity-root padding u, which is 1 when d is a square.
# Both tests fail until item 9's mitigation lands; strict, so a fix shows up as XPASS.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: a variant2 signature with (H/N) = -1 reveals a factor")
def test_no_variant2_signature_reveals_a_factor():
    rng = random.Random(21)
    key = gen_keypair("blum", 128, IDENTITY, rng)
    n = key.n
    leaks = {}
    for redundancy in (IDENTITY, RedundancySpec("digest", "sha256")):
        key = dataclasses.replace(key, redundancy=redundancy)
        leaks[redundancy.token] = 0
        for m in range(2, 42):
            sig = sign(key, m, "variant2", rng=rng)
            assert verify(key.public(), sig).valid
            x = pow(sig.F, 3, n) * mod_inv(sig.R3, n) % n
            w = x * x * mod_inv(pow(apply_redundancy(redundancy, m, n), 3, n), n) % n
            leaks[redundancy.token] += math.gcd(w - 1, n) in (key.p, key.q)
    assert leaks == {"identity": 0, "digest:sha256": 0}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: F**3/(R3*d) from a hardened blind answer is a root of +-d")
def test_hardened_answers_give_the_blinding_attack_no_root():
    rng = random.Random(21)
    key = gen_keypair("blum", 128, IDENTITY, rng)
    n = key.n
    x = rng.randrange(2, n)
    c = x * x % n

    def cube_oracle(d):
        answer = blind_sign(key, d, rng)
        return pow(answer.F, 3, n) * mod_inv(answer.R3 * d, n) % n

    outcomes = [rsa_blinding_attack(cube_oracle, c, n, rng, trials=1, known_root=x).kind for _ in range(40)]
    assert outcomes.count("failed") == 40


class _FixedBlinder:
    """rng stub that always blinds with the same factor."""

    def __init__(self, r):
        self.r = r

    def randrange(self, start, stop=None):
        return self.r
