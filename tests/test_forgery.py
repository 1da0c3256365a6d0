import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabinsig import forgery
from rabinsig.blind import BlindSignature, blind_sign, naive_blind_sign, run_blind_session, verify_blind_signature
from rabinsig.errors import FactorLeakError, NonResidueError
from rabinsig.forgery import (
    TRANSFORMS,
    AttackOutcome,
    apply_scaling,
    cube_oracle,
    forge_classic,
    rsa_blinding_attack,
    variant2_factor,
)
from rabinsig.hashing import IDENTITY, QUADRATIC, DigestRef, RedundancySpec, apply_redundancy
from rabinsig.keygen import gen_keypair
from rabinsig.numtheory import jacobi, mod_inv, random_unit
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


def _inverting_attack(oracle, c, n, rng, trials=1, known_root=None):
    """rsa_blinding_attack as it was written first: each trial divides the answer by r."""
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


def _scripted_oracle(n, script):
    """An oracle answering its i-th query as script[i] says: a true root, any value, or a root moved by k*n."""
    calls = iter(script)

    def oracle(d):
        mode, i, k = next(calls)
        roots = [y for y in range(n) if y * y % n == d]
        y = roots[i % len(roots)] if roots and mode != "any" else i
        return {"root": y, "any": y, "unreduced": y + k * n, "negative": y - k * n}[mode]

    return oracle


@st.composite
def _attack_cases(draw):
    n = draw(st.sampled_from((77, 221, 437, 3 * 11 * 17)))
    trials = draw(st.integers(1, 4))
    x = draw(st.integers(-n, 3 * n))
    c = draw(st.one_of(st.just(x * x), st.integers(-n, 3 * n)))
    known_root = draw(st.one_of(st.none(), st.just(x), st.sampled_from((0, n, 2 * n, n + 1)), st.integers(0, 3 * n)))
    script = draw(st.lists(st.tuples(st.sampled_from(("root", "any", "unreduced", "negative")),
                                     st.integers(0, 10 * n), st.integers(1, 3)),
                           min_size=trials, max_size=trials))
    return n, trials, c, known_root, script, draw(st.integers(0, 2**32))


@settings(max_examples=400, deadline=None)
@given(case=_attack_cases())
def test_blinding_attack_matches_the_inverting_form(case):
    # each trial tests answer against x*r instead of answer/r against x: same outcome, same draws
    n, trials, c, known_root, script, seed = case
    expected = _inverting_attack(_scripted_oracle(n, script), c, n, random.Random(seed), trials, known_root)
    got = rsa_blinding_attack(_scripted_oracle(n, script), c, n, random.Random(seed), trials, known_root)
    assert got == expected


def test_known_root_trials_invert_nothing(monkeypatch):
    rng = random.Random(23)
    key = gen_keypair("blum", 128, IDENTITY, rng)
    n = key.n
    x = rng.randrange(2, n)
    c = x * x % n

    def no_inverse(a, modulus):
        raise AssertionError("a known-root trial computed an inverse")

    monkeypatch.setattr(forgery, "mod_inv", no_inverse)
    for _ in range(40):
        outcome = rsa_blinding_attack(lambda d: naive_blind_sign(key, d, rng), c, n, rng, known_root=x)
        assert outcome in (AttackOutcome("decrypted", x, 1), AttackOutcome("decrypted", n - x, 1),
                           AttackOutcome("factored", key.p, 1), AttackOutcome("factored", key.q, 1))
        outcome = rsa_blinding_attack(lambda d: blind_sign(key, d, rng).F, c, n, rng, known_root=x)
        assert outcome == AttackOutcome("failed", None, 1)


@pytest.fixture(scope="module")
def leaky_key():
    return gen_keypair("blum", 128, IDENTITY, random.Random(21))


class TestVariant2Factor:
    """ROADMAP item 9 through the package's own code: these pass until a mitigation lands."""

    @pytest.mark.parametrize("redundancy,leaks", [(IDENTITY, 19), (QUADRATIC, 20),
                                                  (RedundancySpec("digest", "sha256"), 20)])
    def test_exactly_the_signatures_with_jacobi_minus_one_give_a_factor(self, leaky_key, redundancy, leaks):
        rng = random.Random(22)
        key = dataclasses.replace(leaky_key, redundancy=redundancy)
        found = 0
        for m in range(2, 42):
            sig = sign(key, m, "variant2", rng=rng)
            factor = variant2_factor(key.public(), sig)
            assert (factor is not None) == (jacobi(apply_redundancy(redundancy, m, key.n), key.n) == -1)
            assert factor in (None, key.p, key.q)
            found += factor is not None
        assert found == leaks

    def test_exactly_the_blind_answers_with_jacobi_minus_one_give_a_factor(self, leaky_key):
        rng = random.Random(24)
        pub = leaky_key.public()
        for _ in range(40):
            d = random_unit(leaky_key.n, rng)
            factor = variant2_factor(pub, blind_sign(leaky_key, d, rng))
            assert (factor is not None) == (jacobi(d, leaky_key.n) == -1)
            assert factor in (None, leaky_key.p, leaky_key.q)

    def test_a_published_blind_signature_leaks_like_any_other(self, leaky_key):
        rng = random.Random(25)
        for m in range(2, 22):
            session = run_blind_session(leaky_key, m, rng)
            factor = variant2_factor(leaky_key.public(), session.published)
            assert (factor is not None) == (jacobi(m, leaky_key.n) == -1)

    def test_a_message_outside_the_key_rule_gives_none(self, leaky_key):
        sig = sign(leaky_key, 3, "variant2", rng=random.Random(26))
        assert variant2_factor(leaky_key.public(), dataclasses.replace(sig, m=DigestRef(3))) is None

    def test_the_cube_oracle_hands_the_blinding_attack_a_root_every_trial(self, leaky_key):
        rng = random.Random(27)
        n = leaky_key.n
        x = rng.randrange(2, n)
        oracle = cube_oracle(leaky_key, rng)
        for _ in range(40):
            outcome = rsa_blinding_attack(oracle, x * x, n, rng, known_root=x)
            assert outcome.kind != "failed"
            assert outcome.value in (x, n - x, leaky_key.p, leaky_key.q)


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


# ROADMAP item 2: the root component of a general, variant1 or rw signature is one
# of +-x, and both square alike, so N - x is a second valid signature on the same
# message: a forgery under strong unforgeability (An, Dodis and Rabin, EUROCRYPT
# 2002).  The half-range rule, x at most (N - 1)/2, refuses the upper one as
# "component range" with no operation counted.  Strict, so the rule shows up as XPASS.
HALF_RANGE = {"general": ("general", "S"), "variant1": ("blum", "T"), "rw": ("rw", "S")}


@pytest.mark.parametrize("scheme", list(HALF_RANGE))
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: N - x of the root component verifies; no half-range rule")
def test_the_upper_root_component_is_refused(scheme):
    kind, component = HALF_RANGE[scheme]
    rng = random.Random(f"half-range/{scheme}")
    key = gen_keypair(kind, 128, RedundancySpec("digest", "sha256"), rng)
    for _ in range(10):
        sig = sign(key, rng.randbytes(16), scheme, rng=rng)
        assert verify(key.public(), sig).valid
        upper = dataclasses.replace(sig, **{component: key.n - getattr(sig, component)})
        report = verify(key.public(), upper)
        assert not report.valid and report.failed_check == "component range" and report.op_counts == (0, 0)


class _FixedBlinder:
    """rng stub that always blinds with the same factor."""

    def __init__(self, r):
        self.r = r

    def randrange(self, start, stop=None):
        return self.r
