import collections
import dataclasses
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rabinsig.blind import BlindSignature, blind_sign, verify_blind_signature
from rabinsig.errors import FactorLeakError, SignatureFormatError, UnsignableMessageError
from rabinsig.forgery import apply_scaling
from rabinsig.hashing import IDENTITY, QUADRATIC, DigestRef, RedundancySpec, digest_int
from rabinsig.keygen import KeyPair, PaddingSet, build_padding_set, dump_private, gen_keypair, gen_prime, parse_key
from rabinsig import numtheory, schemes
from rabinsig.numtheory import canonical_sqrt_mod_pq, jacobi, mod_inv
from rabinsig.oracle import SmallRing, all_roots, brute_valid, qr_set, units
from rabinsig.schemes import (
    SCHEMES,
    ClassicSignature,
    GeneralSignature,
    RWSignature,
    Variant1Signature,
    Variant2Signature,
    classic_sign,
    classic_verify,
    dump_signature,
    general_sign,
    general_verify,
    parse_signature,
    rw_sign,
    rw_verify,
    sign,
    variant1_sign,
    variant1_verify,
    variant2_sign,
    variant2_verify,
    verify,
)

from conftest import ORACLE_PADDING, SeqRng, general_key_with_unchecked_padding

RING77 = SmallRing(7, 11)
QR77 = qr_set(RING77)


class TestClassic:
    def test_sign_toy_vector(self, toy_key):
        sig = classic_sign(toy_key, 5, rng=SeqRng(2))  # padding nonce R = 2
        assert sig == ClassicSignature(5, 59, 8)
        # oracle cross-check: padding makes the message a residue, root is smallest
        assert 5 * 59 % 77 in QR77
        assert sig.S == min(all_roots(5 * 59 % 77, RING77))

    def test_verify_toy_vector(self, toy_key):
        report = classic_verify(toy_key.public(), ClassicSignature(5, 59, 8))
        assert report.valid and report.failed_check is None
        assert report.op_counts == (1, 1)

    def test_perturbed_root_rejected(self, toy_key):
        report = classic_verify(toy_key.public(), ClassicSignature(5, 59, 9))
        assert not report.valid
        assert report.failed_check == "signature equation"

    def test_the_substituted_tuple_verifies(self, toy_key):
        # the scheme's defining weakness: (10, 68, 8) validates without the key
        assert classic_verify(toy_key.public(), ClassicSignature(10, 68, 8)).valid

    def test_zero_redundancy_rejected(self, toy_key, toy_key_quadratic):
        with pytest.raises(UnsignableMessageError):
            classic_sign(toy_key, 0)
        with pytest.raises(UnsignableMessageError):
            classic_sign(toy_key_quadratic, 76)  # 76*77 = 0 mod 77
        with pytest.raises(UnsignableMessageError):
            classic_sign(toy_key, 7)  # shares a factor with the modulus


class TestGeneral:
    def test_sign_selects_the_class_element(self, general_toy_key):
        sig = general_sign(general_toy_key, 5)
        # (5/7) = -1, (5/11) = +1 selects the (-1, +1) element, which is 3
        assert sig.u == 3
        assert sig.S == min(all_roots(15, RING77)) == 13
        assert sig.S**2 % 77 == 15

    def test_alternate_root_also_verifies(self, general_toy_key):
        # 57 is another root of 15; any root yields a valid signature
        assert 57 * 57 % 77 == 15
        assert general_verify(general_toy_key.public(), GeneralSignature(5, 3, 57)).valid

    def test_square_message_selects_the_residue_element(self, general_toy_key):
        sig = general_sign(general_toy_key, 4)
        assert sig.u == 58  # the (+1, +1) element of the fixture set

    def test_membership_enforced(self, general_toy_key):
        report = general_verify(general_toy_key.public(), GeneralSignature(5, 7, 13))
        assert not report.valid
        assert report.failed_check == "membership"

    def test_scaled_tuple_verifies(self, general_toy_key):
        # scaling by r=2 must stay valid under identity redundancy
        assert general_verify(general_toy_key.public(), GeneralSignature(20, 3, 37)).valid

    def test_op_counts(self, general_toy_key):
        report = general_verify(general_toy_key.public(), general_sign(general_toy_key, 5))
        assert report.valid
        assert report.op_counts == (1, 1)

    def test_needs_a_padding_set(self, toy_key, general_toy_key):
        with pytest.raises(ValueError, match="needs a key with a private padding set"):
            general_sign(toy_key, 5)
        # the published set carries no classes to select by
        public_only = dataclasses.replace(general_toy_key, padding=general_toy_key.public().padding)
        with pytest.raises(ValueError, match="needs a key with a private padding set"):
            general_sign(public_only, 5)

    def test_a_directly_built_key_without_roots_is_refused(self, general_toy_key):
        # from_primes fills in a set's roots; a key built on a set with classes but no roots has none to sign with
        classes = general_toy_key.padding.classes
        rootless = KeyPair("general", 7, 11, IDENTITY, PaddingSet(ORACLE_PADDING.elements, classes))
        assert not SCHEMES["general"].key_ok(rootless)
        with pytest.raises(ValueError, match="^the general scheme needs a key with a private padding set$"):
            SCHEMES["general"].check_key(rootless)
        assert SCHEMES["general"].key_ok(general_toy_key)

    def test_a_set_whose_labels_miss_the_class_is_refused(self):
        # built directly, the key keeps labels that from_primes would recompute: all four claim (1, 1)
        roots = general_key_with_unchecked_padding(7, 11, ORACLE_PADDING.elements).padding.roots
        key = KeyPair("general", 7, 11, IDENTITY, PaddingSet(ORACLE_PADDING.elements, ((1, 1),) * 4, roots))
        assert sign(key, 4, "general").u == 58  # a residue is in the one labelled class
        with pytest.raises(ValueError, match="^padding set does not cover the class of the message$"):
            sign(key, 5, "general")  # (5/7) = -1


class TestVariant1:
    def test_sign_toy_vector(self, toy_key):
        sig = variant1_sign(toy_key, 3, rng=SeqRng(15))  # w = 15: U = 3 * 15**2 = 59
        assert sig == Variant1Signature(3, 59, 67, 4)
        # S is the unique root whose class matches U+1, making (U+1)S a residue
        assert 60 * 67 % 77 in QR77
        assert sig.T == min(all_roots(60 * 67 % 77, RING77))

    def test_verify_toy_vector(self, toy_key):
        report = variant1_verify(toy_key.public(), Variant1Signature(3, 59, 67, 4))
        assert report.valid
        assert report.op_counts == (2, 2)

    def test_tail_equation_checked_first(self, toy_key):
        report = variant1_verify(toy_key.public(), Variant1Signature(3, 59, 67, 5))
        assert not report.valid
        assert report.failed_check == "T equation"

    def test_root_equation_failure(self, toy_key):
        report = variant1_verify(toy_key.public(), Variant1Signature(5, 59, 67, 4))
        assert not report.valid
        assert report.failed_check == "S equation"

    def test_scaled_tuple_verifies(self, toy_key):
        assert variant1_verify(toy_key.public(), Variant1Signature(48, 59, 37, 8)).valid

    def test_forbidden_unity_padding_resampled(self, toy_key):
        # m=2 has class (+1, -1); the draw w=37, whose square is 60, would give U = 2 * 60 = 43 = psi1 - psi2,
        # one of the factor-revealing unity roots, so signing must re-draw.
        sig = variant1_sign(toy_key, 2, rng=SeqRng(37, 2))
        assert sig.U not in (43, 34)
        assert variant1_verify(toy_key.public(), sig).valid

    def test_padding_next_to_a_factor_multiple_resampled(self, toy_key):
        # m=2 with w=4 gives U = 2 * 16 = 32, and U+1 = 33 = 3*11 shares a factor with N;
        # the rule that re-draws the unity roots (U+1 a unit) re-draws it too: w=3 gives U = 18
        sig = variant1_sign(toy_key, 2, rng=SeqRng(4, 3))
        assert sig == Variant1Signature(2, 18, 6, 24)
        assert variant1_verify(toy_key.public(), sig).valid

    def test_64_bad_draws_raise_factor_leak(self, toy_key):
        # SeqRng holds exactly 64 values, so a 65th draw would fail the test another way
        with pytest.raises(FactorLeakError):
            variant1_sign(toy_key, 2, rng=SeqRng(*[4] * 64))

    def test_blum_key_required(self):
        key = KeyPair.from_primes("general", 13, 17, IDENTITY)
        with pytest.raises(ValueError):
            variant1_sign(key, 2)

    @pytest.mark.parametrize("p,q", [(7, 11), (3, 19)])
    def test_every_draw_signs_as_the_reference_rule(self, p, q):
        # for each unit message, the signer's (U, S, T) over every unit draw against the paper's rule,
        # built from oracle helpers only: U = r**2 * c over the units r, for a fixed c in h's class
        key, ring = KeyPair.from_primes("blum", p, q, IDENTITY), SmallRing(p, q)
        n, residues = ring.n, qr_set(ring)
        for h in units(ring):
            signed = collections.Counter()
            for w in units(ring):
                try:
                    sig = variant1_sign(key, h, rng=SeqRng(*[w] * 64))  # a bad draw comes back until the 64th
                except FactorLeakError:
                    signed["withheld"] += 1
                else:
                    signed[sig.U, sig.S, sig.T] += 1
            c = next(c for c in units(ring) if h * c % n in residues)  # units share a class when their product is a residue
            reference = collections.Counter()
            for r in units(ring):
                u = r * r * c % n
                if math.gcd(u + 1, n) != 1:
                    reference["withheld"] += 1
                    continue
                # S: the one root of h*U in the class of U+1, which makes (U+1)*S a residue
                [s] = [s for s in all_roots(h * u, ring) if (u + 1) * s % n in residues]
                reference[u, s, min(all_roots((u + 1) * s, ring))] += 1
            assert signed == reference, h


class TestVariant2:
    def test_sign_residue_message(self, toy_key):
        sig = variant2_sign(toy_key, 4, rng=SeqRng(3))
        assert sig == Variant2Signature(4, 6, 27)  # U = 1, S = 2, F = 3*2, R3 = 27

    def test_sign_mixed_class_message(self, toy_key):
        sig = variant2_sign(toy_key, 3, rng=SeqRng(2))
        assert sig == Variant2Signature(3, 10, 8)  # U = 34, S = 5, F = 10, R3 = 8

    def test_honest_signatures_satisfy_the_defining_equation(self, toy_key, rng):
        for m in (2, 3, 4, 5, 6):
            sig = variant2_sign(toy_key, m, rng=rng)
            assert brute_valid(sig, 77, IDENTITY)

    def test_verify_toy_vectors(self, toy_key):
        pub = toy_key.public()
        for sig in (Variant2Signature(4, 6, 27), Variant2Signature(3, 10, 8)):
            report = variant2_verify(pub, sig)
            assert report.valid
            assert report.op_counts == (7, 3)

    def test_both_sides_reduce_to_one(self, toy_key):
        # 2**12 * 3**6 = 15 * 36 = 1 mod 77 and 10**12 = 1 mod 77
        assert pow(8, 4, 77) * pow(3, 6, 77) % 77 == 1
        assert pow(10, 12, 77) == 1

    def test_perturbed_nonce_rejected(self, toy_key):
        report = variant2_verify(toy_key.public(), Variant2Signature(3, 10, 9))
        assert not report.valid
        assert report.op_counts == (7, 3)

    def test_blum_key_required(self):
        key = KeyPair.from_primes("general", 13, 17, IDENTITY)
        with pytest.raises(ValueError):
            variant2_sign(key, 2)


class TestVariant2NonceLeak:
    """Publishing R**2 instead of R**3 exposes the hidden padding value."""

    def test_squared_nonce_leaks_a_factor_exhaustively(self, toy_key):
        n = 77
        for m in range(1, n):
            if math.gcd(m, n) != 1:
                continue
            h = m  # identity redundancy
            padding = (jacobi(h, 7) * 22 + jacobi(h, 11) * 56) % n
            root = [r for r in all_roots(h * padding % n, RING77)][0]
            for nonce in range(1, n):
                if math.gcd(nonce, n) != 1:
                    continue
                f_val = nonce * root % n
                r2 = nonce * nonce % n  # the weakened signature publishes this
                leaked = f_val * f_val % n * mod_inv(r2 * h % n, n) % n
                assert leaked == padding
                if padding not in (1, n - 1):
                    assert math.gcd(leaked + 1, n) in (7, 11)

    def test_mixed_class_messages_exist(self):
        # the leak matters because some messages genuinely use nontrivial padding
        mixed = [m for m in range(1, 77) if math.gcd(m, 77) == 1 and jacobi(m, 7) != jacobi(m, 11)]
        assert len(mixed) == 30


class TestRW:
    def test_sign_toy_vector(self, rw_toy_key):
        sig = rw_sign(rw_toy_key, 5)
        assert sig == RWSignature(5, 76, 2, 6)  # e = -1, emitted as N-1
        assert 76 * 2 * 36 % 77 == 5

    def test_residue_message_needs_no_correction(self, rw_toy_key):
        sig = rw_sign(rw_toy_key, 4)
        assert (sig.e, sig.f) == (1, 1)

    def test_exactly_one_multiplier_pair_per_message(self, rw_toy_key):
        n = 77
        for m in range(1, n):
            if math.gcd(m, n) != 1:
                continue
            good = [
                (e, f)
                for e in (1, n - 1)
                for f in (1, 2)
                if m * mod_inv(e * f % n, n) % n in QR77
            ]
            assert len(good) == 1
            assert (rw_sign(rw_toy_key, m).e, rw_sign(rw_toy_key, m).f) == good[0]

    def test_verify_toy_vector(self, rw_toy_key):
        assert rw_verify(rw_toy_key.public(), RWSignature(5, 76, 2, 6)).valid
        # -1 is a second encoding of the sign N-1, so it is out of range
        report = rw_verify(rw_toy_key.public(), RWSignature(5, -1, 2, 6))
        assert not report.valid
        assert report.failed_check == "component range" and report.op_counts == (0, 0)

    def test_multiplier_range_enforced(self, rw_toy_key):
        for e, f in ((76, 3), (76, 0), (76, 79), (2, 2), (153, 2)):
            report = rw_verify(rw_toy_key.public(), RWSignature(5, e, f, 6))
            assert not report.valid
            assert report.failed_check == "component range" and report.op_counts == (0, 0)

    def test_wrong_sign_rejected(self, rw_toy_key):
        report = rw_verify(rw_toy_key.public(), RWSignature(5, 1, 2, 6))
        assert not report.valid
        assert report.failed_check == "verification equation"

    def test_serialised_sign_convention_accepted(self, rw_toy_key):
        assert rw_verify(rw_toy_key.public(), RWSignature(5, 76, 2, 6)).valid

    def test_rw_key_required(self, rng):
        key = gen_keypair("blum", 16, IDENTITY, rng)
        if not schemes.SCHEMES["rw"].key_ok(key):
            with pytest.raises(ValueError):
                rw_sign(key, 5)


SCHEMES_AND_KINDS = (
    ("classic", "general"),
    ("general", "general"),
    ("variant1", "blum"),
    ("variant2", "blum"),
    ("rw", "rw"),
)


def _general_key_on_primes(rng, constraint: str, p_residue: int, q_residue: int) -> KeyPair:
    # 32-bit primes meeting the constraint, p = p_residue and q = q_residue mod 8
    p = q = 0
    while p % 8 != p_residue:
        p = gen_prime(32, constraint, rng)
    while q % 8 != q_residue:
        q = gen_prime(32, constraint, rng)
    idem = numtheory.crt_idempotents(p, q)
    return KeyPair.from_primes("general", p, q, IDENTITY, build_padding_set(p, q, idem.psi1, idem.psi2, rng))


class TestJacobiBudget:
    """Signing takes no Jacobi symbol, and only its half-size modexps: one per prime, for every signer.

    Each signer reads the class of H(m) from the root exponentiation itself
    (numtheory._class_root): one Tonelli-Shanks for every odd prime, which
    sees Euler's criterion, and on a 3-mod-4 prime takes a**((p+1)/4), whose
    square is (a/p)*a.  variant1 draws U = H(m)*w**2, so H(m)*w is a root of
    H(m)*U, and its one root per prime is that of (U+1)*S, whose class sets
    the sign of S (numtheory._binding_root).  The only Jacobi symbols left
    are the least-non-residue search of a 1-mod-4 prime, made once when the
    key builds its constants.
    The other constants take one modexp each on first use: the powers of z
    on a 1-mod-4 prime (for z = -1 on a 3-mod-4 prime they take none) and
    2**(-(p+1)/4), which the key's ring computes.  The root of each padding
    element is no such constant: the key's padding set carries it, and
    KeyPair.from_primes fills it in for a set without roots.  TestColdKeys
    pins that a loaded key's first signature takes at most one of them per
    prime.
    """

    KEYS = {kind: gen_keypair(kind, 64, IDENTITY, random.Random(f"budget/{kind}")) for kind in ("blum", "rw")}
    # p = 1 mod 8 and q = 5 mod 8, so both roots take Tonelli-Shanks; then two 3-mod-4 primes
    KEYS["general"] = _general_key_on_primes(random.Random("budget/general"), "none", 1, 5)
    KEYS["general-3mod4"] = _general_key_on_primes(random.Random("budget/general-3mod4"), "3mod4", 3, 7)

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        real = numtheory.jacobi

        def counted(a, n):
            made.append(n)
            return real(a, n)

        # numtheory's own calls go through its module global, other modules' through the name they imported
        for module in (numtheory, schemes):
            monkeypatch.setattr(module, "jacobi", counted, raising=False)
        return made

    @pytest.fixture
    def modexps(self, monkeypatch):
        made = []

        def counted(base, exp, mod=None):
            # a full-size modexp: an exponent of more than a quarter of the modulus' bits; the
            # Tonelli-Shanks correction steps, inverses and variant2's cube are far smaller
            if mod is not None and abs(exp).bit_length() * 4 > mod.bit_length():
                made.append(mod)
            return pow(base, exp, mod)

        # a module global named pow shadows the builtin for that module's calls; counted stands in for
        # _modexp too, so a modexp that _modexp would hand to libcrypto is counted as one by pow is
        for module in (numtheory, schemes):
            monkeypatch.setattr(module, "pow", counted, raising=False)
        monkeypatch.setattr(numtheory, "_modexp", counted)
        return made

    @pytest.fixture
    def nonresidue_searches(self, monkeypatch):
        made = []
        real = numtheory.least_nonresidue

        def counted(p):
            made.append(p)
            return real(p)

        monkeypatch.setattr(numtheory, "least_nonresidue", counted)
        return made

    @staticmethod
    def warm(key, scheme, rng):
        # one signature per class ((h/p), (h/q)), so every lazily built constant exists afterwards
        for target in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            m = next(m for m in range(2, key.n) if (jacobi(m, key.p), jacobi(m, key.q)) == target)
            assert verify(key, sign(key, m, scheme, rng=rng)).valid

    @pytest.mark.parametrize("scheme", ["classic", "general"])
    def test_signers_on_1_mod_4_primes_reuse_the_key_constants(self, calls, nonresidue_searches, rng, scheme):
        key = self.KEYS["general"]
        assert verify(key, sign(key, 5, "classic", rng=rng)).valid  # the first signature builds them
        nonresidue_searches.clear()
        calls.clear()
        for _ in range(30):
            assert verify(key, sign(key, rng.randrange(2, key.n), scheme, rng=rng)).valid
        assert calls == []
        assert nonresidue_searches == []

    def test_canonical_root_on_1_mod_4_primes_needs_none(self, calls, rng):
        key = self.KEYS["general"]
        assert verify(key, sign(key, 5, "classic", rng=rng)).valid
        calls.clear()
        for _ in range(50):
            x = rng.randrange(1, key.n)
            assert canonical_sqrt_mod_pq(x * x % key.n, key.idem) ** 2 % key.n == x * x % key.n
        assert calls == []

    def test_canonical_root_on_blum_primes_needs_none(self, calls, rng):
        key = self.KEYS["blum"]
        for _ in range(50):
            x = rng.randrange(1, key.n)
            assert canonical_sqrt_mod_pq(x * x % key.n, key.idem) ** 2 % key.n == x * x % key.n
        assert calls == []

    @pytest.mark.parametrize("scheme,kind,budget", [
        ("variant2", "blum", 2), ("rw", "rw", 2), ("variant1", "blum", 2),
        ("classic", "blum", 2), ("classic", "rw", 2), ("classic", "general", 2), ("classic", "general-3mod4", 2),
        ("general", "general", 2), ("general", "general-3mod4", 2),
    ])
    def test_signers_stay_within_budget(self, calls, modexps, rng, scheme, kind, budget):
        # budget is the signer's floor in half-size modexps: one root per prime
        key = self.KEYS[kind]
        assert verify(key, sign(key, 5, scheme, rng=rng)).valid  # a first signature builds the key's constants
        calls.clear()
        self.warm(key, scheme, rng)  # the Jacobi symbols it takes itself go through the name imported here
        for _ in range(30):
            modexps.clear()
            assert verify(key, sign(key, rng.randrange(2, key.n), scheme, rng=rng)).valid
            assert sorted(modexps) == sorted([key.p, key.q] * (budget // 2))
        assert calls == []


CLASSES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class TestColdKeys:
    """A key fresh from parse_key signs its first message at the signer's floor, plus its primes' constants.

    Its first signature, in every class ((h/p), (h/q)), takes the full-size
    modexps that any later one takes, one per prime for every signer, and
    at most one more per prime, for a constant the ring computes on first
    use: z**exp on a 1-mod-4 prime whose Tonelli-Shanks steps need the
    powers of z, and 2**(-(p+1)/4) on an rw key when the classes differ,
    which take f = 2.  The constants of a 3-mod-4 prime (z = -1 and its
    powers) take no exponentiation, and a general key's file holds the root
    of each padding element.  A key fresh from gen_keypair keeps the
    constants its padding roots built, and signs its first message at the
    floor.  No first signature takes an inverse mod a prime.
    """

    modexps = TestJacobiBudget.modexps  # counted as the budget counts them

    @pytest.mark.parametrize("scheme,kind,target", [
        *(("variant2", "blum", target) for target in CLASSES),
        *(("variant1", "blum", target) for target in CLASSES),
        # classes that differ take f = 2, and 2**(-(p+1)/4)
        *(("rw", "rw", target) for target in ((1, 1), (-1, -1), (1, -1), (-1, 1))),
        *(("general", "general-3mod4", target) for target in CLASSES),
        *(("general", "general", target) for target in CLASSES),
    ])
    def test_first_signature_takes_the_floor_and_its_constants(self, modexps, rng, scheme, kind, target):
        key = TestJacobiBudget.KEYS[kind]
        m = next(m for m in range(2, key.n) if (jacobi(m, key.p), jacobi(m, key.q)) == target)
        cold = parse_key(dump_private(key))
        primes = (cold.idem.at_p, cold.idem.at_q)
        assert not any(c in vars(at) for at in primes for c in ("z_powers", "half_root"))  # the load computes none
        modexps.clear()  # the proofs parse_key checks take modexps of their own
        sig = sign(cold, m, scheme, rng=rng)
        built = [(at.p, c) for at in primes for c in ("z_powers", "half_root")
                 if c in vars(at) and (c, at.p % 4) != ("z_powers", 3)]  # z = -1 takes no modexp
        needed = {(at.p, "z_powers") for at in primes if at.p % 4 == 1}
        if scheme == "rw" and target[0] != target[1]:
            needed = {(at.p, "half_root") for at in primes}
            assert set(built) == needed
        assert set(built) <= needed
        assert sorted(modexps) == sorted([key.p, key.q] + [prime for prime, _ in built])
        assert verify(key, sig).valid

    @pytest.mark.parametrize("target", CLASSES)
    def test_a_fresh_general_key_keeps_the_constants_of_its_padding_roots(self, modexps, rng, target):
        # gen_keypair hands the key the powers of z that the roots of its padding multipliers built;
        # the first 64-bit key whose primes are both 1 mod 4, so that each has a z**exp
        key = next(key for key in (gen_keypair("general", 64, IDENTITY, random.Random(f"fresh/{target}/{i}"))
                                   for i in itertools.count()) if key.p % 4 == key.q % 4 == 1)
        m = next(m for m in range(2, key.n) if (jacobi(m, key.p), jacobi(m, key.q)) == target)
        modexps.clear()
        sig = sign(key, m, "general", rng=rng)
        assert sorted(modexps) == sorted([key.p, key.q])
        assert verify(key, sig).valid

    @pytest.fixture
    def inverses(self, monkeypatch):
        made = []

        def counted(base, exp, mod=None):
            if exp < 0:
                made.append(mod)
            return pow(base, exp, mod)

        for module in (numtheory, schemes):
            monkeypatch.setattr(module, "pow", counted, raising=False)
        return made

    def test_a_fresh_general_key_signs_on_the_ring_that_built_it(self, inverses, rng):
        # gen_keypair builds one ring, whose psi1 its padding set took, and the key signs on it
        key = gen_keypair("general", 64, IDENTITY, random.Random("one-ring"))
        inverses.clear()
        for target in CLASSES:
            m = next(m for m in range(2, key.n) if (jacobi(m, key.p), jacobi(m, key.q)) == target)
            assert verify(key, sign(key, m, "general", rng=rng)).valid
        assert inverses == []

    @pytest.mark.parametrize("scheme,kind", [("classic", "general"), ("general", "general"),
                                             ("variant1", "blum"), ("variant2", "blum"), ("rw", "rw")])
    def test_a_loaded_key_signs_with_the_idempotents_of_its_file(self, inverses, rng, scheme, kind):
        key = TestJacobiBudget.KEYS[kind]
        cold = parse_key(dump_private(key))
        inverses.clear()
        for target in CLASSES:
            m = next(m for m in range(2, key.n) if (jacobi(m, key.p), jacobi(m, key.q)) == target)
            assert verify(key, sign(cold, m, scheme, rng=rng)).valid
        assert inverses == []


class TestZeroComponents:
    """A component that is 0 mod N never verifies, under any redundancy.

    Zeros satisfy every scheme's equations when H(m) = 0 mod N (m = 0 under
    identity, m in {0, N-1} under quadratic, a digest reference to N under
    digest), and classic's and variant1's all-zero tuples for every message.
    """

    REDUNDANCIES = (IDENTITY, QUADRATIC, RedundancySpec("digest", "sha256"))

    @staticmethod
    def zero_messages(redundancy, n):
        if redundancy.tag == "identity":
            return [0]
        if redundancy.tag == "quadratic":
            return [0, n - 1]
        return [DigestRef(0), DigestRef(n)]

    @staticmethod
    def forged(scheme, m, key):
        n = key.n
        return {
            "classic": [ClassicSignature(m, 0, 0), ClassicSignature(m, n, 2 * n)],
            "general": [GeneralSignature(m, u, 0) for u in key.padding.elements] if key.padding else [],
            "variant1": [Variant1Signature(m, 0, 0, 0)],
            "variant2": [Variant2Signature(m, 0, 0), Variant2Signature(m, 0, 1), Variant2Signature(m, n, n)],
            "rw": [RWSignature(m, e, f, 0) for e in (1, -1) for f in (1, 2)],
        }[scheme]

    @pytest.mark.parametrize("redundancy", REDUNDANCIES, ids=lambda r: r.token)
    @pytest.mark.parametrize("scheme,key_fixture", [("classic", "general_toy_key"), ("general", "general_toy_key"),
                                                    ("variant1", "toy_key"), ("variant2", "toy_key"),
                                                    ("rw", "rw_toy_key")])
    def test_zero_component_rejected(self, scheme, key_fixture, redundancy, request):
        key = dataclasses.replace(request.getfixturevalue(key_fixture), redundancy=redundancy)
        pub = key.public()
        elements = key.padding.elements if key.padding else ()
        messages = self.zero_messages(redundancy, key.n)
        if redundancy.tag != "digest":
            messages += [5, 12]
        for m in messages:
            for sig in self.forged(scheme, m, key):
                report = verify(pub, sig)
                assert not report.valid, sig
                assert report.failed_check == "component range" and report.op_counts == (0, 0)
                assert not brute_valid(sig, key.n, redundancy, elements)

    def test_classic_and_variant1_zeros_are_rejected_for_every_message(self, toy_key):
        for m in range(77):
            assert not verify(toy_key, ClassicSignature(m, 0, 0)).valid
            assert not verify(toy_key, Variant1Signature(m, 0, 0, 0)).valid


def _encoding_keys():
    # 136-bit primes, so N > 2**256: below that a digest equal to another mod N
    # is a collision of the redundancy, not a second encoding of one signature
    rng = random.Random("one-encoding")
    return {kind: gen_keypair(kind, 136, IDENTITY, rng) for kind in ("general", "blum", "rw")}


class TestOneEncoding:
    """Every signature has one valid encoding: the one its signer emits.

    Adding k*N (k >= 1) to a component of an honest signature, or to its
    message (the digest reference of a signature file under digest
    redundancy), keeps every equation true mod N; the verifier and
    brute_valid refuse the copy by the range rule alone.
    """

    KEYS = _encoding_keys()
    REDUNDANCIES = (IDENTITY, QUADRATIC, RedundancySpec("digest", "sha256"))

    @pytest.mark.parametrize("redundancy", REDUNDANCIES, ids=lambda r: r.token)
    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1 << 32), k=st.one_of(st.just(1), st.integers(1, 1 << 80)), pick=st.integers(0, 4))
    def test_no_re_encoding_verifies(self, scheme, kind, redundancy, seed, k, pick):
        key = dataclasses.replace(self.KEYS[kind], redundancy=redundancy)
        n, pub = key.n, key.public()
        elements = key.padding.elements if key.padding else ()
        rng = random.Random(seed)
        sig = sign(key, rng.randbytes(16) if redundancy.tag == "digest" else rng.randrange(n), scheme, rng=rng)
        if isinstance(sig.m, bytes):  # the form a signature file holds
            sig = dataclasses.replace(sig, m=DigestRef(digest_int(redundancy, sig.m)))
        assert verify(pub, sig).valid and brute_valid(sig, n, redundancy, elements)
        names = schemes.SCHEMES[scheme].components
        name = names[pick % len(names)]
        copies = [dataclasses.replace(sig, **{name: getattr(sig, name) + k * n})]
        if isinstance(sig.m, DigestRef):
            copies.append(dataclasses.replace(sig, m=DigestRef(sig.m.digest_int + k * n)))
        else:
            copies.append(dataclasses.replace(sig, m=sig.m + k * n))
        for copy in copies:
            report = verify(pub, copy)
            assert not report.valid and report.failed_check == "component range", copy
            assert not brute_valid(copy, n, redundancy, elements)

    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_negative_message_is_invalid(self, scheme, kind, rng):
        key = self.KEYS[kind]
        sig = dataclasses.replace(sign(key, 5, scheme, rng=rng), m=-1)
        for redundancy in self.REDUNDANCIES:
            key = dataclasses.replace(key, redundancy=redundancy)
            report = verify(key.public(), sig)
            assert not report.valid and report.failed_check == "component range"
            assert not brute_valid(sig, key.n, redundancy, key.padding.elements if key.padding else ())

    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_signers_refuse_what_the_verifiers_refuse(self, scheme, kind, rng):
        key = self.KEYS[kind]
        digest_key = dataclasses.replace(key, redundancy=RedundancySpec("digest", "sha256"))
        for k, m in ((key, -1), (key, key.n), (key, key.n + 5), (digest_key, -1), (digest_key, DigestRef(1 << 256)),
                     (digest_key, DigestRef(-1)), (key, DigestRef(5)), (key, b"bytes")):
            with pytest.raises(UnsignableMessageError):
                sign(k, m, scheme, rng=rng)
        assert verify(digest_key, sign(digest_key, DigestRef((1 << 256) - 1), scheme, rng=rng)).valid
        assert verify(digest_key, sign(digest_key, key.n + 5, scheme, rng=rng)).valid  # any integer under digest


class TestRoundTrip:
    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_sampled_roundtrip(self, scheme, kind, rng):
        for _ in range(5):
            key = gen_keypair(kind, 48, IDENTITY, rng)
            for _ in range(4):
                m = rng.randrange(1, key.n)
                if math.gcd(m, key.n) != 1:
                    continue
                sig = sign(key, m, scheme, rng=rng)
                assert verify(key.public(), sig).valid

    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_tamper_detection(self, scheme, kind, rng):
        key = gen_keypair(kind, 48, IDENTITY, rng)
        mutable = {
            "classic": ("m", "U", "S"),
            "general": ("m", "u", "S"),
            "variant1": ("m", "U", "S", "T"),
            "variant2": ("m", "F", "R3"),
            "rw": ("m", "S"),
        }[scheme]
        for _ in range(20):
            m = rng.randrange(1, key.n)
            if math.gcd(m, key.n) != 1:
                continue
            sig = sign(key, m, scheme, rng=rng)
            name = rng.choice(mutable)
            fresh = rng.randrange(2, key.n)
            if fresh == getattr(sig, name):
                continue
            tampered = dataclasses.replace(sig, **{name: fresh})
            assert not verify(key.public(), tampered).valid

    def test_quadratic_redundancy_roundtrip(self, rng):
        key = gen_keypair("blum", 48, QUADRATIC, rng)
        for scheme in ("classic", "variant1", "variant2"):
            sig = sign(key, 12345, scheme, rng=rng)
            assert verify(key.public(), sig).valid

    def test_digest_redundancy_roundtrip_with_bytes(self, rng):
        key = gen_keypair("blum", 48, RedundancySpec("digest", "sha256"), rng)
        sig = sign(key, b"attack at dawn", "variant2", rng=rng)
        assert verify(key.public(), sig).valid


class TestDispatch:
    """sign() finds `<tag>_sign` by name when it runs, and verify() reads _VERIFIERS, so a swapped function runs."""

    def test_sign_calls_the_module_s_signer(self, rw_toy_key, monkeypatch):
        calls, rng = [], random.Random(1)

        def signer(key, m, rng=None):
            calls.append((key, m, rng))
            return "signed"

        monkeypatch.setattr(schemes, "rw_sign", signer)
        assert sign(rw_toy_key, 5, "rw", rng=rng) == "signed"
        assert calls == [(rw_toy_key, 5, rng)]

    def test_verify_calls_the_table_s_verifier(self, rw_toy_key, monkeypatch):
        sig, report = rw_sign(rw_toy_key, 5), schemes.VerifyReport(False, "stand-in")
        monkeypatch.setitem(schemes._VERIFIERS, RWSignature, lambda pub, s: report)
        assert verify(rw_toy_key.public(), sig) is report

    def test_unknown_scheme(self, toy_key):
        with pytest.raises(ValueError, match="unknown scheme 'nope'"):
            sign(toy_key, 5, "nope")


class TestSignatureFiles:
    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_round_trip_is_byte_exact(self, scheme, kind, rng):
        key = gen_keypair(kind, 32, IDENTITY, rng)
        m = 5 if math.gcd(5, key.n) == 1 else 9
        sig = sign(key, m, scheme, rng=rng)
        text = dump_signature(sig, key.public())
        parsed = parse_signature(text)
        assert verify(key.public(), parsed).valid
        assert dump_signature(parsed, key.public()) == text

    def test_rw_sign_encoded_as_n_minus_one(self, rw_toy_key):
        sig = rw_sign(rw_toy_key, 5)
        assert sig.e == 76
        text = dump_signature(sig, rw_toy_key.public())
        assert "e = 76" in text
        parsed = parse_signature(text)
        assert parsed.e == 76
        assert rw_verify(rw_toy_key.public(), parsed).valid

    def test_byte_message_stored_by_digest_reference(self, rng):
        key = gen_keypair("blum", 48, RedundancySpec("digest", "sha256"), rng)
        sig = sign(key, b"payload", "variant2", rng=rng)
        text = dump_signature(sig, key.public())
        assert "message-digest = " in text
        parsed = parse_signature(text)
        assert isinstance(parsed.m, DigestRef)
        assert verify(key.public(), parsed).valid

    def test_malformed_files_rejected(self, toy_key):
        good = dump_signature(Variant2Signature(3, 10, 8), toy_key.public())
        for bad in (
            "rabin-sig v2\n",
            good.replace("scheme = variant2", "scheme = variant9"),
            good.replace("message = 3\n", ""),
            good.replace("F = 10", "F = ten"),
            good + "extra = 1\n",
            good + "message-digest = 5\n",
            good.replace("message = 3", "message = -3"),
            good.replace("R3 = 8", "R3 = -8"),
            good.replace("message = 3", "message-digest = -3"),
            good.replace("message = 3", "message = 0_3"),
            good.replace("message = 3", "message = +3"),
            good.replace("message = 3", "message = \u0663"),  # Arabic-Indic three
            good.replace("message = 3", "message = 03"),
            good.replace("F = 10", "F = 1_0"),
        ):
            with pytest.raises(SignatureFormatError):
                parse_signature(bad)
        assert parse_signature(good.replace("message = 3", "message = 0")).m == 0


class TestFailedVerdictCounts:
    """Each failing branch reports the squares and products it spent before failing.

    Verdicts are shared between verifications with the same outcome, so a
    failure must not carry the counts of a pass or of another branch.
    """

    CASES = (  # (key fixture, signature, failed check, (squares, products))
        ("toy_key", ClassicSignature(5, 59, 9), "signature equation", (1, 1)),
        ("general_toy_key", GeneralSignature(5, 3, 14), "signature equation", (1, 1)),
        ("general_toy_key", GeneralSignature(5, 4, 13), "membership", (0, 0)),
        ("rw_toy_key", RWSignature(5, 76, 2, 7), "verification equation", (1, 1)),
        ("rw_toy_key", RWSignature(5, 1, 2, 6), "verification equation", (1, 1)),
        ("toy_key", Variant1Signature(3, 59, 67, 5), "T equation", (1, 1)),
        ("toy_key", Variant1Signature(4, 59, 67, 4), "S equation", (2, 2)),  # T**2 = (U+1)*S still holds
        ("toy_key", Variant2Signature(3, 10, 9), "verification equation", (7, 3)),
        ("toy_key", ClassicSignature(5, 0, 8), "component range", (0, 0)),
        ("general_toy_key", GeneralSignature(5, 3, 77), "component range", (0, 0)),
        ("toy_key", Variant1Signature(3, 59, 67, 0), "component range", (0, 0)),
        ("toy_key", Variant2Signature(77, 10, 8), "component range", (0, 0)),
        ("rw_toy_key", RWSignature(5, 76, 2, 0), "component range", (0, 0)),
        # the range rule is checked before general's membership and before rw's equation
        ("general_toy_key", GeneralSignature(5, 4, 77), "component range", (0, 0)),
        ("general_toy_key", GeneralSignature(77, 4, 13), "component range", (0, 0)),
        ("rw_toy_key", RWSignature(5, 2, 2, 6), "component range", (0, 0)),
    )
    HONEST = {  # a valid signature of each type under the same keys, and its counts
        ClassicSignature: ("toy_key", ClassicSignature(5, 59, 8), (1, 1)),
        GeneralSignature: ("general_toy_key", GeneralSignature(5, 3, 13), (1, 1)),
        RWSignature: ("rw_toy_key", RWSignature(5, 76, 2, 6), (1, 1)),
        Variant1Signature: ("toy_key", Variant1Signature(3, 59, 67, 4), (2, 2)),
        Variant2Signature: ("toy_key", Variant2Signature(3, 10, 8), (7, 3)),
    }

    @pytest.mark.parametrize("key_fixture,sig,check,counts", CASES)
    def test_failing_branch(self, key_fixture, sig, check, counts, request):
        honest_fixture, honest, honest_counts = self.HONEST[type(sig)]
        honest_pub = request.getfixturevalue(honest_fixture).public()
        pub = request.getfixturevalue(key_fixture).public()
        for _ in range(2):  # a failure after a pass, and a pass after a failure
            report = verify(pub, sig)
            assert (report.valid, report.failed_check, report.op_counts) == (False, check, counts)
            passed = verify(honest_pub, honest)
            assert (passed.valid, passed.failed_check, passed.op_counts) == (True, None, honest_counts)

    def test_blind_signature(self):
        report = verify_blind_signature(BlindSignature(3, 10, 9), 77)
        assert (report.valid, report.failed_check, report.op_counts) == (False, "verification equation", (7, 3))
        report = verify_blind_signature(BlindSignature(3, 0, 8), 77)
        assert (report.valid, report.failed_check, report.op_counts) == (False, "component range", (0, 0))
        report = verify_blind_signature(BlindSignature(3, 10, 8), 77)
        assert (report.valid, report.failed_check, report.op_counts) == (True, None, (7, 3))


class TestExhaustiveAgreement:
    """Every signable message on the toy ring, against the defining equations."""

    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_toy_ring(self, scheme, kind, rng):
        from rabinsig.oracle import check_scheme_exhaustive

        report = check_scheme_exhaustive(scheme, RING77, IDENTITY, rng)
        assert report.ok, report.failures[:5]
        assert report.signed == 60  # phi(77) units, all signable under identity

    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_op_count_instrumentation(self, scheme, kind, rng):
        expected = {
            "classic": (1, 1),
            "general": (1, 1),
            "variant1": (2, 2),
            "variant2": (7, 3),
            "rw": (1, 1),
        }[scheme]
        key = gen_keypair(kind, 32, IDENTITY, rng)
        m = next(m for m in range(2, 100) if math.gcd(m, key.n) == 1)
        report = verify(key.public(), sign(key, m, scheme, rng=rng))
        assert report.valid
        assert report.op_counts == expected

    def test_a_lying_verifier_is_caught(self, monkeypatch, rng):
        from rabinsig.oracle import check_scheme_exhaustive

        monkeypatch.setattr(schemes, "verify", lambda pub, sig: schemes.VerifyReport(True))
        report = check_scheme_exhaustive("classic", RING77, IDENTITY, rng)
        assert not report.ok
        assert report.failures and all("verifier disagrees with brute force" in f for f in report.failures)


DIGEST = RedundancySpec("digest", "sha256")
REDUNDANCIES = (IDENTITY, QUADRATIC, DIGEST)


def flip_the_root_mod(monkeypatch, q: int):
    """A signer fault in one CRT half: every root numtheory._class_root takes mod q gets its lowest bit flipped.

    Every signer takes its roots through that module global (_class_roots,
    sqrt_mod_pq, _PrimeRoots.root_over_class), so each then computes a
    signature that holds mod the other prime only.
    """
    real = numtheory._class_root

    def faulty(a, c):
        symbol, x = real(a, c)
        return symbol, x ^ 1 if c.p == q else x

    monkeypatch.setattr(numtheory, "_class_root", faulty)


class TestSignersCheckTheirOutput:
    """No signer releases a signature that fails its own equation.

    A fault in one CRT half gives a signature that holds mod p only, and
    the gcd of its verification residue with N is p (Boneh, DeMillo and
    Lipton, EUROCRYPT 1997).  Each signer checks its output by its
    verifier's full rule (schemes._checked), range rule included, and raises
    FactorLeakError, with no number in its message, instead of returning it.
    """

    KEYS = {kind: gen_keypair(kind, 128, DIGEST, random.Random(f"fault/{kind}")) for kind in ("general", "blum", "rw")}

    @pytest.mark.parametrize("scheme,kind", SCHEMES_AND_KINDS)
    def test_a_fault_in_one_crt_half_is_withheld(self, monkeypatch, rng, scheme, kind):
        key = self.KEYS[kind]
        for m in (b"a", b"b", b"c", b"d"):
            assert verify(key.public(), sign(key, m, scheme, rng=rng)).valid
        flip_the_root_mod(monkeypatch, key.q)
        for m in (b"a", b"b", b"c", b"d"):
            with pytest.raises(FactorLeakError) as exc:
                sign(key, m, scheme, rng=rng)
            assert not any(ch.isdigit() for ch in str(exc.value))

    @pytest.mark.parametrize("scheme,kind", [pair for pair in SCHEMES_AND_KINDS if pair[0] != "variant2"])
    def test_a_root_raised_by_n_is_withheld(self, monkeypatch, rng, scheme, kind):
        # its equation still holds mod N, and only the range rule refuses it; variant2 reduces F = R*S mod N
        key = self.KEYS[kind]
        real = schemes._canonical_lift
        monkeypatch.setattr(schemes, "_canonical_lift", lambda *args: real(*args) + key.n)
        with pytest.raises(FactorLeakError):
            sign(key, b"a", scheme, rng=rng)

    def test_the_blind_signer_withholds_a_faulty_answer(self, monkeypatch, rng):
        key = self.KEYS["blum"]
        disguised = [x * x % key.n for x in (3, 5, 7, 11)]
        for d in disguised:
            assert verify_blind_signature(blind_sign(key, d, rng), key.n).valid
        flip_the_root_mod(monkeypatch, key.q)
        for d in disguised:
            with pytest.raises(FactorLeakError) as exc:
                blind_sign(key, d, rng)
            assert not any(ch.isdigit() for ch in str(exc.value))

    def test_signers_do_not_call_the_verifiers(self, monkeypatch, rng):
        # the check is the private schemes._checked, so a traced verifier's call count stays the verifications made
        called = []

        def counted(name, real):
            return lambda *args: called.append(name) or real(*args)

        monkeypatch.setattr(schemes, "verify", counted("verify", schemes.verify))
        for tag, scheme in schemes.SCHEMES.items():
            real = getattr(schemes, f"{tag}_verify")
            monkeypatch.setattr(schemes, f"{tag}_verify", counted(tag, real))
            monkeypatch.setitem(schemes._VERIFIERS, scheme.sig_type, counted(tag, real))
        for scheme, kind in SCHEMES_AND_KINDS:
            sign(self.KEYS[kind], b"m", scheme, rng=rng)
        blind_sign(self.KEYS["blum"], 9, rng)
        assert called == []


@functools.cache
def _real_size_key(kind: str, bits: int, token: str) -> KeyPair:
    key = gen_keypair(kind, bits, IDENTITY, random.Random(f"real-size/{kind}/{bits}"))
    return dataclasses.replace(key, redundancy=RedundancySpec.from_token(token))


def _edits(value, n):
    # a component's +-1 perturbations and its negation mod n
    return value + 1, value - 1, n - value


class TestAgreementAtRealSizes:
    """The verifiers against plain pow() at 128-bit and 512-bit primes.

    The exhaustive oracle stops at N = 437; these catch a sign slip or an
    operand left unreduced that only shows at full size, such as rw's -h
    or variant1's U+1 = N.
    """

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_verifier_agrees_with_brute_valid(self, data):
        scheme, kind = data.draw(st.sampled_from(SCHEMES_AND_KINDS))
        redundancy = data.draw(st.sampled_from(REDUNDANCIES))
        key = _real_size_key(kind, data.draw(st.sampled_from((128, 512))), redundancy.token)
        pub, n = key.public(), key.n
        try:
            sig = sign(key, data.draw(st.integers(0, n - 1)), scheme, rng=random.Random(data.draw(st.integers(0))))
        except UnsignableMessageError:
            reject()
        elements = key.padding.elements if key.padding else ()
        variants = [sig, apply_scaling(sig, data.draw(st.integers(2, n - 1)), n)]
        for f in dataclasses.fields(sig):
            variants += [dataclasses.replace(sig, **{f.name: x}) for x in _edits(getattr(sig, f.name), n)]
        assert verify(pub, sig).valid
        for variant in variants:
            assert verify(pub, variant).valid == brute_valid(variant, n, redundancy, elements), variant

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_the_blind_verifier_agrees_with_plain_pow(self, data):
        key = _real_size_key("blum", data.draw(st.sampled_from((128, 512))), "identity")
        n = key.n
        x = data.draw(st.integers(2, n - 1))
        if math.gcd(x, n) != 1:
            reject()
        bsig = blind_sign(key, x * x % n, random.Random(data.draw(st.integers(0))))
        variants = [bsig, apply_scaling(bsig, data.draw(st.integers(2, n - 1)), n)]
        for name in ("disguised", "F", "R3"):
            variants += [dataclasses.replace(bsig, **{name: v}) for v in _edits(getattr(bsig, name), n)]
        assert verify_blind_signature(bsig, n).valid
        for v in variants:
            expected = (0 < v.F < n and 0 < v.R3 < n and 0 < v.disguised < n
                        and pow(v.F, 12, n) == pow(v.R3, 4, n) * pow(v.disguised, 6, n) % n)
            assert verify_blind_signature(v, n).valid == expected, v
