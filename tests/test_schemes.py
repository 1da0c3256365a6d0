import dataclasses
import math
import random

import pytest

from rabinsig.errors import SignatureFormatError, UnsignableMessageError
from rabinsig.hashing import IDENTITY, QUADRATIC, DigestRef, RedundancySpec
from rabinsig.keygen import KeyPair, build_padding_set, gen_keypair, gen_prime
from rabinsig import numtheory, schemes
from rabinsig.numtheory import canonical_sqrt_mod_pq, jacobi, mod_inv
from rabinsig.oracle import SmallRing, all_roots, brute_valid, qr_set
from rabinsig.schemes import (
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

from conftest import SeqRng

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
        with pytest.raises(ValueError):
            general_sign(toy_key, 5)
        # the published set carries no classes to select by
        public_only = dataclasses.replace(general_toy_key, padding=general_toy_key.public().padding)
        with pytest.raises(ValueError):
            general_sign(public_only, 5)


class TestVariant1:
    def test_sign_toy_vector(self, toy_key):
        sig = variant1_sign(toy_key, 3, rng=SeqRng(2))
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
        # m=2 has class (+1, -1); the nonce R=1 would give U = psi1 - psi2 = 43,
        # one of the factor-revealing unity roots, so signing must re-draw.
        sig = variant1_sign(toy_key, 2, rng=SeqRng(1, 2))
        assert sig.U not in (43, 34)
        assert variant1_verify(toy_key.public(), sig).valid

    def test_blum_key_required(self):
        key = KeyPair.from_primes("general", 13, 17, IDENTITY)
        with pytest.raises(ValueError):
            variant1_sign(key, 2)


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
        assert sig == RWSignature(5, -1, 2, 6)
        assert -1 * 2 * 36 % 77 == 5

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
                for e in (1, -1)
                for f in (1, 2)
                if m * mod_inv(e * f % n, n) % n in QR77
            ]
            assert len(good) == 1
            assert (rw_sign(rw_toy_key, m).e, rw_sign(rw_toy_key, m).f) == good[0]

    def test_verify_toy_vector(self, rw_toy_key):
        report = rw_verify(rw_toy_key.public(), RWSignature(5, -1, 2, 6))
        assert report.valid

    def test_multiplier_range_enforced(self, rw_toy_key):
        report = rw_verify(rw_toy_key.public(), RWSignature(5, -1, 3, 6))
        assert not report.valid
        assert report.failed_check == "multiplier range"

    def test_wrong_sign_rejected(self, rw_toy_key):
        report = rw_verify(rw_toy_key.public(), RWSignature(5, 1, 2, 6))
        assert not report.valid
        assert report.failed_check == "verification equation"

    def test_serialised_sign_convention_accepted(self, rw_toy_key):
        assert rw_verify(rw_toy_key.public(), RWSignature(5, 76, 2, 6)).valid

    def test_rw_key_required(self, rng):
        key = gen_keypair("blum", 16, IDENTITY, rng)
        if not key.is_rw:
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
    """Signing takes no Jacobi symbol, and only its half-size modexps.

    Each signer reads the class of H(m) from the root exponentiation itself
    (numtheory._class_root): on a 3-mod-4 prime a**((p+1)/4) squares to
    (a/p)*a, and on a 1-mod-4 prime Tonelli-Shanks sees Euler's criterion.
    The only Jacobi symbols left are the least-non-residue search of a
    1-mod-4 prime, made once when the key builds its constants; the other
    constants (powers of z, 2**(-(p+1)/4), a root per padding element) take
    one modexp each on first use.
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

        # a module global named pow shadows the builtin for that module's calls
        for module in (numtheory, schemes):
            monkeypatch.setattr(module, "pow", counted, raising=False)
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
            assert canonical_sqrt_mod_pq(x * x % key.n, key.p, key.q, key.idem) ** 2 % key.n == x * x % key.n
        assert calls == []

    def test_canonical_root_on_blum_primes_needs_none(self, calls, rng):
        key = self.KEYS["blum"]
        for _ in range(50):
            x = rng.randrange(1, key.n)
            assert canonical_sqrt_mod_pq(x * x % key.n, key.p, key.q, key.idem) ** 2 % key.n == x * x % key.n
        assert calls == []

    @pytest.mark.parametrize("scheme,kind,budget", [
        ("variant2", "blum", 2), ("rw", "rw", 2), ("variant1", "blum", 4),
        ("classic", "blum", 2), ("classic", "rw", 2), ("classic", "general", 2), ("classic", "general-3mod4", 2),
        ("general", "general", 2), ("general", "general-3mod4", 2),
    ])
    def test_signers_stay_within_budget(self, calls, modexps, rng, scheme, kind, budget):
        # budget is the signer's floor in half-size modexps: one root per prime, two for variant1
        key = self.KEYS[kind]
        assert verify(key, sign(key, 5, scheme, rng=rng)).valid  # a first signature builds the key's constants
        calls.clear()
        self.warm(key, scheme, rng)  # the Jacobi symbols it takes itself go through the name imported here
        for _ in range(30):
            modexps.clear()
            assert verify(key, sign(key, rng.randrange(2, key.n), scheme, rng=rng)).valid
            assert sorted(modexps) == sorted([key.p, key.q] * (budget // 2))
        assert calls == []


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
                assert report.failed_check == "zero component" and report.op_counts == (0, 0)
                assert not brute_valid(sig, key.n, redundancy, elements)

    def test_classic_and_variant1_zeros_are_rejected_for_every_message(self, toy_key):
        for m in range(77):
            assert not verify(toy_key, ClassicSignature(m, 0, 0)).valid
            assert not verify(toy_key, Variant1Signature(m, 0, 0, 0)).valid


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
        text = dump_signature(RWSignature(5, -1, 2, 6), rw_toy_key.public())
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
