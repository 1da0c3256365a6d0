import dataclasses
import math
import random

import pytest

from rabinsig.blind import (
    BlindSignature,
    blind_sign,
    disguise,
    naive_blind_sign,
    run_blind_session,
    unblind,
    verify_blind_signature,
)
from rabinsig.errors import FactorLeakError, NonResidueError, UnsignableMessageError
from rabinsig.hashing import IDENTITY, QUADRATIC, RedundancySpec, apply_redundancy
from rabinsig.keygen import gen_keypair
from rabinsig.oracle import SmallRing, all_roots
from rabinsig.schemes import sign, variant2_sign, variant2_verify

from conftest import SeqRng

RING77 = SmallRing(7, 11)


class TestDisguise:
    def test_unit_blinding_is_the_identity(self, toy_key):
        assert disguise(4, 1, toy_key.public()) == 4

    def test_square_factor_applied(self, toy_key):
        assert disguise(4, 3, toy_key.public()) == 36

    def test_quadratic_redundancy(self, toy_key_quadratic):
        # H(3) = 12, blinded by 5**2 = 25: 25 * 12 = 300 = 69 mod 77
        assert disguise(3, 5, toy_key_quadratic.public()) == 69

    def test_noninvertible_blinding_rejected(self, toy_key):
        with pytest.raises(FactorLeakError):
            disguise(4, 7, toy_key.public())

    def test_unsignable_message_rejected(self, toy_key):
        with pytest.raises(UnsignableMessageError):
            disguise(0, 3, toy_key.public())

    def test_refuses_exactly_what_the_signers_refuse(self, toy_key, toy_key_quadratic, rng):
        # m >= N under identity or quadratic redundancy, and m < 0, have no valid signature
        for key in (toy_key, toy_key_quadratic):
            for m in (-1, 77, 81, 77 * 5 + 4):
                with pytest.raises(UnsignableMessageError):
                    sign(key, m, "variant2", rng=rng)
                with pytest.raises(UnsignableMessageError):
                    disguise(m, 3, key.public())
                with pytest.raises(UnsignableMessageError):
                    run_blind_session(key, m, rng)


class TestBlindSign:
    def test_toy_vector(self, toy_key):
        bsig = blind_sign(toy_key, 36, rng=SeqRng(2))  # signer nonce R = 2
        assert bsig == BlindSignature(36, 12, 8)  # S = 6 (smallest root of 36), F = 2*6
        assert 6 == min(all_roots(36, RING77))

    def test_blind_invariant_holds(self, toy_key, rng):
        for _ in range(20):
            d = rng.randrange(2, 77)
            if math.gcd(d, 77) != 1:
                continue
            bsig = blind_sign(toy_key, d, rng=rng)
            report = verify_blind_signature(bsig, 77)
            assert report.valid
            assert report.op_counts == (7, 3)

    def test_degenerate_disguised_value_rejected(self, toy_key):
        with pytest.raises(FactorLeakError):
            blind_sign(toy_key, 7)
        with pytest.raises(FactorLeakError):
            blind_sign(toy_key, 0)

    @pytest.mark.parametrize("kind", ["blum", "rw"])
    @pytest.mark.parametrize("redundancy", [IDENTITY, RedundancySpec("digest", "sha256")],
                             ids=["identity", "digest:sha256"])
    def test_answers_h_of_m_as_variant2_signs_m_on_the_same_rng(self, kind, redundancy):
        # one answer for both signers: blind_sign(key, H(m)) draws the nonce that variant2_sign(key, m) draws
        key = gen_keypair(kind, 64, redundancy, random.Random(kind))
        for seed in range(16):
            m = b"message %d" % seed if redundancy.tag == "digest" else random.Random(seed).randrange(2, key.n)
            sig = variant2_sign(key, m, random.Random(seed))
            bsig = blind_sign(key, apply_redundancy(redundancy, m, key.n), random.Random(seed))
            assert (bsig.F, bsig.R3) == (sig.F, sig.R3)

    def test_disguised_value_outside_the_range_refused(self, toy_key):
        # its answer would echo 36 + 77, which the blind verifier refuses
        for d in (36 + 77, 36 - 77):
            with pytest.raises(UnsignableMessageError):
                blind_sign(toy_key, d)


class TestUnblind:
    def test_toy_vector_passes_triple_verification(self, toy_key):
        bsig = BlindSignature(36, 12, 8)
        published = unblind(bsig, 3, 4, toy_key.public())
        # 3**-1 = 26 mod 77: F' = 12*26**2 = 27, R3' = 8*26**3 = 6
        assert (published.F, published.R3) == (27, 6)
        assert variant2_verify(toy_key.public(), published).valid

    def test_unit_blinding_preserves_components(self, toy_key):
        bsig = blind_sign(toy_key, 36, rng=SeqRng(2))
        published = unblind(bsig, 1, 36, toy_key.public())
        assert (published.F, published.R3) == (bsig.F, bsig.R3)

    def test_noninvertible_blinding_rejected(self, toy_key):
        with pytest.raises(FactorLeakError):
            unblind(BlindSignature(36, 12, 8), 11, 4, toy_key.public())


class TestNaiveBlindSign:
    def test_returns_a_root(self, toy_key, rng):
        for _ in range(20):
            root = naive_blind_sign(toy_key, 36, rng=rng)
            assert root * root % 77 == 36

    def test_all_four_roots_appear(self, toy_key, rng):
        seen = {naive_blind_sign(toy_key, 36, rng=rng) for _ in range(200)}
        assert seen == set(all_roots(36, RING77)) == {6, 27, 50, 71}

    def test_nonresidue_refused(self, toy_key):
        with pytest.raises(NonResidueError):
            naive_blind_sign(toy_key, 3)  # 3 is a non-residue mod 7


class TestSession:
    def test_end_to_end_toy(self, toy_key, rng):
        for _ in range(50):
            m = rng.randrange(1, 77)
            if math.gcd(m, 77) != 1:
                continue
            session = run_blind_session(toy_key, m, rng)
            assert variant2_verify(toy_key.public(), session.published).valid

    def test_unlinkability_of_published_components(self, rng):
        # away from r = 1 the signer's view differs from the published pair
        key = gen_keypair("blum", 48, rng=rng)
        for _ in range(20):
            m = rng.randrange(2, key.n)
            if math.gcd(m, key.n) != 1:
                continue
            session = run_blind_session(key, m, rng)
            if session.r == 1:
                continue
            assert session.published.F != session.blind_sig.F
            assert session.published.R3 != session.blind_sig.R3

    def test_scaled_blind_signature_keeps_the_invariant(self, toy_key, rng):
        bsig = blind_sign(toy_key, 36, rng=rng)
        for t in range(1, 77):
            if math.gcd(t, 77) != 1:
                continue
            scaled = BlindSignature(t * t * bsig.disguised % 77, t * bsig.F % 77, bsig.R3)
            assert verify_blind_signature(scaled, 77).valid

    def test_zero_components_rejected(self, toy_key, rng):
        # F = R3 = 0 satisfies F**12 = R3**4 * d**6 for every disguised value d
        bsig = blind_sign(toy_key, 36, rng=rng)
        for d in (0, 36, 5):
            for forged in (BlindSignature(d, 0, 0), BlindSignature(d, 0, bsig.R3), BlindSignature(d, 77, 77)):
                report = verify_blind_signature(forged, 77)
                assert not report.valid and report.failed_check == "component range"
        assert verify_blind_signature(bsig, 77).op_counts == (7, 3)

    def test_re_encoded_components_rejected(self, toy_key, rng):
        bsig = blind_sign(toy_key, 36, rng=rng)
        for name in ("disguised", "F", "R3"):
            for k in (1, 2, -1):
                forged = dataclasses.replace(bsig, **{name: getattr(bsig, name) + k * 77})
                report = verify_blind_signature(forged, 77)
                assert not report.valid and report.failed_check == "component range" and report.op_counts == (0, 0)

    def test_session_on_quadratic_redundancy(self, rng):
        key = gen_keypair("blum", 48, QUADRATIC, rng)
        session = run_blind_session(key, 123456, rng)
        assert variant2_verify(key.public(), session.published).valid


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: F'*d = F*h links each published signature to its session")
def test_no_published_signature_is_linked_to_its_session():
    # the signer keeps its view (d, F) of every session; a published [m, F', R3'] with
    # h = H(m) has F' = F/r**2 and d = r**2 * h, so F'*d = F*h names its session
    rng = random.Random("linkable")
    key = gen_keypair("blum", 128, IDENTITY, rng)
    n = key.n
    sessions = [run_blind_session(key, rng.randrange(2, n), rng) for _ in range(60)]
    views = [(s.disguised, s.blind_sig.F) for s in sessions]
    published = [s.published for s in sessions]
    rng.shuffle(published)
    singled_out = 0
    for sig in published:
        h = apply_redundancy(key.redundancy, sig.m, n)
        singled_out += sum(sig.F * d % n == f * h % n for d, f in views) == 1
    assert singled_out == 0
