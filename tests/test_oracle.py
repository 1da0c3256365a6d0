import pytest

from rabinsig import schemes
from rabinsig.errors import FactorLeakError
from rabinsig.hashing import IDENTITY, QUADRATIC
from rabinsig.oracle import (
    SMALL_RING_LIMIT,
    SmallRing,
    all_roots,
    brute_valid,
    check_scheme_exhaustive,
    qr_set,
    unity_roots,
)
from rabinsig.schemes import ClassicSignature


class TestSmallRing:
    def test_accepts_toy_rings(self):
        assert SmallRing(7, 11).n == 77

    def test_rejects_bad_rings(self):
        for p, q in ((7, 7), (2, 11), (9, 11), (101, 103)):
            with pytest.raises(ValueError):
                SmallRing(p, q)

    def test_limit_is_documented(self):
        assert SMALL_RING_LIMIT == 10_000


class TestQrSet:
    def test_n15(self):
        assert qr_set(SmallRing(3, 5)) == {1, 4}

    def test_n77_contains_known_residues(self):
        residues = qr_set(SmallRing(7, 11))
        assert {4, 9, 15, 16, 23, 25, 36, 60, 64} <= residues
        assert len(residues) == 15  # phi(77)/4

    @pytest.mark.parametrize("p,q", ((3, 5), (3, 7), (7, 11), (11, 19)))
    def test_one_is_always_a_residue(self, p, q):
        assert 1 in qr_set(SmallRing(p, q))


class TestAllRoots:
    def test_known_root_sets(self):
        ring = SmallRing(7, 11)
        assert all_roots(4, ring) == (2, 9, 68, 75)
        assert all_roots(1, ring) == (1, 34, 43, 76)
        assert all_roots(0, ring) == (0,)

    def test_unit_residues_have_exactly_four_roots(self):
        ring = SmallRing(7, 11)
        for a in qr_set(ring):
            assert len(all_roots(a, ring)) == 4

    def test_unity_roots_helper(self):
        assert unity_roots(SmallRing(7, 11)) == (1, 34, 43, 76)


class TestBruteValid:
    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            brute_valid(object(), 77, IDENTITY)

    def test_classic_example(self):
        assert brute_valid(ClassicSignature(5, 59, 8), 77, IDENTITY)
        assert not brute_valid(ClassicSignature(5, 59, 9), 77, IDENTITY)


class TestExhaustiveChecks:
    @pytest.mark.parametrize("scheme", ("classic", "general", "variant1", "variant2", "rw"))
    def test_identity_on_toy_ring(self, scheme, rng):
        report = check_scheme_exhaustive(scheme, SmallRing(7, 11), IDENTITY, rng)
        assert report.ok, report.failures[:3]
        assert report.signed == 60  # every unit is signable under identity
        assert report.skipped == 16  # the non-units are not

    @pytest.mark.parametrize("scheme", ("general", "variant2", "rw"))
    def test_quadratic_on_toy_ring(self, scheme, rng):
        report = check_scheme_exhaustive(scheme, SmallRing(7, 11), QUADRATIC, rng)
        assert report.ok
        assert report.skipped > 0  # m = -1 and friends are unsignable

    def test_a_signer_raising_factor_leak_is_a_failure(self, monkeypatch, rng):
        def leaky(key, m, rng=None):
            raise FactorLeakError("no padding value found")

        monkeypatch.setattr(schemes, "variant1_sign", leaky)
        report = check_scheme_exhaustive("variant1", SmallRing(7, 11), IDENTITY, rng)
        assert not report.ok and report.signed == 0
        assert report.failures[:2] == ["m=1: signing kept failing", "m=2: signing kept failing"]
        assert len(report.failures) == 60  # one per signable message

    def test_rw_needs_matching_primes(self, rng):
        with pytest.raises(ValueError):
            check_scheme_exhaustive("rw", SmallRing(3, 5), IDENTITY, rng)

    def test_variant_schemes_need_blum_rings(self, rng):
        with pytest.raises(ValueError):
            check_scheme_exhaustive("variant2", SmallRing(13, 17), IDENTITY, rng)

    def test_general_scheme_on_a_tonelli_ring(self, rng):
        report = check_scheme_exhaustive("general", SmallRing(13, 17), IDENTITY, rng)
        assert report.ok
        assert report.signed == 192
