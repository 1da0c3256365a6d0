import dataclasses
import random

import pytest

from rabinsig.errors import KeyFormatError
from rabinsig.hashing import IDENTITY, QUADRATIC, RedundancySpec
from rabinsig import keygen
from rabinsig.keygen import (
    KeyPair,
    PaddingSet,
    _search_rounds,
    build_padding_set,
    compose_padding_set,
    dump_private,
    dump_public,
    gen_keypair,
    gen_prime,
    padding_set_flaws,
    parse_key,
)
from rabinsig.numtheory import MILLER_RABIN_ROUNDS, crt_idempotents, jacobi
from rabinsig.oracle import SmallRing, qr_set, units
from rabinsig.schemes import SCHEMES, sign

from conftest import ORACLE_PADDING, general_key_with_unchecked_padding


class TestGenPrime:
    @pytest.mark.parametrize(
        "constraint,residue,modulus",
        [("none", 1, 2), ("3mod4", 3, 4), ("3mod8", 3, 8), ("7mod8", 7, 8)],
    )
    def test_constraints(self, constraint, residue, modulus, rng):
        sympy = pytest.importorskip("sympy")
        for bits in (8, 16, 48, 512):
            p = gen_prime(bits, constraint, rng)
            assert p.bit_length() == bits
            assert p % modulus == residue
            assert sympy.isprime(p)

    def test_search_rounds(self):
        # the DLP bound with a 12-bit margin gives 7 rounds at 512 bits; below
        # 189 bits it gives none, and the worst-case 40 rounds apply
        assert _search_rounds(512, 1024) == 7
        assert _search_rounds(188, 376) == _search_rounds(100, 200) == MILLER_RABIN_ROUNDS
        rounds = [_search_rounds(bits, 2 * bits) for bits in range(189, 2049)]
        assert rounds == sorted(rounds, reverse=True) and rounds[-1] == 3

    def test_too_few_bits(self):
        with pytest.raises(ValueError):
            gen_prime(4)


class TestGenKeypair:
    def test_blum(self, rng):
        key = gen_keypair("blum", 32, IDENTITY, rng)
        assert key.p % 4 == 3 and key.q % 4 == 3
        assert key.p != key.q
        assert key.padding is None

    def test_rw(self, rng):
        key = gen_keypair("rw", 32, QUADRATIC, rng)
        assert {key.p % 8, key.q % 8} == {3, 7}
        assert key.is_rw and key.is_blum
        assert key.redundancy == QUADRATIC

    def test_general_has_valid_padding(self, rng):
        key = gen_keypair("general", 32, IDENTITY, rng)
        assert key.padding is not None
        assert padding_set_flaws(key.padding.elements, key.p, key.q) == []

    def test_idempotent_identities(self, rng):
        key = gen_keypair("blum", 32, IDENTITY, rng)
        assert (key.psi1 + key.psi2) % key.n == 1
        assert key.psi1 % key.q == 0
        assert key.psi2 % key.p == 0

    def test_fresh_primes_are_not_recertified(self, rng, monkeypatch):
        # gen_prime certifies its own primes; only untrusted key material
        # goes through the 40-round is_probable_prime again
        from rabinsig import numtheory

        def refuse(n, rng=None):
            raise AssertionError("is_probable_prime called")

        monkeypatch.setattr(numtheory, "is_probable_prime", refuse)
        keys = [gen_keypair(kind, 64, IDENTITY, rng) for kind in ("general", "blum", "rw")]
        assert [key.kind for key in keys] == ["general", "blum", "rw"]
        with pytest.raises(AssertionError):
            parse_key(dump_private(keys[0]))

    def test_from_primes_computes_the_padding_classes(self):
        # the classes handed in are wrong on purpose; the key carries the true ones
        idem = crt_idempotents(7, 11)
        safe = build_padding_set(7, 11, idem.psi1, idem.psi2, random.Random(5))
        wrong = PaddingSet(safe.elements, ((1, 1),) * 4)
        key = KeyPair.from_primes("general", 7, 11, IDENTITY, wrong)
        assert key.padding == safe
        assert KeyPair.from_primes("general", 7, 11, IDENTITY, PaddingSet(safe.elements)) == key

    @pytest.mark.parametrize("elements", [ORACLE_PADDING.elements, (4, 9, 16, 25)], ids=["difference", "one-class"])
    def test_from_primes_runs_the_padding_checks(self, elements):
        # the general signer relies on four unit classes; a set that fails a check never reaches a key
        with pytest.raises(ValueError, match="unsafe padding set"):
            KeyPair.from_primes("general", 7, 11, IDENTITY, PaddingSet(elements))

    def test_kind_constraints_enforced(self):
        assert KeyPair.from_primes("general", 7, 11).n == 77
        # equal, even, composite and unit factors
        for p, q in ((7, 7), (8, 11), (7, 15), (1, 11)):
            with pytest.raises(ValueError):
                KeyPair.from_primes("general", p, q)
        with pytest.raises(ValueError):
            KeyPair.from_primes("blum", 13, 11)  # 13 = 1 mod 4
        with pytest.raises(ValueError):
            KeyPair.from_primes("rw", 7, 23)  # both 7 mod 8
        with pytest.raises(ValueError):
            KeyPair.from_primes("nonsense", 7, 11)


class TestPaddingSet:
    def test_composition_oracle_values(self):
        # a1=2, a2=3 split the classes mod 7; b1=3, b2=2 split them mod 11
        elements, classes = compose_padding_set(2, 3, 3, 2, (1, 1, 1, 1), 7, 11, 22, 56)
        assert elements == (58, 2, 3, 24)
        assert classes == ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def test_oracle_set_fails_the_difference_check(self):
        # equal r_i leave same-row differences divisible by a prime factor
        flaws = padding_set_flaws(ORACLE_PADDING.elements, 7, 11)
        assert any("difference" in f for f in flaws)

    def test_unity_root_detected(self):
        flaws = padding_set_flaws((1, 2, 3, 24), 7, 11)
        assert any("unity" in f for f in flaws)

    def test_class_coverage_detected(self):
        flaws = padding_set_flaws((2, 2 * 4 % 77, 2 * 9 % 77, 24), 7, 11)
        assert any("classes" in f for f in flaws)

    @pytest.mark.parametrize("elements", [(2, 3, 24), (58, 2, 3, 24, 5)])
    def test_element_count_detected(self, elements):
        assert padding_set_flaws(elements, 7, 11) == [f"a padding set has four elements, not {len(elements)}"]
        with pytest.raises(ValueError, match="four elements"):
            KeyPair.from_primes("general", 7, 11, IDENTITY, PaddingSet(elements))

    def test_built_sets_are_safe_and_labelled(self, rng):
        for p, q in ((7, 11), (11, 19), (13, 17)):
            idem = crt_idempotents(p, q)
            ps = build_padding_set(p, q, idem.psi1, idem.psi2, rng)
            assert padding_set_flaws(ps.elements, p, q) == []
            for u, cls in zip(ps.elements, ps.classes):
                assert (jacobi(u, p), jacobi(u, q)) == cls

    def test_every_unit_is_covered_by_exactly_one_element(self, rng):
        # each z in Z_77* must pair with exactly one multiplier making u*z a residue
        ring = SmallRing(7, 11)
        residues = qr_set(ring)
        idem = crt_idempotents(7, 11)
        ps = build_padding_set(7, 11, idem.psi1, idem.psi2, rng)
        for z in units(ring):
            assert sum(1 for u in ps.elements if u * z % 77 in residues) == 1


class TestKeyFiles:
    def test_public_round_trip_is_byte_exact(self, rng):
        key = gen_keypair("general", 32, IDENTITY, rng)
        text = dump_public(key.public())
        parsed = parse_key(text)
        assert parsed == key.public()
        assert dump_public(parsed) == text

    def test_private_round_trip_is_byte_exact(self, rng):
        for kind in ("general", "blum", "rw"):
            key = gen_keypair(kind, 32, RedundancySpec("digest", "sha256"), rng)
            text = dump_private(key)
            parsed = parse_key(text)
            assert parsed == key
            assert dump_private(parsed) == text

    def test_private_file_carries_the_padding_classes(self, rng):
        key = gen_keypair("general", 32, IDENTITY, rng)
        parsed = parse_key(dump_private(key))
        assert parsed.padding.classes == key.padding.classes

    def test_headers_and_fields_are_validated(self, toy_key):
        good = dump_private(toy_key)
        for bad in (
            "not-a-key v9\n" + good.split("\n", 1)[1],
            good.replace("N = 77", "N = 78"),
            good.replace("psi1 = 22", "psi1 = 23"),
            good.replace("kind = blum", "kind = weird"),
            good.replace("hash = identity", "hash = unknown-tag"),
            good + "extra = 1\n",
            good + "p = 7\n",  # duplicate
            good.replace("p = 7\n", ""),  # private file missing q's partner
            # one encoding per value: canonical ASCII decimal only
            good.replace("N = 77", "N = 7_7"),
            good.replace("N = 77", "N = +77"),
            good.replace("N = 77", "N = \u0667\u0667"),  # Arabic-Indic digits
            good.replace("N = 77", "N = 077"),
            good.replace("p = 7", "p = 07"),
        ):
            with pytest.raises(KeyFormatError):
                parse_key(bad)

    @pytest.mark.parametrize("n", [0, 1, -77, 78, 81])
    def test_degenerate_public_modulus_rejected(self, toy_key, n):
        with pytest.raises(KeyFormatError):
            parse_key(dump_public(toy_key.public()).replace("N = 77", f"N = {n}"))

    @pytest.mark.parametrize("p", [15, 1019 * 1021])
    def test_composite_factor_rejected(self, p):
        # p = 3 mod 4 like a blum prime; 1019 * 1021 also passes trial division
        q = 7
        idem = crt_idempotents(p, q)
        text = (f"rabin-key v1\nkind = blum\nhash = identity\nN = {p * q}\n"
                f"p = {p}\nq = {q}\npsi1 = {idem.psi1}\npsi2 = {idem.psi2}\n")
        with pytest.raises(KeyFormatError):
            parse_key(text)

    @pytest.mark.parametrize("elements", [(0, 2, 3, 24), (2, 2, 3, 24), (2, 3, 24, 79), (2, 3, 24, 14)])
    def test_public_padding_must_be_distinct_units_below_n(self, elements):
        text = "rabin-key v1\nkind = general\nhash = identity\nN = 77\n"
        text += "".join(f"u{i} = {u}\n" for i, u in enumerate(elements, start=1))
        with pytest.raises(KeyFormatError):
            parse_key(text)

    def test_private_padding_must_pass_the_safety_checks(self):
        # four squares lie in one Jacobi class, so three classes are uncovered
        key = general_key_with_unchecked_padding(7, 11, (4, 9, 16, 25))
        with pytest.raises(KeyFormatError, match="unsafe padding set"):
            parse_key(dump_private(key))
        assert parse_key(dump_public(key)).padding.elements == (4, 9, 16, 25)

    def test_private_general_key_classifies_each_element_once(self, monkeypatch):
        key = gen_keypair("general", 64, IDENTITY, random.Random(3))
        text = dump_private(key)
        calls = []
        real = keygen.jacobi

        def counted(a, n):
            calls.append(n)
            return real(a, n)

        monkeypatch.setattr(keygen, "jacobi", counted)
        assert parse_key(text) == key
        assert len(calls) <= 8  # one class ((u/p), (u/q)) per element

    def test_non_decimal_value_rejected(self, toy_key):
        with pytest.raises(KeyFormatError):
            parse_key(dump_private(toy_key).replace("N = 77", "N = 0x4d"))

    @pytest.mark.parametrize("kind", ["general", "blum", "rw"])
    def test_root_constants_stay_private(self, kind, rng):
        # signing builds the key's root constants; no comparison, key file or public key shows them
        key = gen_keypair(kind, 64, IDENTITY, rng)

        def seen():
            return repr(key), hash(key), dump_private(key), dump_public(key), key.public(), dataclasses.fields(KeyPair)

        before = seen()
        for tag, scheme in SCHEMES.items():
            if scheme.key_ok(key):
                sign(key, 5, tag, rng=rng)
        assert "idem" in vars(key)  # kept on the key after the first signature
        assert seen() == before
        assert key == parse_key(dump_private(key))

    def test_public_file_has_no_private_fields(self, rng):
        key = gen_keypair("blum", 32, IDENTITY, rng)
        text = dump_public(key.public())
        for field in ("p =", "q =", "psi1", "psi2"):
            assert field not in text
