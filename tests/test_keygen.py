import copy
import dataclasses
import functools
import hashlib
import math
import pickle
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from rabinsig.cli import main
from rabinsig.errors import KeyFormatError
from rabinsig.hashing import IDENTITY, QUADRATIC, RedundancySpec
from rabinsig import keygen, numtheory
from rabinsig.keygen import (
    KINDS,
    MAX_PRIME_BITS,
    MAX_UNPROVEN_BITS,
    KeyPair,
    PaddingSet,
    ProvenPrime,
    build_padding_set,
    dump_private,
    dump_public,
    gen_keypair,
    gen_prime,
    padding_set_flaws,
    parse_key,
)
from rabinsig.numtheory import _SINCLAIR_BASES, _proven, crt_idempotents, crt_padding, jacobi
from rabinsig.oracle import SmallRing, qr_set, units
from rabinsig.schemes import SCHEME_TAGS, SCHEMES, dump_signature, sign, verify

from conftest import ORACLE_PADDING, NoRandomness, composite_with_a_proven_factor, general_key_with_unchecked_padding


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

    def test_a_proven_prime_copies_and_pickles_like_an_int(self, rng):
        p = gen_prime(100, "none", rng)
        for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert clone == p and clone.chain == p.chain and len(p.chain) == 1

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
        assert SCHEMES["rw"].key_ok(key) and SCHEMES["variant2"].key_ok(key)  # its primes are 3 mod 4 too
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

    def test_n_and_the_idempotents_come_from_the_primes(self):
        key, ring = KeyPair("blum", 7, 11, IDENTITY), crt_idempotents(7, 11)
        assert (key.n, key.psi1, key.psi2) == (77, ring.psi1, ring.psi2)

    def test_n_and_the_idempotents_are_neither_given_nor_set(self):
        # only the primes are stated, so N and psi cannot disagree with them
        assert [f.name for f in dataclasses.fields(KeyPair)] == ["kind", "p", "q", "redundancy", "padding"]
        key = KeyPair("blum", 7, 11, IDENTITY)
        for name in ("n", "psi1", "psi2"):
            with pytest.raises(TypeError):
                KeyPair("blum", 7, 11, IDENTITY, **{name: getattr(key, name)})
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(key, name, 1)

    def test_fresh_primes_are_not_recertified(self, rng, monkeypatch):
        # gen_prime certifies its own primes; only key material without a
        # proof goes through is_probable_prime again
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

    def test_kind_table_states_each_kinds_congruences(self):
        # the one table behind from_primes, parse_key and Scheme.check_key, against the congruences in words
        odd_primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        for p in odd_primes:
            for q in odd_primes:
                assert keygen._fits_kind(p, q, "general")
                assert keygen._fits_kind(p, q, "blum") == (p % 4 == 3 and q % 4 == 3)
                assert keygen._fits_kind(p, q, "rw") == ({p % 8, q % 8} == {3, 7})
                for kind in KINDS:
                    m, _, n_class, _ = keygen._KIND_CLASSES[kind]
                    assert not keygen._fits_kind(p, q, kind) or p * q % m == n_class

    @pytest.mark.parametrize("kind,p,q", [("blum", 7, 11), ("rw", 11, 7)])
    def test_only_general_keys_take_a_padding_set(self, kind, p, q):
        # a blum or rw key keeping one would write u1..u4, which parse_key refuses on those kinds
        idem = crt_idempotents(p, q)
        safe = build_padding_set(p, q, idem.psi1, idem.psi2, random.Random(5))
        with pytest.raises(ValueError, match="only general keys"):
            KeyPair.from_primes(kind, p, q, IDENTITY, safe)


REDUNDANCIES = (IDENTITY, QUADRATIC, RedundancySpec("digest", "sha256"))


@st.composite
def accepted_keys(draw):
    """Keys that KeyPair.from_primes accepts: any kind, padding set and proofs, or none."""
    kind = draw(st.sampled_from(KINDS))
    bits = draw(st.sampled_from((16, 40, 64, 65, 100)))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    p_constraint, q_constraint = keygen._KIND_CONSTRAINTS[kind]
    p, q = gen_prime(bits, p_constraint, rng), gen_prime(bits, q_constraint, rng)
    padding = draw(st.sampled_from((None, "built", "rooted", "drawn")))
    roots = None
    if padding in ("built", "rooted"):
        idem = crt_idempotents(p, q)
        built = build_padding_set(p, q, idem.psi1, idem.psi2, rng)
        elements = list(built.elements)
        if padding == "rooted":  # with its roots, each as any of its four lifts; the file holds the least
            lifts = [numtheory._four_lifts(w, idem) for w in built.roots]
            roots = tuple(four[draw(st.integers(0, 3))] for four in lifts)
    elif padding == "drawn":
        elements = draw(st.lists(st.integers(1, p * q - 1), min_size=4, max_size=4))
    if padding is not None:
        # one element may be moved out of [1, N-1] by N: no key file holds it, so from_primes must refuse it
        elements[draw(st.integers(0, 3))] += p * q * draw(st.sampled_from((0, -1, 1)))
        padding = PaddingSet(tuple(elements), roots=roots)
    p, q = draw(st.sampled_from(((p, q), (p, int(q)), (int(p), int(q)))))  # each with its proof, or without
    try:
        return KeyPair.from_primes(kind, p, q, draw(st.sampled_from(REDUNDANCIES)), padding)
    except ValueError:
        reject()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(accepted_keys())
def test_every_key_from_primes_accepts_survives_its_key_file(key):
    text = dump_private(key)
    parsed = parse_key(text)
    assert parsed == key
    assert dump_private(parsed) == text  # proofs included
    assert parse_key(dump_public(key)) == key.public()


class TestPaddingSet:
    def test_composition_oracle_values(self):
        # a1=2, a2=3 split the classes mod 7; b1=3, b2=2 split them mod 11
        idem = crt_idempotents(7, 11)
        elements = tuple(crt_padding(a, b, 1, idem) for a in (2, 3) for b in (3, 2))
        assert elements == (58, 2, 3, 24)
        assert [(jacobi(u, 7), jacobi(u, 11)) for u in elements] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    def test_composition_computes_no_jacobi_symbol(self, monkeypatch):
        # the labels follow from the classes of a1, a2, b1, b2, so jacobi only tests multiplier draws
        calls = []
        monkeypatch.setattr(keygen, "jacobi", lambda a, n: calls.append((a, n)) or jacobi(a, n))
        rng = random.Random(5)
        p, q = gen_prime(64, "none", rng), gen_prime(64, "none", rng)
        idem = crt_idempotents(p, q)
        build_padding_set(p, q, idem.psi1, idem.psi2, rng)
        assert calls and all(a < keygen._MULTIPLIER_BOUND for a, _ in calls)

    def test_multipliers_are_drawn_once(self, monkeypatch):
        # a class is {r**2 * c} for any c in it, so only the r_i are redrawn, even through all 4096 failed rounds
        draws, rounds = [], []
        sample, flaws = keygen._sample_with_jacobi, keygen._padding_flaws
        monkeypatch.setattr(keygen, "_sample_with_jacobi", lambda p, t, rng: draws.append(p) or sample(p, t, rng))
        monkeypatch.setattr(keygen, "_padding_flaws", lambda *args: rounds.append(1) or flaws(*args))
        idem = crt_idempotents(3, 7)
        with pytest.raises(RuntimeError, match="could not build a safe padding set"):
            build_padding_set(3, 7, idem.psi1, idem.psi2, random.Random(3))
        assert draws == [3, 3, 7, 7]
        assert len(rounds) == 4096

    def test_oracle_set_fails_the_difference_check(self):
        # equal r_i leave same-row differences divisible by a prime factor
        flaws = padding_set_flaws(ORACLE_PADDING.elements, 7, 11)
        assert any("difference" in f for f in flaws)

    def test_unity_root_detected(self):
        flaws = padding_set_flaws((1, 2, 3, 24), 7, 11)
        assert any("unity" in f for f in flaws)

    @pytest.mark.parametrize("elements,flaw", [
        ((7, 2, 3, 24), "element 0 is not a unit in 1..N-1"),
        # the safe set (12, 53, 6, 65) that build_padding_set(7, 11, ..., random.Random(5)) returns,
        # its first element moved by N: the general signer would emit signatures outside [0, N)
        ((12 + 77, 53, 6, 65), "element 0 is not a unit in 1..N-1"),
        ((12 - 77, 53, 6, 65), "element 0 is not a unit in 1..N-1"),
    ])
    def test_element_flaws_detected(self, elements, flaw):
        assert padding_set_flaws(elements, 7, 11)[0] == flaw  # the one from_primes reports
        with pytest.raises(ValueError, match=re.escape(f"unsafe padding set: {flaw}")):
            KeyPair.from_primes("general", 7, 11, IDENTITY, PaddingSet(elements))

    def test_a_modulus_with_no_safe_set_is_refused(self):
        # mod 3 each Jacobi class has one residue, so two elements of a class differ by a multiple of 3
        idem = crt_idempotents(3, 7)
        with pytest.raises(RuntimeError, match="could not build a safe padding set"):
            build_padding_set(3, 7, idem.psi1, idem.psi2, random.Random(3))

    def test_idempotents_of_another_ring_are_refused(self):
        # over psi1 = psi2 = 1 the set's class labels were wrong: a general key on it signed
        # messages 2..59 all invalidly, and gcd(S**2 - m*u, N) was a prime for 21 of them
        rng = random.Random(5)
        p, q = gen_prime(64, "none", rng), gen_prime(64, "none", rng)
        with pytest.raises(ValueError, match="psi1 and psi2 are not the idempotents of p and q"):
            build_padding_set(p, q, 1, 1, rng)
        idem = crt_idempotents(p, q)
        with pytest.raises(ValueError, match="not the idempotents"):
            build_padding_set(p, q, idem.psi2, idem.psi1, rng)

    def test_a_ring_of_other_primes_is_refused_and_the_given_ring_keeps_its_constants(self):
        # gen_keypair passes its ring of p and q, whose root constants the multipliers' roots build
        rng = random.Random(6)
        p, q = gen_prime(64, "none", rng), gen_prime(64, "none", rng)
        idem, other = crt_idempotents(p, q), crt_idempotents(q, p)
        with pytest.raises(ValueError, match="ring is not the ring of p and q"):
            build_padding_set(p, q, idem.psi1, idem.psi2, rng, other)
        assert "at_p" not in vars(idem)
        build_padding_set(p, q, idem.psi1, idem.psi2, rng, idem)
        assert {"at_p", "at_q"} <= vars(idem).keys()

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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_padding_flaws_match_the_per_pair_reference(self, data):
        # the product gcds report the same flaws, in the same order, as one gcd per element and per pair
        p, q = data.draw(st.sampled_from([(7, 11), (13, 17), (19, 23)]))
        n = p * q
        idem = crt_idempotents(p, q)
        special = [0, 1, n - 1, n, n + 1, -1, p, q, 2 * q, *numtheory.sqrt_of_unity_nontrivial(idem)]
        elements = data.draw(st.lists(st.one_of(st.integers(-n, 2 * n), st.sampled_from(special)),
                                      min_size=4, max_size=4))
        for _ in range(data.draw(st.integers(0, 2))):  # a difference that shares a factor with N
            i, j = data.draw(st.permutations(range(4)))[:2]
            elements[j] = elements[i] + data.draw(st.sampled_from([p, q])) * data.draw(st.integers(-3, 3))
        classes = tuple((jacobi(u, p), jacobi(u, q)) for u in elements)
        assert keygen._padding_flaws(elements, classes, n) == _per_pair_padding_flaws(elements, classes, n)


def _per_pair_padding_flaws(elements, classes, n):
    # keygen._padding_flaws as one gcd per element and one per pair of elements
    flaws = []
    for i, u in enumerate(elements):
        if not 0 < u < n or math.gcd(u, n) != 1:
            flaws.append(f"element {i} is not a unit in 1..N-1")
        elif u * u % n == 1:
            flaws.append(f"element {i} is a square root of unity")
    if len({c for c in classes if 0 not in c}) != 4:
        flaws.append("elements do not cover all four Jacobi classes")
    for i in range(4):
        for j in range(i + 1, 4):
            if math.gcd(elements[i] - elements[j], n) != 1:
                flaws.append(f"difference of elements {i} and {j} shares a factor with the modulus")
    return flaws


N_FOUR_PRIMES = 7 * 11 * 13 * 17


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

    @pytest.mark.parametrize("token", ["digest", "digest:SHA256", "digest:SHA-256"])
    def test_hash_field_has_one_encoding(self, token):
        # each names sha256, whose one token is digest:sha256
        text = dump_public(KeyPair.from_primes("blum", 7, 11, RedundancySpec("digest", "sha256")))
        assert "\nhash = digest:sha256\n" in text
        with pytest.raises(KeyFormatError, match="hash"):
            parse_key(text.replace("hash = digest:sha256", f"hash = {token}"))

    @pytest.mark.parametrize("n", [0, 1, -77, 78, 81])
    def test_degenerate_public_modulus_rejected(self, toy_key, n):
        with pytest.raises(KeyFormatError):
            parse_key(dump_public(toy_key.public()).replace("N = 77", f"N = {n}"))

    # 91 = 7 * 13 and 15 = 3 * 5 are 3 mod 4, so no product of two 3-mod-4 primes;
    # 209 = 11 * 19 is 1 mod 8, where primes of 3 and 7 mod 8 make 5
    @pytest.mark.parametrize("kind, p, q", [("blum", 7, 13), ("blum", 3, 5), ("rw", 11, 19)])
    def test_modulus_outside_its_kind_s_class_rejected(self, kind, p, q):
        idem = crt_idempotents(p, q)
        public = f"rabin-key v1\nkind = {kind}\nhash = identity\nN = {p * q}\n"
        private = public + f"p = {p}\nq = {q}\npsi1 = {idem.psi1}\npsi2 = {idem.psi2}\n"
        for text in (public, private):
            with pytest.raises(KeyFormatError, match=f"as a {kind} key's is"):
                parse_key(text)

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

    @pytest.mark.parametrize("n, elements, flaw", [
        # N = 7*11*13*17: no factor is needed to see that N-1 and 1 square to 1
        (N_FOUR_PRIMES, (N_FOUR_PRIMES - 1, 1, 4, 9), "element 0 is a square root of unity"),
        (77, (43, 2, 3, 5), "element 0 is a square root of unity"),  # 1 mod 7 and -1 mod 11
        (77, (2, 9, 3, 5), "difference of elements 0 and 1 shares a factor with the modulus"),  # 9 - 2 = 7
        (N_FOUR_PRIMES, (2, 4, 5, 24), "difference of elements 0 and 3 shares a factor with the modulus"),  # 22
        # the first flaw found is the one named, as for a private file
        (77, (0, 2, 3, 24), "element 0 is not a unit in 1..N-1"),
        (77, (2, 3, 24, 79), "element 3 is not a unit in 1..N-1"),
        (77, (2, 3, 24, 14), "element 3 is not a unit in 1..N-1"),
        (77, (2, 2, 3, 24), "difference of elements 0 and 1 shares a factor with the modulus"),
    ])
    def test_public_padding_must_pass_the_checks_that_need_no_factor(self, n, elements, flaw, tmp_path):
        text = f"rabin-key v1\nkind = general\nhash = identity\nN = {n}\n"
        text += "".join(f"u{i} = {u}\n" for i, u in enumerate(elements, start=1))
        with pytest.raises(KeyFormatError, match=re.escape(f"unsafe padding set: {flaw}")):
            parse_key(text)
        pub, sig = tmp_path / "unsafe.key.pub", tmp_path / "m.sig"
        pub.write_text(text)
        sig.write_text("rabin-sig v1\nscheme = classic\nmessage = 5\nU = 2\nS = 3\n")
        assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 3

    def test_private_padding_gets_the_public_message(self):
        # the safe set (12, 53, 6, 65) that build_padding_set(7, 11, ..., random.Random(5)) returns
        key = KeyPair.from_primes("general", 7, 11, IDENTITY, PaddingSet((12, 53, 6, 65)))
        text = dump_private(key).replace("\nu1 = 12\n", "\nu1 = 14\n")
        with pytest.raises(KeyFormatError, match=re.escape("unsafe padding set: element 0 is not a unit in 1..N-1")):
            parse_key(text)

    def test_each_padding_check_runs_once(self, monkeypatch):
        # one product gcd for the elements and one for their differences, from a private file as from a public one
        key = gen_keypair("general", 64, IDENTITY, random.Random(3))
        calls, counts = [], []
        real = keygen._coprime
        monkeypatch.setattr(keygen, "_coprime", lambda values, n: calls.append(n) or real(values, n))
        for text in (dump_private(key), dump_public(key)):
            calls.clear()
            parse_key(text)
            counts.append(len(calls))
        assert counts == [2, 2]

    def test_private_padding_must_pass_the_safety_checks(self):
        # four squares lie in one Jacobi class, so three classes are uncovered; no two are
        # equal mod 13 or mod 17 and none squares to 1, so the public file passes its checks
        key = general_key_with_unchecked_padding(13, 17, (4, 9, 25, 49))
        with pytest.raises(KeyFormatError, match="unsafe padding set"):
            parse_key(dump_private(key))
        assert parse_key(dump_public(key)).padding.elements == (4, 9, 25, 49)

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


# ---------------------------------------------------------------------------
# Proofs of primality carried by generated keys


@functools.cache
def proven_key() -> KeyPair:
    """A general key on 512-bit primes, whose chains have two steps each, (f1, b1) and (f2, b2)."""
    return gen_keypair("general", 512, IDENTITY, random.Random("proven"))


# A blum key on 512-bit primes written by the last version with square-root chains:
# four steps per prime, with factors of 258, 131, 67 and 35 bits.
SQRT_CHAIN_KEY = Path(__file__).parent / "data" / "blum512-sqrt-chains.key"


def _refuse_prime_test(n, rng=None):
    raise AssertionError("is_probable_prime called")


@pytest.mark.parametrize("bits", [128, 256, 512])
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 1 << 32))
def test_every_chain_element_is_prime(kind, bits, seed):
    sympy = pytest.importorskip("sympy")
    key = gen_keypair(kind, bits, IDENTITY, random.Random(seed))
    for prime in (key.p, key.q):
        proof = prime.chain
        factors = [f for f, _ in proof]
        assert factors[0].bit_length() == -(-bits // 3)
        assert all(f >= 1 << 64 for f in factors[:-1]) and factors[-1] < 1 << 64
        assert all(sympy.isprime(f) for f in factors)
        # each witness is the base-2 one that the search computed for its candidate
        assert [b for _, b in proof] == [pow(2, (m - 1) // f, m) for m, f in zip((prime, *factors), factors)]
        assert _proven(prime, proof)


def _flat(steps):
    return tuple(x for step in steps for x in step)


def _spaced(values):
    return " ".join(map(str, values))


def _plus(i, delta):
    return lambda c: _spaced(c[:i] + (c[i] + delta,) + c[i + 1:])


def _swap(i):
    return lambda c: _spaced(c[:i] + (c[i + 1], c[i]) + c[i + 2:])


def _drop(i):
    return lambda c: _spaced(c[:i] + c[i + 1:])


def _drop_step(i):
    return lambda c: _spaced(c[:2 * i] + c[2 * i + 2:])


def _tampers(length):
    """Edits of a chain of `length` elements f1 b1 f2 b2 ... that leave an even count."""
    return {
        **{f"element{i}{delta:+d}": _plus(i, delta) for i in range(length) for delta in (2, -2)},
        **{f"swap{i}{i + 1}": _swap(i) for i in range(length - 1)},
        **{f"drop-step{i + 1}": _drop_step(i) for i in range(length // 2)},
        "append-3-2": lambda c: _spaced(c + (3, 2)),
        "append-last": lambda c: _spaced(c + c[-2:]),
        "factors-only": lambda c: _spaced(c[::2]),
    }


def _odd_proofs(length):
    """Edits of a chain of `length` elements that leave an odd count: no list of (factor, witness) steps."""
    return {
        **{f"drop{i}": _drop(i) for i in range(length)},
        "append-3": lambda c: _spaced(c + (3,)),
        "factors-only-of-an-odd-chain": lambda c: _spaced(c[:length - 3:2]),
    }


# the elements of a 512-bit prime's chain, f1 b1 f2 b2, and of SQRT_CHAIN_KEY's, f1 b1 ... f4 b4
CHAIN_LENGTH, SQRT_CHAIN_LENGTH = 4, 8
# the file format refuses these before any arithmetic
NON_CANONICAL_PROOFS = {
    "empty-chain": lambda c: "",
    "two-spaces": lambda c: "  ".join(map(str, c)),
    "tab": lambda c: "\t".join(map(str, c)),
    "comma": lambda c: ",".join(map(str, c)),
    "leading-zero": lambda c: "0" + _spaced(c),
    "sign": lambda c: "+" + _spaced(c),
}
PAIR_FORM = re.escape("pairs 'f1 b1 f2 b2 ...' of a factor and its witness")
# a chain in pair form whose steps do not prove the factor gets its own message
FAILED_PROOF = "proof of primality does not prove the factor prime"


def _refused_everywhere(text, tmp_path, monkeypatch, match=FAILED_PROOF):
    """parse_key refuses the file and `rabinsig sign` exits 3, without is_probable_prime."""
    monkeypatch.setattr(numtheory, "is_probable_prime", _refuse_prime_test)
    with pytest.raises(KeyFormatError, match=match):
        parse_key(text)
    path = tmp_path / "tampered.key"
    path.write_text(text)
    assert main(["sign", "--key", str(path), "--scheme", "classic", "--message", "5",
                 "--out", str(tmp_path / "tampered.sig")]) == 3


def _tampered_file_is_refused(text, key, length, tamper, field, tmp_path, monkeypatch):
    chain = _flat(getattr(key, field.removesuffix("_proof")).chain)
    line = f"{field} = {_spaced(chain)}\n"
    assert line in text and len(chain) == length
    tampers, odd_proofs = _tampers(length), _odd_proofs(length)
    if tamper in tampers:
        bad, match = tampers[tamper](chain), FAILED_PROOF
    elif tamper in odd_proofs:
        bad, match = odd_proofs[tamper](chain), f"field '{field}' is not {PAIR_FORM}"
    else:
        bad, match = NON_CANONICAL_PROOFS[tamper](chain), "not canonical decimals separated by single spaces"
    _refused_everywhere(text.replace(line, f"{field} = {bad}\n"), tmp_path, monkeypatch, match)


@pytest.mark.parametrize("field", ["p_proof", "q_proof"])
@pytest.mark.parametrize("tamper", [*_tampers(SQRT_CHAIN_LENGTH), *NON_CANONICAL_PROOFS, *_odd_proofs(SQRT_CHAIN_LENGTH)])
def test_tampered_proof_is_refused(tamper, field, tmp_path, monkeypatch):
    # on the four-step square-root chains of a file from an earlier version
    text = SQRT_CHAIN_KEY.read_text()
    _tampered_file_is_refused(text, parse_key(text), SQRT_CHAIN_LENGTH, tamper, field, tmp_path, monkeypatch)


@pytest.mark.parametrize("field", ["p_proof", "q_proof"])
@pytest.mark.parametrize("tamper", [*_tampers(CHAIN_LENGTH), *NON_CANONICAL_PROOFS, *_odd_proofs(CHAIN_LENGTH)])
def test_tampered_cube_root_proof_is_refused(tamper, field, tmp_path, monkeypatch):
    key = proven_key()
    _tampered_file_is_refused(dump_private(key), key, CHAIN_LENGTH, tamper, field, tmp_path, monkeypatch)


def test_a_key_file_with_square_root_chains_loads_and_signs():
    # every step of such a chain has f*f > n, the case c2 = 0 of the size and square test
    text = SQRT_CHAIN_KEY.read_text()
    key = parse_key(text)
    assert [[f.bit_length() for f, _ in prime.chain] for prime in (key.p, key.q)] == [[258, 131, 67, 35]] * 2
    assert dump_private(key) == text
    pub = parse_key(SQRT_CHAIN_KEY.with_name(SQRT_CHAIN_KEY.name + ".pub").read_text())
    assert pub == key.public()
    sig = sign(key, 12345, "variant2", rng=random.Random(7))
    assert verify(pub, sig).valid


def test_from_primes_refuses_a_proof_that_is_not_f_b_steps():
    # parse_key always builds (f, b) pairs; a caller of from_primes may hand it any shape
    rng = random.Random(16)
    p, q = gen_prime(100, "3mod4", rng), gen_prime(100, "3mod4", rng)
    (f, b), = p.chain
    for proof in (_flat(p.chain), ((f,),), ((f, b, 1),)):
        with pytest.raises(ValueError, match="proof of primality does not check as " + PAIR_FORM):
            KeyPair.from_primes("blum", ProvenPrime(p, proof), q)
    assert KeyPair.from_primes("blum", p, q).p.chain == p.chain


def test_a_failed_proof_is_not_reported_as_a_malformed_one():
    # a well-formed 128-bit chain, one step (f, b), whose witness is raised by 2
    text = dump_private(gen_keypair("blum", 128, IDENTITY, random.Random(11)))
    (f, b), = parse_key(text).p.chain
    tampered = text.replace(f"p_proof = {f} {b}\n", f"p_proof = {f} {b + 2}\n")
    assert tampered != text
    with pytest.raises(KeyFormatError) as refused:
        parse_key(tampered)
    assert FAILED_PROOF in str(refused.value) and "pairs 'f1 b1" not in str(refused.value)


def test_from_primes_certifies_a_proven_prime_by_its_chain(monkeypatch):
    # gen_prime's output carries its chain, so from_primes runs no Miller-Rabin round on it
    key = proven_key()
    monkeypatch.setattr(numtheory, "is_probable_prime", _refuse_prime_test)
    rebuilt = KeyPair.from_primes("general", key.p, key.q, IDENTITY, key.padding)
    assert rebuilt == key and dump_private(rebuilt) == dump_private(key)


def test_copies_of_a_proven_key_keep_its_chains():
    key = proven_key()
    text = dump_private(key)
    for clone in (copy.deepcopy(key), pickle.loads(pickle.dumps(key))):
        assert clone == key and dump_private(clone) == text
    recast = dataclasses.replace(key, redundancy=QUADRATIC)
    assert dump_private(recast) == text.replace("\nhash = identity\n", "\nhash = quadratic\n")


def test_proof_of_a_composite_is_refused(tmp_path, monkeypatch):
    # f is a proven prime with f | n - 1 and f*f > n, but n is composite
    n, f = composite_with_a_proven_factor()
    q = gen_prime(100, "3mod4", random.Random(9))
    idem = crt_idempotents(n, q)
    b = pow(2, (n - 1) // f, n)
    text = (f"rabin-key v1\nkind = blum\nhash = identity\nN = {n * q}\np = {n}\nq = {q}\n"
            f"psi1 = {idem.psi1}\npsi2 = {idem.psi2}\n"
            f"p_proof = {_spaced(_flat(((f, b), *f.chain)))}\nq_proof = {_spaced(_flat(q.chain))}\n")
    _refused_everywhere(text, tmp_path, monkeypatch)


# 3 mod 4 and one bit above the ceiling; never tested for primality, since the ceiling comes first
ABOVE_THE_CEILING = (1 << MAX_PRIME_BITS) + 3


@pytest.mark.parametrize("p,q,match", [
    # N of 2*MAX_PRIME_BITS + 1 bits: refused before any arithmetic on N
    (ABOVE_THE_CEILING, ABOVE_THE_CEILING + 4, f"N has more than {2 * MAX_PRIME_BITS} bits"),
    # N fits, and from_primes refuses the larger factor before any primality test
    (ABOVE_THE_CEILING, (1 << (MAX_PRIME_BITS - 2)) + 3, f"prime factors have at most {MAX_PRIME_BITS} bits"),
])
def test_a_key_file_above_the_ceiling_is_refused_at_once(p, q, match, tmp_path, monkeypatch):
    def no_rounds(n, bases):
        raise AssertionError("a Miller-Rabin round ran")

    monkeypatch.setattr(numtheory, "_miller_rabin", no_rounds)
    text = f"rabin-key v1\nkind = blum\nhash = identity\nN = {p * q}\np = {p}\nq = {q}\npsi1 = 1\npsi2 = 1\n"
    start = time.perf_counter()
    _refused_everywhere(text, tmp_path, monkeypatch, match)
    assert time.perf_counter() - start < 1  # 80 rounds at this size would take seconds
    with pytest.raises(ValueError, match=f"at most {MAX_PRIME_BITS} bits"):
        KeyPair.from_primes("blum", p, q)


def test_gen_keypair_refuses_an_unknown_kind(monkeypatch):
    monkeypatch.setattr(keygen, "gen_prime", lambda *args: pytest.fail("gen_prime called"))
    with pytest.raises(ValueError, match="unknown key kind 'williams'"):
        gen_keypair("williams", 64, IDENTITY, NoRandomness())


def test_gen_keypair_redraws_a_second_prime_equal_to_the_first(monkeypatch):
    primes = [131, 131, 139]  # 8-bit primes, 3 mod 4
    monkeypatch.setattr(keygen, "gen_prime", lambda bits, constraint, rng: primes.pop(0))
    key = gen_keypair("blum", 8, IDENTITY, NoRandomness())
    assert (key.p, key.q, primes) == (131, 139, [])


def test_search_draws_again_when_the_class_moves_its_start_past_the_top():
    # 2**16 - 1 moved up to 3 mod 8 is 65539, above every 16-bit number: that window is empty
    class Draws:
        def __init__(self):
            self.values = [(1 << 15) - 1, 0]

        def getrandbits(self, k):
            assert k == 15
            return self.values.pop(0)

    rng = Draws()
    assert keygen._search(16, 3, 8, lambda n: n if numtheory._exact_prime(n) else 0, rng) == (32771, 32771)
    assert rng.values == []


def test_a_refused_candidate_takes_one_modexp_and_the_prime_three(monkeypatch, record_modexps):
    # at each Pocklington level of a seeded 512-bit search (512 and 171 bits), each candidate that reaches
    # the witness takes the Fermat test 2**(n-1), and the prime 2**((n-1)/f) and b**f besides
    witnessed = []
    real = keygen._base_2_witness

    def recorded(n, f):
        b = real(n, f)
        witnessed.append((n, f, b))
        return b

    monkeypatch.setattr(keygen, "_base_2_witness", recorded)
    modexps = record_modexps()
    p = gen_prime(512, "3mod4", random.Random(35))
    powers = [(base, exp, mod) for base, exp, mod in modexps if exp != -1]  # the sieve's inverses go
    for bits in (512, 171):
        level = [(n, f, b) for n, f, b in witnessed if n.bit_length() == bits]
        *refused, (prime, f, b) = level
        at_level = [power for power in powers if power[2].bit_length() == bits]
        assert refused and all(c == 0 for *_, c in refused) and b != 0
        for n, _, _ in refused:
            assert [power for power in at_level if power[2] == n] == [(2, n - 1, n)]
        assert [power for power in at_level if power[2] == prime] == [
            (2, prime - 1, prime), (2, (prime - 1) // f, prime), (b, f, prime)]
        assert len(at_level) == len(level) + 2
    assert witnessed[-1][0] == p and p.chain[0] == witnessed[-1][1:]


def test_no_candidate_is_struck_as_itself():
    # a bits-bit candidate is at least 2**(bits-1), and every sieve prime lies below the limit, so below it
    for bits in range(8, MAX_PRIME_BITS + 1):
        window, limit = keygen._sieve_bounds(bits)
        assert window == 2 * bits and 0 < limit < 1 << (bits - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 600), st.sampled_from([(1, 2), (3, 4), (3, 8), (7, 8)]), st.booleans(), st.data())
def test_search_tests_the_candidates_a_full_sieve_leaves_in_order(bits, congruence, by_factor, data):
    # the reference strikes every candidate with a sieve prime below the limit as a factor, one by one
    residue, modulus = congruence
    if by_factor:  # a modulus 2*f*half for a prime f above the sieve bound, as _proven_prime searches
        f = 16411
        assert numtheory._exact_prime(f) and f > keygen._SIEVE_PRIMES[-1]
        half = modulus // 2
        residue, modulus = 1 + 2 * f * ((residue - 1) // 2 * pow(f, -1, half) % half), 2 * f * half
    low = 1 << (bits - 1)
    draw = data.draw(st.integers(0, low - 1))
    start = low | draw
    start += (residue - start) % modulus
    count = min(2 * bits, ((low << 1) - 1 - start) // modulus + 1)
    limit = min(bits * bits // 64, 1 << 14)
    survivors = [c for c in (start + modulus * i for i in range(max(count, 0)))
                 if all(c % s for s in keygen._SIEVE_PRIMES if s < limit)]
    if not survivors:
        reject()

    class OneDraw:
        draws = [draw]

        def getrandbits(self, k):
            assert k == bits - 1 and self.draws, "the search drew a second window"
            return self.draws.pop()

    tested = []

    def witness(n):
        tested.append(n)
        return n if n == survivors[-1] else 0

    assert keygen._search(bits, residue, modulus, witness, OneDraw()) == (survivors[-1], survivors[-1])
    assert tested == survivors


def test_gen_keypair_refuses_more_bits_than_the_ceiling(monkeypatch):
    monkeypatch.setattr(keygen, "gen_prime", lambda *args: pytest.fail("gen_prime called"))
    with pytest.raises(ValueError, match=f"at most {MAX_PRIME_BITS} bits per prime factor"):
        gen_keypair("blum", MAX_PRIME_BITS + 1, IDENTITY, NoRandomness())


def test_loading_a_proven_key_takes_no_random_round(monkeypatch):
    key = proven_key()
    text = dump_private(key)
    bases = []
    real = numtheory._miller_rabin

    def recorded(n, chosen):
        chosen = list(chosen)
        bases.extend(chosen)
        return real(n, chosen)

    monkeypatch.setattr(numtheory, "is_probable_prime", _refuse_prime_test)
    monkeypatch.setattr(numtheory, "_miller_rabin", recorded)
    monkeypatch.setattr(numtheory, "SYSTEM_RNG", NoRandomness())
    parsed = parse_key(text)
    assert parsed == key and (parsed.p.chain, parsed.q.chain) == (key.p.chain, key.q.chain)
    assert bases and set(bases) <= set(_SINCLAIR_BASES)  # only the chains' last elements, below 2**64


def test_loading_a_proven_key_takes_one_exponentiation_per_step(record_modexps):
    # b**f mod m for each step (f, b) of m is every modexp modulo a number above 2**64,
    # so no 2**((m-1)/f) is computed
    key = proven_key()
    text = dump_private(key)
    modexps = record_modexps()
    assert parse_key(text) == key
    powers = [(exp, mod) for _, exp, mod in modexps if mod is not None and mod >= 1 << 64 and exp > 0]
    steps = [(f, m) for prime in (key.p, key.q)
             for m, (f, _) in zip((prime, *(f for f, _ in prime.chain)), prime.chain)]
    assert powers == steps and len(steps) == 4


def test_loading_a_private_key_takes_no_inverse(monkeypatch, record_modexps):
    # psi1 and psi2 are checked by their definition and handed to the key's ring, so neither the load
    # nor the ring takes a pow(x, -1, m); the load's modexps modulo numbers above 2**64 are the chains'
    # b**f, one per step
    key = proven_key()
    text = dump_private(key)
    modexps = record_modexps()
    for module in (numtheory, keygen):
        monkeypatch.setattr(module, "crt_idempotents", lambda p, q: pytest.fail("crt_idempotents called"))
    parsed = parse_key(text)
    assert (parsed.idem.psi1, parsed.idem.psi2) == (_filed(text, "psi1"), _filed(text, "psi2"))
    steps = [(f, m) for prime in (key.p, key.q)
             for m, (f, _) in zip((prime, *(f for f, _ in prime.chain)), prime.chain)]
    inverses = [mod for _, exp, mod in modexps if exp < 0]
    powers = [(exp, mod) for _, exp, mod in modexps if exp >= 0 and mod is not None and mod >= 1 << 64]
    assert parsed == key and inverses == [] and powers == steps


def test_a_key_file_without_proofs_still_loads_with_40_rounds_per_prime(monkeypatch):
    key = proven_key()
    text = "".join(line for line in dump_private(key).splitlines(keepends=True) if "_proof" not in line)
    calls, rounds = [], []
    real_test, real_rounds = numtheory.is_probable_prime, numtheory._miller_rabin

    def counted(n, rng=None):
        calls.append(n)
        return real_test(n, rng)

    def recorded(n, chosen):
        chosen = list(chosen)
        rounds.append(len(chosen))
        return real_rounds(n, chosen)

    monkeypatch.setattr(numtheory, "is_probable_prime", counted)
    monkeypatch.setattr(numtheory, "_miller_rabin", recorded)
    parsed = parse_key(text)
    assert parsed == key and not any(isinstance(prime, ProvenPrime) for prime in (parsed.p, parsed.q))
    assert dump_private(parsed) == text
    assert calls == [key.p, key.q] and rounds == [40, 40]


def test_a_proofless_factor_above_1024_bits_is_refused_before_any_round(tmp_path, monkeypatch):
    # neither factor of the proof-less file gets a Miller-Rabin round, whichever order they come in
    key = gen_keypair("blum", MAX_UNPROVEN_BITS + 8, IDENTITY, random.Random(1032))
    text = "".join(line for line in dump_private(key).splitlines(keepends=True) if "_proof" not in line)
    match = f"a factor above {MAX_UNPROVEN_BITS} bits needs a proof of primality"
    _refused_everywhere(text, tmp_path, monkeypatch, match)
    for p, q in ((int(key.p), int(key.q)), (7, int(key.q)), (key.p, int(key.q))):
        with pytest.raises(ValueError, match=match):
            KeyPair.from_primes("blum", p, q)
    assert parse_key(dump_private(key)) == key  # with its proofs it loads


def _with_idempotents(text, psi1, psi2):
    lines = [line for line in text.splitlines(keepends=True) if not line.startswith(("psi1 = ", "psi2 = "))]
    return "".join(lines) + f"psi1 = {psi1}\npsi2 = {psi2}\n"


@pytest.mark.parametrize("edit", [
    lambda psi1, psi2, n: (psi2, psi1),
    lambda psi1, psi2, n: (psi1 + n, psi2),
    lambda psi1, psi2, n: (psi1, psi2 + n),
    lambda psi1, psi2, n: (psi1 + 1, psi2),
    lambda psi1, psi2, n: (psi1 - 1, psi2),
], ids=["swapped", "psi1+N", "psi2+N", "psi1+1", "psi1-1"])
def test_idempotents_other_than_their_definition_are_refused(edit, tmp_path, monkeypatch):
    key = gen_keypair("blum", 128, IDENTITY, random.Random(11))
    text = dump_private(key)
    assert parse_key(_with_idempotents(text, key.psi1, key.psi2)) == key  # the field order does not matter
    _refused_everywhere(_with_idempotents(text, *edit(key.psi1, key.psi2, key.n)), tmp_path, monkeypatch,
                        "idempotents do not match the prime factors")


# ---------------------------------------------------------------------------
# Roots of the padding elements, carried by private general keys

ROOT_FIELDS = tuple(f"u{i}_root" for i in range(1, 5))


@functools.cache
def rooted_key() -> KeyPair:
    """A general key on proven 80-bit primes, p = 1 mod 8 and q = 3 mod 4.

    So its non-residue z is found by search mod p and is -1 mod q.
    """
    rng = random.Random("rooted")
    p = q = 0
    while p % 8 != 1:
        p = gen_prime(80, "none", rng)
    q = gen_prime(80, "3mod4", rng)
    idem = crt_idempotents(p, q)
    return KeyPair.from_primes("general", p, q, IDENTITY, build_padding_set(p, q, idem.psi1, idem.psi2, rng))


def _without_roots(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith(ROOT_FIELDS))


def _filed_roots(key: KeyPair) -> list[int]:
    return [int(value) for value in re.findall(r"^u[1-4]_root = (\d+)$", dump_private(key), re.M)]


def _with_root(text: str, i: int, value) -> str:
    return re.sub(rf"^u{i}_root = \d+$", f"u{i}_root = {value}", text, flags=re.M)


@pytest.mark.parametrize("ring", [(7, 11), (11, 19), (13, 17), None], ids=["77", "209", "221", "rooted_key"])
def test_each_built_element_carries_its_root_over_its_class_and_the_file_its_least_lift(ring):
    if ring is None:
        key = rooted_key()
    else:
        idem = crt_idempotents(*ring)
        key = KeyPair.from_primes("general", *ring, IDENTITY, build_padding_set(*ring, idem.psi1, idem.psi2,
                                                                                 random.Random(ring[0])))
    p, q, padding = key.p, key.q, key.padding
    filed = _filed_roots(key)
    idem = crt_idempotents(p, q)
    for u, w, cls, least in zip(padding.elements, padding.roots, padding.classes, filed, strict=True):
        for prime, symbol in zip((p, q), cls):
            z = numtheory._PrimeRoots(prime).z
            assert symbol == jacobi(u, prime)
            assert w * w % prime == (u if symbol == 1 else u * pow(z, -1, prime)) % prime
        assert least == min(numtheory._four_lifts(w, idem))


def test_roots_raised_by_n_write_the_file_of_the_roots_themselves():
    # a file holds each root as the least of its four lifts mod N, whatever multiple of N it came with
    key = rooted_key()
    raised = PaddingSet(key.padding.elements, roots=tuple(w + key.n for w in key.padding.roots))
    assert dump_private(KeyPair.from_primes("general", key.p, key.q, IDENTITY, raised)) == dump_private(key)


def test_a_rooted_file_certifies_the_classes_with_no_jacobi_symbol(monkeypatch):
    # a file with roots takes no root at load, and one without them, as earlier versions wrote, one
    # half-size root per element and prime; the classes are read off the roots either way
    key = rooted_key()
    text = dump_private(key)
    assert [line.split(" = ")[0] for line in text.splitlines() if "_root" in line] == list(ROOT_FIELDS)
    calls, roots = [], []
    real, root = keygen.jacobi, numtheory._class_root
    monkeypatch.setattr(keygen, "jacobi", lambda a, n: calls.append(n) or real(a, n))
    monkeypatch.setattr(numtheory, "_class_root", lambda a, c: roots.append(c.p) or root(a, c))
    parsed = parse_key(text)
    assert parsed == key and parsed.padding.classes == key.padding.classes and dump_private(parsed) == text
    assert calls == [] and roots == []
    parsed = parse_key(_without_roots(text))
    assert parsed.padding.classes == key.padding.classes
    assert calls == [] and roots == [key.p, key.q] * 4


def test_a_loaded_key_signs_with_the_roots_of_its_file():
    # the key's padding set carries the file's roots as they are, and the general signer takes them
    key = rooted_key()
    text = dump_private(key)
    parsed = parse_key(text)
    assert list(parsed.padding.roots) == _filed_roots(key)
    assert verify(key.public(), sign(parsed, 5, "classic")).valid
    for target in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        m = next(m for m in range(2, key.n) if (jacobi(m, key.p), jacobi(m, key.q)) == target)
        signed = sign(parsed, m, "general")
        assert signed == sign(key, m, "general") and verify(key.public(), signed).valid
    assert dump_private(parsed) == text


def test_a_rootless_file_loads_signs_the_same_and_gains_the_roots():
    # from_primes fills in the roots, and the file gains the root lines when the key is written again
    key = rooted_key()
    full = dump_private(key)
    text = _without_roots(full)
    parsed = parse_key(text)
    idem = parsed.idem
    assert parsed == key
    assert [numtheory._canonical_lift(w % key.p, w % key.q, idem) for w in parsed.padding.roots] == _filed_roots(key)
    rewritten = dump_private(parsed)
    assert rewritten == full and _without_roots(rewritten) == text
    for target in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        m = next(m for m in range(2, key.n) if (jacobi(m, key.p), jacobi(m, key.q)) == target)
        signed = sign(parsed, m, "general")
        assert signed == sign(parse_key(dump_private(key)), m, "general") and verify(key.public(), signed).valid


def _bad_roots():
    key = rooted_key()
    n, e = key.n, key.psi1 - key.psi2
    w, other = _filed_roots(key)[:2]
    wrong = "no root of it over a Jacobi class"
    not_least = "root of padding element 0 is not the least of its four lifts"
    return {
        "digit": (str(w)[:-1] + str((int(str(w)[-1]) + 1) % 10), wrong),
        "zero": (0, wrong),
        "another-element-s": (other, wrong),
        "minus": (n - w, not_least),
        "other-lift": (w * e % n, not_least),
        "minus-other-lift": (n - w * e % n, not_least),
        "plus-n": (w + n, not_least),
    }


@pytest.mark.parametrize("edit", list(_bad_roots()))
def test_a_root_that_fails_its_check_is_refused(edit, tmp_path, monkeypatch):
    value, match = _bad_roots()[edit]
    text = _with_root(dump_private(rooted_key()), 1, value)
    assert text != dump_private(rooted_key())
    _refused_everywhere(text, tmp_path, monkeypatch, match)


def test_root_lines_come_four_or_none_and_on_a_private_general_key_only(tmp_path, monkeypatch):
    key = rooted_key()
    text = dump_private(key)
    three = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("u3_root = "))
    _refused_everywhere(three, tmp_path, monkeypatch, "missing field 'u3_root'")
    _refused_everywhere(text + "u1_root = 5\n", tmp_path, monkeypatch, "duplicate field 'u1_root'")
    roots = "".join(line for line in text.splitlines(keepends=True) if line.startswith(ROOT_FIELDS))
    with pytest.raises(KeyFormatError, match="unexpected fields"):
        parse_key(dump_public(key) + roots)
    with pytest.raises(KeyFormatError, match="unexpected fields"):
        parse_key(dump_private(gen_keypair("blum", 64, IDENTITY, random.Random(1))) + roots)


def test_a_swap_of_two_roots_is_refused():
    text = dump_private(rooted_key())
    first, second = _filed_roots(rooted_key())[:2]
    swapped = _with_root(_with_root(text, 1, second), 2, first)
    with pytest.raises(KeyFormatError, match="the root of padding element 0 is no root of it"):
        parse_key(swapped)


def test_a_non_unit_element_keeps_its_flaw_message_beside_its_root():
    # the safe set (12, 53, 6, 65) that build_padding_set(7, 11, ..., random.Random(5)) returns, with its roots
    idem = crt_idempotents(7, 11)
    padding = build_padding_set(7, 11, idem.psi1, idem.psi2, random.Random(5))
    assert padding.elements == (12, 53, 6, 65) and padding.roots is not None
    text = dump_private(KeyPair.from_primes("general", 7, 11, IDENTITY, padding))
    with pytest.raises(KeyFormatError, match=re.escape("unsafe padding set: element 0 is not a unit in 1..N-1")):
        parse_key(text.replace("\nu1 = 12\n", "\nu1 = 14\n"))


def test_from_primes_refuses_a_root_that_is_none_of_its_element_and_a_short_list():
    key = rooted_key()
    elements, roots = key.padding.elements, key.padding.roots
    with pytest.raises(ValueError, match="the root of padding element 2 is no root of it"):
        KeyPair.from_primes("general", key.p, key.q, IDENTITY, PaddingSet(elements, roots=(*roots[:2], 2, roots[3])))
    with pytest.raises(ValueError, match="not 3 roots for 4"):
        KeyPair.from_primes("general", key.p, key.q, IDENTITY, PaddingSet(elements, roots=roots[:3]))


def test_padding_roots_stay_private():
    key = rooted_key()
    shown = repr(key) + dump_public(key) + repr(key.public())
    assert not any(str(w) in shown for w in key.padding.roots)
    assert key.public().padding.roots is None
    # like a chain, the roots take no part in == or hash
    bare = dataclasses.replace(key, padding=PaddingSet(key.padding.elements, key.padding.classes))
    assert bare == key and hash(bare) == hash(key)


# ---------------------------------------------------------------------------
# Root constants of the primes, which earlier versions filed in private general and rw keys: this
# version's reader refuses them as fields that no writer produces

CONSTANT_FIELDS = ("p_zpow", "q_zpow", "p_half_root", "q_half_root")
# `rabinsig keygen --kind general|rw --bits 64 --seed 11`, written by the last version that filed the
# constants: the general primes are 1 mod 8, so that file holds p_zpow and q_zpow, and the rw file
# holds p_half_root and q_half_root
CONSTANT_FILES = {kind: Path(__file__).parent / "data" / f"{kind}-constants.key" for kind in ("general", "rw")}
# sha256 of what those files signed in that version: 40 messages per scheme that each key signs
CONSTANT_FILE_SIGNATURES = "6fc9eea7d4b6ef853a77d3b6d5460c8acbbb6d5bc2567a722722efd4c0e4279d"


def _filed(text: str, field: str) -> int:
    return int(re.search(rf"^{field} = (\d+)$", text, re.M)[1])


def _without_constants(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith(CONSTANT_FIELDS))


def _refused_naming_no_digit(text, match, tmp_path, capsys):
    """parse_key refuses the file and `rabinsig sign` exits 3, and neither message holds a digit: a constant reveals p."""
    with pytest.raises(KeyFormatError, match=match) as caught:
        parse_key(text)
    path = tmp_path / "tampered.key"
    path.write_text(text)
    capsys.readouterr()
    assert main(["sign", "--key", str(path), "--scheme", "classic", "--message", "5",
                 "--out", str(tmp_path / "tampered.sig")]) == 3
    err = capsys.readouterr().err.replace(str(path), "")
    assert err and not re.search(r"\d", err + str(caught.value))


def test_no_key_file_holds_a_constant_of_its_primes():
    for kind in KINDS:
        text = dump_private(gen_keypair(kind, 80, IDENTITY, random.Random(f"constants/{kind}")))
        assert not any(line.startswith(CONSTANT_FIELDS) for line in text.splitlines())


def _ring_constant(key: KeyPair, field: str) -> int:
    # the value an earlier version filed as `field`: z**exp, or 2**(-(p+1)/4) or p minus it, below p/2
    at = key.idem.at_p if field[0] == "p" else key.idem.at_q
    return pow(at.z, at.exp, at.p) if field.endswith("_zpow") else at.half_root


@pytest.mark.parametrize("field", CONSTANT_FIELDS)
def test_each_filed_constant_is_the_one_its_ring_computes(field):
    # z**exp for a 1-mod-4 prime, and 2**(-(p+1)/4), or p minus it, below p/2 on an rw key: the key
    # of the file without its constant lines computes each one, so deleting them loses nothing
    text = next(text for text in map(Path.read_text, CONSTANT_FILES.values()) if f"\n{field} = " in text)
    prime, value = _filed(text, field[0]), _filed(text, field)
    s = ((prime - 1) & (1 - prime)).bit_length() - 1
    d = (prime - 1) >> s
    if field.endswith("_zpow"):
        assert prime % 8 == 1 and value == pow(numtheory.least_nonresidue(prime), (d - 1) // 2, prime)
    else:
        c = pow(2, -(prime + 1) // 4, prime)
        assert value == min(c, prime - c)
    assert _ring_constant(parse_key(_without_constants(text)), field) == value


@functools.cache
def _constant_hosts() -> tuple[str, ...]:
    # a private file of each kind: the two fixtures without their constant lines, and a blum key
    texts = [_without_constants(path.read_text()) for path in CONSTANT_FILES.values()]
    return (*texts, dump_private(gen_keypair("blum", 80, IDENTITY, random.Random(1))))


def _constant_value(key: KeyPair, field: str, value: str) -> int:
    # the ring's own value, or one of the edits of it that an earlier reader refused as failing its check
    own, prime = _ring_constant(key, field), key.p if field[0] == "p" else key.q
    return {
        "own": own,
        "digit": int(str(own)[:-1] + str((int(str(own)[-1]) + 1) % 10)),
        "zero": 0,
        "p-1": prime - 1,
        "minus": prime - own,
        "plus-p": own + prime,
    }[value]


@pytest.mark.parametrize("value", ["own", "digit", "zero", "p-1", "minus", "plus-p"])
@pytest.mark.parametrize("field", CONSTANT_FIELDS)
def test_a_constant_line_is_refused_as_an_unexpected_field(field, value, tmp_path, capsys):
    # whatever its value, the ring's own included, in a private file of each kind and in a public one;
    # the general fixture's primes are 1 mod 8, whose zpow an earlier reader took
    for text in _constant_hosts():
        key = parse_key(text)
        line = f"{field} = {_constant_value(key, field, value)}\n"
        for host in (text, dump_public(key)):
            _refused_naming_no_digit(host + line, re.escape(f"unexpected fields ['{field}']"), tmp_path, capsys)


def test_an_earlier_file_is_refused_and_loads_signs_the_same_without_its_constant_lines(tmp_path, capsys):
    # the workaround: delete the constant lines, and the key loads, is written back byte for byte,
    # and signs what the earlier version signed with the full file
    signed = []
    for name, path in CONSTANT_FILES.items():
        text = path.read_text()
        earlier = _without_constants(text)
        fields = sorted(field for field in CONSTANT_FIELDS if f"\n{field} = " in text)
        assert len(fields) == 2
        _refused_naming_no_digit(text, re.escape(f"unexpected fields {fields}"), tmp_path, capsys)
        key = parse_key(earlier)
        assert dump_private(key) == earlier
        public = parse_key(path.with_suffix(".key.pub").read_text())
        for scheme in SCHEME_TAGS:
            if SCHEMES[scheme].key_ok(key):
                for m in range(2, 42):
                    sig = sign(key, m, scheme, rng=random.Random(f"{name}-constants/{scheme}/{m}"))
                    assert verify(public, sig).valid
                    signed.append(dump_signature(sig, key))
    assert hashlib.sha256("".join(signed).encode()).hexdigest() == CONSTANT_FILE_SIGNATURES



def test_a_key_refuses_a_ring_of_other_primes():
    # the key signs with the ring it is given, so a ring of other primes must not reach a signer
    for other in ((11, 7), (7, 7), (7, 13)):
        with pytest.raises(ValueError, match="ring is not the ring of p and q"):
            KeyPair("blum", 7, 11, IDENTITY, ring=numtheory._KeyRoots(*other))
    ring = crt_idempotents(7, 11)
    key = KeyPair("blum", 7, 11, IDENTITY, ring=ring)
    assert key.idem is ring and key.n == 77
    # a copy made by the dataclass gets a ring of its own
    assert dataclasses.replace(key).idem is not ring and dataclasses.replace(key) == key
