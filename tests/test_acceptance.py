"""Acceptance suite: one test per criterion, at the stated sizes and tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every test is deterministic (fixed seeds).
"""

import math
import random
import time

from rabinsig.blind import blind_sign, naive_blind_sign, run_blind_session, verify_blind_signature
from rabinsig.forgery import apply_scaling, forge_classic, rsa_blinding_attack
from rabinsig.hashing import IDENTITY, QUADRATIC, apply_redundancy
from rabinsig.keygen import build_padding_set, gen_keypair, gen_prime, padding_set_flaws
from rabinsig.numtheory import (
    crt_idempotents,
    jacobi,
    mod_inv,
    sqrt_mod_pq,
    sqrt_of_unity_nontrivial,
)
from rabinsig.oracle import SmallRing, all_roots, qr_set, units, unity_roots
from rabinsig.schemes import classic_sign, classic_verify, sign, variant2_verify, verify

SCHEME_KINDS = (
    ("classic", "general"),
    ("general", "general"),
    ("variant1", "blum"),
    ("variant2", "blum"),
    ("rw", "rw"),
)


def _rng(criterion):
    return random.Random(0xACCE9700 + criterion)


def _unit(rng, n):
    while True:
        x = rng.randrange(1, n)
        if math.gcd(x, n) == 1:
            return x


def test_criterion_1_roundtrip_at_512_bits():
    rng = _rng(1)
    started = time.monotonic()
    for scheme, kind in SCHEME_KINDS:
        valid = 0
        for _ in range(100):
            key = gen_keypair(kind, 512, IDENTITY, rng)
            m = _unit(rng, key.n)
            sig = sign(key, m, scheme, rng=rng)
            if verify(key.public(), sig).valid:
                valid += 1
        assert valid == 100, f"{scheme}: only {valid}/100 round-trips verified"
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"round-trip run took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: 5 schemes x 100/100 round-trips at 512-bit primes in {elapsed:.1f}s")


def test_criterion_2_exhaustive_oracle_equivalence():
    started = time.monotonic()
    ring15, ring77 = SmallRing(3, 5), SmallRing(7, 11)

    assert qr_set(ring15) == {1, 4}
    for ring in (ring15, ring77):
        residues, idem = qr_set(ring), crt_idempotents(ring.p, ring.q)
        for a in units(ring):
            predicted = jacobi(a, ring.p) == 1 and jacobi(a, ring.q) == 1
            assert predicted == (a in residues)
            if predicted:
                brute = all_roots(a, ring)
                assert len(brute) == 4
                assert sqrt_mod_pq(a, idem) == brute

    assert unity_roots(ring77) == (1, 34, 43, 76)
    assert set(sqrt_of_unity_nontrivial(crt_idempotents(7, 11))) == {34, 43}

    # padding-class uniqueness: every unit pairs with exactly one multiplier
    rng = _rng(2)
    idem = crt_idempotents(7, 11)
    residues77 = qr_set(ring77)
    for _ in range(10):
        ps = build_padding_set(7, 11, idem.psi1, idem.psi2, rng)
        for z in units(ring77):
            assert sum(1 for u in ps.elements if u * z % 77 in residues77) == 1

    elapsed = time.monotonic() - started
    assert elapsed < 5, f"exhaustive checks took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: brute-force equivalence at n=15 and n=77 in {elapsed:.2f}s")


def test_criterion_3_exact_operation_counts():
    rng = _rng(3)
    expected = {"general": (1, 1), "variant1": (2, 2), "variant2": (7, 3)}
    for scheme, counts in expected.items():
        kind = "general" if scheme == "general" else "blum"
        key = gen_keypair(kind, 128, IDENTITY, rng)
        report = verify(key.public(), sign(key, _unit(rng, key.n), scheme, rng=rng))
        assert report.valid
        assert report.op_counts == counts, f"{scheme}: {report.op_counts} != {counts}"

    key = gen_keypair("blum", 128, IDENTITY, rng)
    session = run_blind_session(key, _unit(rng, key.n), rng)
    published = variant2_verify(key.public(), session.published)
    assert published.valid and published.op_counts == (7, 3)
    blind_report = verify_blind_signature(session.blind_sig, key.n)
    assert blind_report.valid and blind_report.op_counts == (7, 3)
    print("\nACCEPTANCE 3 PASS: op counts general (1,1), variant1 (2,2), variant2 and blind (7,3)")


def test_criterion_4_classic_forgery_always_succeeds():
    rng = _rng(4)
    key = gen_keypair("blum", 128, IDENTITY, rng)
    pub = key.public()
    honest = classic_sign(key, _unit(rng, key.n), rng=rng)
    assert classic_verify(pub, honest).valid
    for _ in range(100):
        target = _unit(rng, key.n)
        forged = forge_classic(honest, target, key.n)
        assert classic_verify(pub, forged).valid, f"forgery failed for target {target}"
    print("\nACCEPTANCE 4 PASS: classic substitution forgery verified for 100/100 targets")


def test_criterion_5_scaling_forgeries_and_their_defense():
    rng = _rng(5)
    for scheme, kind in SCHEME_KINDS:
        key = gen_keypair(kind, 128, IDENTITY, rng)
        pub = key.public()
        for _ in range(100):
            sig = sign(key, _unit(rng, key.n), scheme, rng=rng)
            lam = _unit(rng, key.n)
            assert verify(pub, apply_scaling(sig, lam, key.n)).valid, f"{scheme} scaling rejected"

        key = gen_keypair(kind, 128, QUADRATIC, rng)
        pub = key.public()
        rejected = 0
        for _ in range(100):
            m = _unit(rng, key.n)
            h = apply_redundancy(QUADRATIC, m, key.n)
            while h == 0 or math.gcd(h, key.n) != 1:
                m = _unit(rng, key.n)
                h = apply_redundancy(QUADRATIC, m, key.n)
            sig = sign(key, m, scheme, rng=rng)
            lam = _unit(rng, key.n)
            while lam in (1, key.n - 1):
                lam = _unit(rng, key.n)
            if not verify(pub, apply_scaling(sig, lam, key.n)).valid:
                rejected += 1
        assert rejected == 100, f"{scheme}: {100 - rejected} scaled signatures slipped through"
    print("\nACCEPTANCE 5 PASS: identity scaling 100/100 valid, quadratic scaling 0/100 valid, per scheme")


def test_criterion_6_blinding_attack_statistics():
    rng = _rng(6)
    key = gen_keypair("blum", 256, IDENTITY, rng)
    x = _unit(rng, key.n)
    c = x * x % key.n

    naive = lambda d: naive_blind_sign(key, d, rng)
    outcomes = [rsa_blinding_attack(naive, c, key.n, rng, trials=1, known_root=x) for _ in range(400)]
    factored = sum(1 for o in outcomes if o.kind == "factored")
    decrypted = sum(1 for o in outcomes if o.kind == "decrypted")
    assert factored + decrypted == 400, "a trial against the naive signer yielded nothing"
    for o in outcomes:
        if o.kind == "decrypted":
            assert o.value in (x, key.n - x)
        else:
            assert o.value in (key.p, key.q)
    fraction = factored / 400
    assert 0.35 <= fraction <= 0.65, f"factoring fraction {fraction} outside [0.35, 0.65]"

    hardened = lambda d: blind_sign(key, d, rng).F
    recovered = sum(
        1
        for _ in range(400)
        if rsa_blinding_attack(hardened, c, key.n, rng, trials=1, known_root=x).kind != "failed"
    )
    assert recovered == 0, f"{recovered}/400 trials extracted a root from the hardened signer"
    print(
        f"\nACCEPTANCE 6 PASS: naive signer 400/400 decrypt-or-factor (factored fraction {fraction:.3f}); "
        "hardened signer 0/400"
    )


def test_criterion_7_squared_nonce_leak():
    n = 77
    idem = crt_idempotents(7, 11)
    leaks = 0
    for m in range(1, n):
        if math.gcd(m, n) != 1:
            continue
        padding = (jacobi(m, 7) * idem.psi1 + jacobi(m, 11) * idem.psi2) % n
        root = min(all_roots(m * padding % n, SmallRing(7, 11)))
        for nonce in range(1, n):
            if math.gcd(nonce, n) != 1:
                continue
            f_val = nonce * root % n
            r_squared = nonce * nonce % n  # the weakened variant publishes this
            leaked = f_val * f_val % n * mod_inv(r_squared * m % n, n) % n
            assert leaked == padding
            if leaked not in (1, n - 1):
                factor = math.gcd(leaked + 1, n)
                assert factor in (7, 11)
                leaks += 1
    assert leaks > 0
    print(f"\nACCEPTANCE 7 PASS: squared-nonce leak factors n=77 in all {leaks} nontrivial cases")


def test_criterion_8_blind_protocol_end_to_end():
    rng = _rng(8)
    valid = 0
    for _ in range(100):
        key = gen_keypair("blum", 512, IDENTITY, rng)
        session = run_blind_session(key, _unit(rng, key.n), rng)
        if variant2_verify(key.public(), session.published).valid:
            valid += 1
        if session.r != 1:
            assert session.published.F != session.blind_sig.F
            assert session.published.R3 != session.blind_sig.R3
    assert valid == 100, f"only {valid}/100 blind sessions verified"
    print("\nACCEPTANCE 8 PASS: 100/100 blind sessions verify; published components differ from the signer's view")


def test_criterion_9_padding_set_safety():
    rng = _rng(9)
    checked = 0
    for _ in range(25):
        p = gen_prime(128, "none", rng)
        q = gen_prime(128, "none", rng)
        if p == q:
            continue
        idem = crt_idempotents(p, q)
        for _ in range(40):
            ps = build_padding_set(p, q, idem.psi1, idem.psi2, rng)
            flaws = padding_set_flaws(ps.elements, p, q)
            assert flaws == [], flaws
            assert {cls for cls in ps.classes} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
            checked += 1
    assert checked == 1000
    print(f"\nACCEPTANCE 9 PASS: {checked}/1000 generated padding sets pass every safety check")
