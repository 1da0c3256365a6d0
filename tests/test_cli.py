import random

import pytest

from rabinsig.cli import _naive_blind_demo, main
from rabinsig.hashing import IDENTITY
from rabinsig.keygen import (
    KeyPair,
    build_padding_set,
    dump_private,
    dump_public,
    gen_keypair,
    parse_key,
)
from rabinsig.numtheory import crt_idempotents
from rabinsig.schemes import dump_signature, parse_signature, sign, verify

from conftest import SeqRng, general_key_with_unchecked_padding


@pytest.fixture
def keyfiles(tmp_path):
    priv = tmp_path / "demo.key"
    assert main(["keygen", "--kind", "blum", "--bits", "48", "--out", str(priv), "--seed", "11"]) == 0
    return priv, tmp_path / "demo.key.pub"


def test_keygen_writes_both_files(keyfiles):
    priv, pub = keyfiles
    key = parse_key(priv.read_text())
    public = parse_key(pub.read_text())
    assert key.public() == public
    assert key.is_blum


def test_keygen_rejects_unknown_hash(tmp_path, capsys):
    rc = main(["keygen", "--kind", "blum", "--hash", "whirlpool-fantasy", "--out", str(tmp_path / "k")])
    assert rc == 2


def test_sign_verify_roundtrip(keyfiles, tmp_path, capsys):
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "12345",
                 "--out", str(sig), "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 0
    out = capsys.readouterr().out
    assert "VALID" in out
    assert "7 squares, 3 products" in out


def test_verify_reports_ops_for_every_scheme(keyfiles, tmp_path, capsys):
    priv, pub = keyfiles
    expectations = {
        "classic": "1 square, 1 product",
        "variant1": "2 squares, 2 products",
        "variant2": "7 squares, 3 products",
    }
    for scheme, expected in expectations.items():
        sig = tmp_path / f"{scheme}.sig"
        assert main(["sign", "--key", str(priv), "--scheme", scheme, "--message", "9",
                     "--out", str(sig), "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 0
        assert expected in capsys.readouterr().out


def test_tampered_signature_fails(keyfiles, tmp_path, capsys):
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    main(["sign", "--key", str(priv), "--scheme", "classic", "--message", "5", "--out", str(sig), "--seed", "2"])
    text = sig.read_text()
    name, _, value = text.splitlines()[-1].partition(" = ")
    sig.write_text(text.replace(f"{name} = {value}", f"{name} = {int(value) + 1}"))
    capsys.readouterr()
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_corrupt_key_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.key"
    bad.write_text("rabin-key v1\nkind = blum\n")
    assert main(["verify", "--pub", str(bad), "--sig", str(bad)]) == 3


@pytest.mark.parametrize("n", ["0", "1", "2", "9"])
def test_degenerate_public_modulus_exits_3(keyfiles, tmp_path, n):
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    lines = [f"N = {n}" if line.startswith("N = ") else line for line in pub.read_text().splitlines()]
    pub.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 3


@pytest.mark.parametrize("field", ["message", "F"])
def test_negative_signature_value_exits_3(keyfiles, tmp_path, field):
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    sig.write_text(sig.read_text().replace(f"\n{field} = ", f"\n{field} = -"))
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 3


def test_composite_factor_key_exits_3(tmp_path):
    # 15 is 3 mod 4, so only the primality test can reject this blum key
    p, q = 15, 7
    idem = crt_idempotents(p, q)
    priv = tmp_path / "composite.key"
    priv.write_text(f"rabin-key v1\nkind = blum\nhash = identity\nN = {p * q}\n"
                    f"p = {p}\nq = {q}\npsi1 = {idem.psi1}\npsi2 = {idem.psi2}\n")
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(tmp_path / "x.sig")]) == 3


def test_missing_file_exits_3(tmp_path):
    assert main(["verify", "--pub", str(tmp_path / "none.pub"), "--sig", str(tmp_path / "none.sig")]) == 3


def test_bad_flags_exit_2():
    assert main(["keygen", "--kind", "pyramid", "--out", "x"]) == 2
    assert main(["sign"]) == 2
    assert main(["no-such-command"]) == 2


def test_scheme_key_mismatch_exits_2(tmp_path, capsys):
    # 11 and 19 are both 3 mod 8: a blum key with no padding set and no 7-mod-8 prime;
    # 13 is 1 mod 4, so the general key is no blum key
    idem = crt_idempotents(13, 17)
    padding = build_padding_set(13, 17, idem.psi1, idem.psi2, random.Random(1))
    keys = {"blum": KeyPair.from_primes("blum", 11, 19, IDENTITY),
            "general": KeyPair.from_primes("general", 13, 17, IDENTITY, padding)}
    for kind, scheme, expected in (("blum", "general", 2), ("blum", "rw", 2), ("blum", "classic", 0),
                                   ("general", "variant1", 2), ("general", "variant2", 2)):
        priv = tmp_path / f"{kind}.key"
        priv.write_text(dump_private(keys[kind]))
        rc = main(["sign", "--key", str(priv), "--scheme", scheme, "--message", "5",
                   "--out", str(tmp_path / "x.sig")])
        assert rc == expected, (kind, scheme)


def test_padding_set_missing_a_class_exits_3(tmp_path):
    # four squares cover one Jacobi class; m = 3 is a non-residue mod 7, so no
    # element fits it and signing used to escape with a ValueError
    priv = tmp_path / "deficient.key"
    priv.write_text(dump_private(general_key_with_unchecked_padding(7, 11, (4, 9, 16, 25))))
    assert main(["sign", "--key", str(priv), "--scheme", "general", "--message", "3",
                 "--out", str(tmp_path / "x.sig")]) == 3


def test_oversized_message_needs_digest_redundancy(keyfiles, tmp_path):
    priv, _ = keyfiles
    key = parse_key(priv.read_text())
    rc = main(["sign", "--key", str(priv), "--scheme", "classic", "--message", str(key.n + 5),
               "--out", str(tmp_path / "x.sig")])
    assert rc == 2


def test_file_roundtrip_matches_memory(tmp_path, rng):
    # keygen -> sign -> verify through files reproduces the in-memory objects
    key = gen_keypair("general", 48, IDENTITY, rng)
    sig = sign(key, 31337 % key.n, "general")
    priv = tmp_path / "k"
    priv.write_text(dump_private(key))
    (tmp_path / "k.pub").write_text(dump_public(key.public()))
    sigfile = tmp_path / "s"
    sigfile.write_text(dump_signature(sig, key.public()))
    assert parse_key(priv.read_text()) == key
    assert parse_signature(sigfile.read_text()) == sig
    assert verify(parse_key((tmp_path / "k.pub").read_text()), parse_signature(sigfile.read_text())).valid


def test_digest_sign_with_message_file(tmp_path, capsys):
    priv = tmp_path / "d.key"
    main(["keygen", "--kind", "blum", "--bits", "48", "--hash", "digest:sha256",
          "--out", str(priv), "--seed", "5"])
    payload = tmp_path / "payload.bin"
    payload.write_bytes(b"byte-stream message")
    sig = tmp_path / "payload.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message-file", str(payload),
                 "--out", str(sig), "--seed", "6"]) == 0
    capsys.readouterr()
    assert main(["verify", "--pub", str(priv) + ".pub", "--sig", str(sig),
                 "--message-file", str(payload)]) == 0
    other = tmp_path / "other.bin"
    other.write_bytes(b"different payload")
    assert main(["verify", "--pub", str(priv) + ".pub", "--sig", str(sig),
                 "--message-file", str(other)]) == 1


def test_blind_demo(keyfiles, capsys):
    priv, _ = keyfiles
    assert main(["blind-demo", "--key", str(priv), "--message", "42", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    for field in ("disguised =", "blind-F =", "signed-F =", "verification = VALID"):
        assert field in out
    assert "7 squares, 3 products" in out


def test_naive_blind_demo_on_a_square(keyfiles, capsys):
    priv, _ = keyfiles
    key = parse_key(priv.read_text())
    m = 1234 * 1234 % key.n
    assert main(["blind-demo", "--key", str(priv), "--message", str(m), "--naive", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "unblinded-root" in out
    assert "warning" in out


def test_naive_blind_demo_redraws_a_unit_blinder_of_one(capsys):
    # the blinder comes from random_unit, drawn again while it is 1; m = 4 is a square mod 77
    key = KeyPair.from_primes("blum", 7, 11, IDENTITY)
    assert _naive_blind_demo(key, 4, SeqRng(1, 1, 2, 0)) == 0
    assert "blinding = 2" in capsys.readouterr().out


def test_attack_classic_forge_end_to_end(keyfiles, tmp_path, capsys):
    priv, pub = keyfiles
    sig = tmp_path / "honest.sig"
    main(["sign", "--key", str(priv), "--scheme", "classic", "--message", "5",
          "--out", str(sig), "--seed", "2"])
    forged = tmp_path / "forged.sig"
    capsys.readouterr()
    assert main(["attack", "--kind", "classic-forge", "--pub", str(pub), "--sig", str(sig),
                 "--target", "99", "--out", str(forged)]) == 0
    assert "VALID" in capsys.readouterr().out
    assert main(["verify", "--pub", str(pub), "--sig", str(forged)]) == 0


def test_attack_scale_identity_vs_quadratic(tmp_path, capsys):
    for hash_tag, expected_rc in (("identity", 0), ("quadratic", 1)):
        priv = tmp_path / f"{hash_tag}.key"
        main(["keygen", "--kind", "blum", "--bits", "48", "--hash", hash_tag,
              "--out", str(priv), "--seed", "21"])
        sig = tmp_path / f"{hash_tag}.sig"
        main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "1234",
              "--out", str(sig), "--seed", "22"])
        capsys.readouterr()
        rc = main(["attack", "--kind", "scale", "--pub", str(priv) + ".pub", "--sig", str(sig),
                   "--factor", "3"])
        assert rc == expected_rc


def test_attack_blinding_naive_vs_hardened(keyfiles, capsys):
    priv, _ = keyfiles
    key = parse_key(priv.read_text())
    x = 123457
    c = x * x % key.n
    capsys.readouterr()
    assert main(["attack", "--kind", "blinding", "--key", str(priv), "--ciphertext", str(c),
                 "--trials", "64", "--seed", "31"]) == 0
    out = capsys.readouterr().out
    assert "outcome = factored" in out or "outcome = decrypted" in out
    assert main(["attack", "--kind", "blinding", "--key", str(priv), "--ciphertext", str(c),
                 "--trials", "16", "--hardened", "--seed", "31"]) == 1
    assert "outcome = failed" in capsys.readouterr().out


def test_attack_missing_flags_exit_2(keyfiles):
    priv, pub = keyfiles
    assert main(["attack", "--kind", "classic-forge", "--pub", str(pub)]) == 2
    assert main(["attack", "--kind", "blinding", "--key", str(priv)]) == 2


def test_selfcheck_deterministic_with_seed(capsys):
    assert main(["selfcheck", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["selfcheck", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert "all checks passed" in first


def test_all_zero_signature_is_invalid(keyfiles, tmp_path, capsys):
    _, pub = keyfiles
    sig = tmp_path / "zero.sig"
    sig.write_text("rabin-sig v1\nscheme = classic\nmessage = 5\nU = 0\nS = 0\n")
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 1
    assert "INVALID (zero component)" in capsys.readouterr().out


@pytest.fixture
def digest_ref_sig(keyfiles, tmp_path):
    """A variant2 signature file whose message is a digest reference, under the identity key."""
    priv, _ = keyfiles
    sig = tmp_path / "ref.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    sig.write_text(sig.read_text().replace("\nmessage = 5\n", "\nmessage-digest = 5\n"))
    return sig


def test_digest_reference_under_a_non_digest_key_is_invalid(keyfiles, digest_ref_sig, capsys):
    _, pub = keyfiles
    capsys.readouterr()
    assert main(["verify", "--pub", str(pub), "--sig", str(digest_ref_sig)]) == 1
    assert capsys.readouterr().out.startswith("INVALID (")


def test_scaling_a_digest_reference_exits_2(keyfiles, digest_ref_sig):
    _, pub = keyfiles
    assert main(["attack", "--kind", "scale", "--pub", str(pub), "--sig", str(digest_ref_sig),
                 "--factor", "3"]) == 2


def test_blind_demo_negative_message_exits_2(keyfiles):
    priv, _ = keyfiles
    assert main(["blind-demo", "--key", str(priv), "--message", "-3"]) == 2


@pytest.mark.parametrize("hash_token", ["identity", "quadratic"])
def test_blind_demo_message_of_n_or_more_exits_2(tmp_path, hash_token):
    # N + 4 is 4 mod N, a square, so neither signer would refuse it on its own
    priv = tmp_path / "demo.key"
    assert main(["keygen", "--kind", "blum", "--bits", "32", "--hash", hash_token,
                 "--out", str(priv), "--seed", "5"]) == 0
    n = parse_key(priv.read_text()).n
    for m in (n, n + 4):
        for naive in ([], ["--naive"]):
            assert main(["blind-demo", "--key", str(priv), "--message", str(m), "--seed", "1", *naive]) == 2
        assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", str(m),
                     "--out", str(tmp_path / "m.sig")]) == 2


def test_keygen_too_few_bits_exits_2(tmp_path):
    assert main(["keygen", "--kind", "blum", "--bits", "4", "--out", str(tmp_path / "k")]) == 2
    assert not (tmp_path / "k").exists()


def test_keygen_variable_length_digest_exits_2(tmp_path):
    assert main(["keygen", "--kind", "blum", "--bits", "32", "--hash", "digest:shake_128",
                 "--out", str(tmp_path / "k")]) == 2


def test_key_file_naming_a_variable_length_digest_exits_3(keyfiles, tmp_path):
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    pub.write_text(pub.read_text().replace("hash = identity", "hash = digest:shake_128"))
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 3


def test_hardened_blind_signer_on_a_non_blum_key_exits_2(tmp_path):
    # 13 is 1 mod 4; the naive signer takes any key, the hardened one signs as variant2
    idem = crt_idempotents(13, 17)
    padding = build_padding_set(13, 17, idem.psi1, idem.psi2, random.Random(1))
    priv = tmp_path / "general.key"
    priv.write_text(dump_private(KeyPair.from_primes("general", 13, 17, IDENTITY, padding)))
    assert main(["blind-demo", "--key", str(priv), "--message", "4", "--seed", "1"]) == 2
    assert main(["attack", "--kind", "blinding", "--key", str(priv), "--ciphertext", "4",
                 "--hardened", "--seed", "1"]) == 2
    assert main(["attack", "--kind", "blinding", "--key", str(priv), "--ciphertext", "4",
                 "--trials", "4", "--seed", "1"]) in (0, 1)
