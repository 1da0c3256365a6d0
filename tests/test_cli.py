import dataclasses
import os
import random
import re
import stat
import sys
from pathlib import Path

import pytest

from rabinsig import blind, cli
from rabinsig.cli import _naive_blind_demo, main
from rabinsig.errors import KeyFormatError, SignatureFormatError
from rabinsig.hashing import IDENTITY
from rabinsig.keygen import (
    MAX_PRIME_BITS,
    KeyPair,
    build_padding_set,
    dump_private,
    dump_public,
    gen_keypair,
    parse_key,
)
from rabinsig.numtheory import SYSTEM_RNG, crt_idempotents, jacobi
from rabinsig.schemes import dump_signature, parse_signature, sign, verify

from conftest import SeqRng, general_key_with_unchecked_padding, secret_runs


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
    assert key.kind == "blum" and key.p % 4 == key.q % 4 == 3


@pytest.mark.skipif(os.name != "posix", reason="os.chmod sets POSIX permission bits only on POSIX")
def test_keygen_private_key_file_is_0600(tmp_path, monkeypatch):
    # the factors are never in the file while others may read it
    fresh, existing = tmp_path / "fresh.key", tmp_path / "existing.key"
    existing.write_text("old contents\n")
    existing.chmod(0o644)
    seen = []
    real_chmod = os.chmod

    def spy(path, mode, **kwargs):
        if Path(path) in (fresh, existing):
            info = os.stat(path)
            seen.append((info.st_size, stat.S_IMODE(info.st_mode)))
        real_chmod(path, mode, **kwargs)

    monkeypatch.setattr(os, "chmod", spy)
    old_umask = os.umask(0o022)
    try:
        for path in (fresh, existing):
            assert main(["keygen", "--kind", "blum", "--bits", "32", "--out", str(path), "--seed", "3"]) == 0
            assert stat.S_IMODE(path.stat().st_mode) == 0o600
            assert parse_key(path.read_text()).p
    finally:
        os.umask(old_umask)
    assert all(size == 0 or mode == 0o600 for size, mode in seen)


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


@pytest.mark.parametrize("kind, n", [("blum", 91), ("blum", 15), ("rw", 209)])
def test_public_modulus_outside_its_kind_s_class_exits_3(keyfiles, tmp_path, capsys, kind, n):
    # no two primes of the kind multiply to n: 91 and 15 are 3 mod 4, 209 is 1 mod 8
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    pub.write_text(f"rabin-key v1\nkind = {kind}\nhash = identity\nN = {n}\n")
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 3
    assert f"as a {kind} key's is" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["message", "F"])
def test_negative_signature_value_exits_3(keyfiles, tmp_path, field):
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    sig.write_text(sig.read_text().replace(f"\n{field} = ", f"\n{field} = -"))
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 3


# The writers put one "name = value" line per field, with single spaces around "=".
LINE_VARIANTS = {
    "no-spaces": lambda line: line.replace(" = ", "="),
    "leading-space": lambda line: " " + line,
    "trailing-space": lambda line: line + " ",
    "blank-line-after": lambda line: line + "\n",
}


@pytest.mark.parametrize("variant", LINE_VARIANTS)
@pytest.mark.parametrize("field", ["kind", "N", "scheme", "F"])
def test_only_the_written_line_form_is_read(keyfiles, tmp_path, field, variant):
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    path, parse, error = ((pub, parse_key, KeyFormatError) if field in ("kind", "N")
                          else (sig, parse_signature, SignatureFormatError))
    text = path.read_text()
    line = next(line for line in text.splitlines() if line.startswith(f"{field} = "))
    path.write_text(text.replace(f"{line}\n", f"{LINE_VARIANTS[variant](line)}\n"))
    with pytest.raises(error):
        parse(path.read_text())
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 3


@pytest.mark.parametrize("line_end", ["\r\n", "\r"])
@pytest.mark.parametrize("which", ["pub", "sig"])
def test_files_are_read_as_bytes_so_cr_line_ends_are_refused(keyfiles, tmp_path, which, line_end):
    # text mode would read either line end as "\n" and load the copy
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    assert b"\r" not in pub.read_bytes() + sig.read_bytes()
    path = {"pub": pub, "sig": sig}[which]
    path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
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


def test_private_key_whose_n_is_not_p_times_q_exits_3(keyfiles, tmp_path, capsys):
    # N + 4 is still an odd non-square 1 mod 4, as a blum key's N is, so only the N = p*q check refuses it
    priv, _ = keyfiles
    text = priv.read_text()
    n = parse_key(text).n
    priv.write_text(text.replace(f"\nN = {n}\n", f"\nN = {n + 4}\n"))
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(tmp_path / "x.sig")]) == 3
    assert "N does not equal p*q" in capsys.readouterr().err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter's int() converts any number of digits")
@pytest.mark.parametrize("which, field", [("pub", "N"), ("sig", "F")])
def test_a_field_with_more_digits_than_int_converts_exits_3(keyfiles, tmp_path, capsys, which, field):
    priv, pub = keyfiles
    sig = tmp_path / "m.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    path = {"pub": pub, "sig": sig}[which]
    digits = "1" + "0" * sys.get_int_max_str_digits()  # one digit more than the limit, in canonical form
    path.write_text("".join(f"{field} = {digits}\n" if line.startswith(f"{field} = ") else line + "\n"
                            for line in path.read_text().splitlines()))
    capsys.readouterr()
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 3
    assert f"field {field!r} is too long" in capsys.readouterr().err


def test_missing_file_exits_3(tmp_path):
    assert main(["verify", "--pub", str(tmp_path / "none.pub"), "--sig", str(tmp_path / "none.sig")]) == 3


def test_bad_flags_exit_2():
    assert main(["keygen", "--kind", "pyramid", "--out", "x"]) == 2
    assert main(["sign"]) == 2
    assert main(["no-such-command"]) == 2


def test_unseeded_commands_draw_from_the_one_system_rng():
    assert cli._rng(None) is SYSTEM_RNG


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


def test_verify_message_file_under_a_non_digest_key_exits_2(keyfiles, tmp_path, capsys):
    priv, pub = keyfiles
    sig, payload = tmp_path / "m.sig", tmp_path / "payload.bin"
    payload.write_bytes(b"byte-stream message")
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "--pub", str(pub), "--sig", str(sig), "--message-file", str(payload)]) == 2
    assert "--message-file needs a key with digest redundancy" in capsys.readouterr().err


def test_blind_demo(keyfiles, capsys):
    priv, _ = keyfiles
    assert main(["blind-demo", "--key", str(priv), "--message", "42", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    for field in ("disguised =", "blind-F =", "signed-F =", "verification = VALID"):
        assert field in out
    assert "7 squares, 3 products" in out


def test_blind_demo_takes_one_root(keyfiles, monkeypatch, capsys):
    # one canonical root and its two Jacobi symbols in blind_sign, one inverse in unblind: no root for signer_R
    priv, _ = keyfiles
    calls = {}
    for name in ("canonical_sqrt_mod_pq", "jacobi", "mod_inv"):
        def counted(*args, _real=getattr(blind, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(blind, name, counted)
    assert main(["blind-demo", "--key", str(priv), "--message", "42", "--seed", "9"]) == 0
    assert "verification = VALID" in capsys.readouterr().out
    assert calls == {"canonical_sqrt_mod_pq": 1, "jacobi": 2, "mod_inv": 1}


def test_naive_blind_demo_on_a_square(keyfiles, capsys):
    priv, _ = keyfiles
    key = parse_key(priv.read_text())
    m = 1234 * 1234 % key.n
    assert main(["blind-demo", "--key", str(priv), "--message", str(m), "--naive", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "unblinded-root" in out
    assert "warning" in out


def test_naive_blind_demo_on_a_non_residue_is_refused(tmp_path, capsys):
    # 3 is a non-residue mod 7, so every disguised r**2 * 3 is one too and the naive signer refuses it
    priv = tmp_path / "toy.key"
    priv.write_text(dump_private(KeyPair.from_primes("blum", 7, 11, IDENTITY)))
    assert main(["blind-demo", "--key", str(priv), "--naive", "--message", "3", "--seed", "4"]) == 1
    assert "signer-refused = 1" in capsys.readouterr().out


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


@pytest.fixture
def variant2_sig(keyfiles, tmp_path):
    priv, _ = keyfiles
    sig = tmp_path / "v2.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "1234",
                 "--out", str(sig), "--seed", "22"]) == 0
    return sig


def test_attack_scale_refuses_factors_that_forge_nothing(keyfiles, variant2_sig, capsys):
    # 1 and -1 square to 1, so the "forgery" is a signature on the original message; 0 is no unit
    _, pub = keyfiles
    n = parse_key(pub.read_text()).n
    for factor in (1, -1, n - 1, 0, n, n + 1):
        capsys.readouterr()
        assert main(["attack", "--kind", "scale", "--pub", str(pub), "--sig", str(variant2_sig),
                     "--factor", str(factor)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: attack --kind scale needs a --factor that is a unit mod N whose square is not 1\n"


def test_attack_scale_prints_the_factor_reduced_mod_n(keyfiles, variant2_sig, capsys):
    _, pub = keyfiles
    n = parse_key(pub.read_text()).n
    capsys.readouterr()
    assert main(["attack", "--kind", "scale", "--pub", str(pub), "--sig", str(variant2_sig),
                 "--factor", str(n + 3)]) == 0
    assert capsys.readouterr().out.startswith("scaled variant2 signature by 3: message = ")


def test_re_encoded_component_is_invalid(keyfiles, variant2_sig, tmp_path, capsys):
    _, pub = keyfiles
    n = parse_key(pub.read_text()).n
    sig = parse_signature(variant2_sig.read_text())
    for field, value in (("F", sig.F), ("R3", sig.R3), ("message", sig.m)):
        forged = tmp_path / f"{field}.sig"
        forged.write_text(variant2_sig.read_text().replace(f"\n{field} = {value}\n", f"\n{field} = {value + n}\n"))
        assert forged.read_text() != variant2_sig.read_text()
        capsys.readouterr()
        assert main(["verify", "--pub", str(pub), "--sig", str(forged)]) == 1
        assert capsys.readouterr().out.startswith("INVALID (component range)\nops: 0 squares, 0 products\n")


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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_attack_blinding_needs_a_positive_trial_count(keyfiles, capsys, trials):
    priv, _ = keyfiles
    capsys.readouterr()
    assert main(["attack", "--kind", "blinding", "--key", str(priv), "--ciphertext", "4",
                 "--trials", trials, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: attack --kind blinding needs --trials of at least 1\n"


def test_attack_missing_flags_exit_2(keyfiles):
    priv, pub = keyfiles
    assert main(["attack", "--kind", "classic-forge", "--pub", str(pub)]) == 2
    assert main(["attack", "--kind", "blinding", "--key", str(priv)]) == 2
    assert main(["attack", "--kind", "variant2-factor", "--pub", str(pub)]) == 2
    assert main(["attack", "--kind", "blinding-cube", "--key", str(priv)]) == 2


def _signed_with_symbol(priv, tmp_path, symbol):
    """A variant2 signature file on the first message m >= 2 with Jacobi symbol (m/N) = symbol."""
    key = parse_key(priv.read_text())
    m = next(m for m in range(2, key.n) if jacobi(m, key.n) == symbol)
    sig = tmp_path / f"jacobi{symbol}.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", str(m),
                 "--out", str(sig), "--seed", "7"]) == 0
    return key, sig


def test_attack_variant2_factor_reads_a_factor_off_a_minus_one_signature(keyfiles, tmp_path, capsys):
    priv, pub = keyfiles
    key, sig = _signed_with_symbol(priv, tmp_path, -1)
    capsys.readouterr()
    assert main(["attack", "--kind", "variant2-factor", "--pub", str(pub), "--sig", str(sig)]) == 0
    assert capsys.readouterr().out in (f"factor = {key.p}\n", f"factor = {key.q}\n")


def test_attack_variant2_factor_finds_none_on_a_plus_one_signature(keyfiles, tmp_path, capsys):
    priv, pub = keyfiles
    _, sig = _signed_with_symbol(priv, tmp_path, 1)
    capsys.readouterr()
    assert main(["attack", "--kind", "variant2-factor", "--pub", str(pub), "--sig", str(sig)]) == 1
    assert capsys.readouterr().out == "outcome = failed\n"


def test_attack_variant2_factor_refuses_other_schemes(keyfiles, tmp_path, capsys):
    priv, pub = keyfiles
    sig = tmp_path / "v1.sig"
    assert main(["sign", "--key", str(priv), "--scheme", "variant1", "--message", "5",
                 "--out", str(sig), "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(["attack", "--kind", "variant2-factor", "--pub", str(pub), "--sig", str(sig)]) == 2
    assert capsys.readouterr().err == "error: attack --kind variant2-factor needs a variant2 signature\n"


def test_attack_blinding_cube_recovers_a_root_from_the_hardened_signer(keyfiles, capsys):
    priv, _ = keyfiles
    key = parse_key(priv.read_text())
    x = 123457
    capsys.readouterr()
    assert main(["attack", "--kind", "blinding-cube", "--key", str(priv), "--ciphertext", str(x * x % key.n),
                 "--trials", "16", "--seed", "31"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("oracle = hardened, read as F^3/(R3*d)\n")
    assert f"factor = {key.p}\n" in out or f"factor = {key.q}\n" in out or "root = " in out


def test_attack_blinding_cube_fails_on_a_non_square(keyfiles, capsys):
    # a ciphertext with Jacobi symbol -1 has no root, and each answer is a root of d*u, u not 1
    priv, _ = keyfiles
    key = parse_key(priv.read_text())
    c = next(c for c in range(2, key.n) if jacobi(c, key.n) == -1)
    capsys.readouterr()
    assert main(["attack", "--kind", "blinding-cube", "--key", str(priv), "--ciphertext", str(c),
                 "--trials", "8", "--seed", "31"]) == 1
    assert "outcome = failed" in capsys.readouterr().out


def test_attack_blinding_cube_needs_a_blum_key(tmp_path, capsys):
    priv = tmp_path / "general.key"
    assert main(["keygen", "--kind", "general", "--bits", "48", "--out", str(priv), "--seed", "11"]) == 0
    capsys.readouterr()
    assert main(["attack", "--kind", "blinding-cube", "--key", str(priv), "--ciphertext", "4", "--seed", "1"]) == 2


def test_selfcheck_deterministic_with_seed(capsys):
    assert main(["selfcheck", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["selfcheck", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert "all checks passed" in first


def test_selfcheck_fails_on_a_lying_verifier(monkeypatch, capsys):
    monkeypatch.setattr(cli.schemes, "verify", lambda pub, sig: cli.schemes.VerifyReport(True))
    assert main(["selfcheck", "--seed", "7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert len(failed) == len(cli._SCHEME_CHECKS) * 2  # every scheme check, under both redundancies
    assert all("verifier disagrees with brute force" in line for line in failed)
    assert lines[-1] == f"selfcheck: {len(failed)} check(s) FAILED"


def test_all_zero_signature_is_invalid(keyfiles, tmp_path, capsys):
    _, pub = keyfiles
    sig = tmp_path / "zero.sig"
    sig.write_text("rabin-sig v1\nscheme = classic\nmessage = 5\nU = 0\nS = 0\n")
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 1
    assert "INVALID (component range)" in capsys.readouterr().out


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
    # the verifier's message rule gives the one verdict, before any operation
    _, pub = keyfiles
    capsys.readouterr()
    assert main(["verify", "--pub", str(pub), "--sig", str(digest_ref_sig)]) == 1
    assert capsys.readouterr().out == "INVALID (component range)\nops: 0 squares, 0 products\n"


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


def test_keygen_above_the_ceiling_exits_2(tmp_path, capsys):
    assert main(["keygen", "--kind", "blum", "--bits", str(MAX_PRIME_BITS + 1), "--out", str(tmp_path / "k")]) == 2
    assert f"at most {MAX_PRIME_BITS} bits" in capsys.readouterr().err
    assert not (tmp_path / "k").exists()


def test_keygen_digest_in_another_spelling_exits_2(tmp_path):
    assert main(["keygen", "--kind", "blum", "--bits", "32", "--hash", "digest:SHA256",
                 "--out", str(tmp_path / "k")]) == 2


@pytest.mark.parametrize("token", ["digest", "digest:SHA256", "digest:SHA-256"])
def test_key_file_hash_in_another_encoding_exits_3(tmp_path, token):
    priv, pub, sig = tmp_path / "k", tmp_path / "k.pub", tmp_path / "m.sig"
    assert main(["keygen", "--kind", "blum", "--bits", "32", "--hash", "digest", "--out", str(priv), "--seed", "3"]) == 0
    assert main(["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5",
                 "--out", str(sig), "--seed", "1"]) == 0
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 0
    text = pub.read_text()
    assert "\nhash = digest:sha256\n" in text  # the shorthand is written as its one token
    pub.write_text(text.replace("hash = digest:sha256", f"hash = {token}"))
    assert main(["verify", "--pub", str(pub), "--sig", str(sig)]) == 3


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


def test_proofs_never_leave_the_private_file(tmp_path, capsys):
    # a proof's first witness b gives gcd(b**f - 1 mod N, N) = p, and its first factor f gives
    # p mod 2f, about N**(1/6); no other private value of a key leaves its file either
    outputs = []

    def run(*argv, code=0):
        assert main(list(argv)) == code
        captured = capsys.readouterr()
        outputs.extend((captured.out, captured.err))

    keys = {}
    for kind, tag, seed in (("general", "identity", "17"), ("blum", "identity", "18"), ("rw", "quadratic", "19")):
        path = str(tmp_path / f"{kind}.key")
        run("keygen", "--kind", kind, "--bits", "256", "--hash", tag, "--seed", seed, "--out", path)
        keys[kind] = (path, parse_key(Path(path).read_text()))
    private = [key for _, key in keys.values()]
    assert all(len(key.p.chain) == len(key.q.chain) == 2 for key in private)  # two (factor, witness) steps per prime
    assert all(secret_runs(dump_private(key), key) for key in private)  # the scanner sees the private file's values

    for kind, scheme in (("general", "classic"), ("general", "general"), ("blum", "variant1"),
                         ("blum", "variant2"), ("rw", "rw")):
        path, _ = keys[kind]
        sig = str(tmp_path / f"{scheme}.sig")
        run("sign", "--key", path, "--scheme", scheme, "--message", "12345", "--seed", "3", "--out", sig)
        run("verify", "--pub", path + ".pub", "--sig", sig)
        run("verify", "--pub", path, "--sig", sig)
        outputs.append(Path(sig).read_text())
    blum, key = keys["blum"]
    run("blind-demo", "--key", blum, "--message", "42", "--seed", "4")
    run("blind-demo", "--key", blum, "--message", str(1234 ** 2), "--naive", "--seed", "4")
    run("attack", "--kind", "blinding", "--key", blum, "--ciphertext", str(123457 ** 2 % key.n),
        "--trials", "8", "--seed", "5")
    # the naive signer's answers factor N, and the attack prints the factor it found: that line is its point
    found = re.search(r"^factor = (\d+)\n", outputs[-2], re.M)
    assert int(found[1]) in (key.p, key.q)
    outputs[-2] = outputs[-2].replace(found[0], "")
    run("attack", "--kind", "classic-forge", "--pub", keys["general"][0] + ".pub",
        "--sig", str(tmp_path / "classic.sig"), "--target", "99")
    run("attack", "--kind", "scale", "--pub", blum + ".pub", "--sig", str(tmp_path / "variant2.sig"),
        "--factor", "3")
    (f, b), *_ = key.p.chain
    tampered = tmp_path / "tampered.key"
    for old, new in ((f"p_proof = {f} ", f"p_proof = {f + 2} "), (f"p_proof = {f} {b} ", f"p_proof = {f} {b + 2} ")):
        tampered.write_text(dump_private(key).replace(old, new))
        run("sign", "--key", str(tampered), "--scheme", "variant2", "--message", "5", "--out", str(tmp_path / "t.sig"),
            code=3)

    for _, key in keys.values():
        outputs += [dump_public(key), dump_public(key.public()), repr(key.public()), repr(key)]
        plain = dataclasses.replace(key, p=int(key.p), q=int(key.q))
        assert key == plain  # proofs take no part in ==
        assert hash(key) == hash(plain)  # nor in hash
    leaked = [run for text in outputs for run in secret_runs(text, *private)]
    assert not leaked


# ---------------------------------------------------------------------------
# the parser is built once per process


@pytest.fixture
def cold_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_is_built_once(cold_parser, tmp_path, monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    priv = str(tmp_path / "k.key")
    assert main(["keygen", "--kind", "blum", "--bits", "32", "--out", priv, "--seed", "1"]) == 0
    for _ in range(3):
        assert main(["sign", "--key", priv, "--scheme", "variant2", "--message", "5",
                     "--out", str(tmp_path / "m.sig"), "--seed", "2"]) == 0
        assert main(["verify", "--pub", priv + ".pub", "--sig", str(tmp_path / "m.sig")]) == 0
        assert main(["sign"]) == 2
        assert main(["--help"]) == 0
    assert len(built) == 1
    assert real() is not real()


def test_a_command_rebound_after_the_first_call_runs(keyfiles, monkeypatch):
    _, pub = keyfiles  # its keygen call built the parser
    assert cli._parser.cache_info().currsize == 1
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.sig) or 7)
    assert main(["verify", "--pub", str(pub), "--sig", "x.sig"]) == 7
    assert seen == ["x.sig"]


def test_the_shared_parser_carries_nothing_between_calls(keyfiles, tmp_path, monkeypatch, capsys):
    priv, pub = keyfiles
    sig, payload = str(tmp_path / "m.sig"), tmp_path / "payload.bin"
    payload.write_bytes(b"byte-stream message")
    calls = [
        ["sign", "--key", str(priv), "--scheme", "variant2"],
        ["sign", "--key", str(priv), "--scheme", "variant2", "--message", "5", "--out", sig, "--seed", "1"],
        # under this identity key a leftover --message 5 would sign and exit 0
        ["sign", "--key", str(priv), "--scheme", "variant2", "--message-file", str(payload), "--out", sig],
        ["verify", "--pub", str(pub), "--sig", sig],
        ["blind-demo", "--key", str(priv), "--message", str(1234 * 1234), "--naive", "--seed", "4"],
        ["blind-demo", "--key", str(priv), "--message", str(1234 * 1234), "--seed", "4"],
        ["--help"],
        ["blind-demo", "--help"],
    ]

    def outcomes():
        results = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((argv, code, captured.out, captured.err))
        return results

    capsys.readouterr()
    shared = outcomes()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    assert outcomes() == shared
    assert [code for _, code, _, _ in shared] == [2, 0, 2, 0, 0, 0, 0, 0]
