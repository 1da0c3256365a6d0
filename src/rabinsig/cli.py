"""Command-line front end.

Subcommands: keygen, sign, verify, blind-demo, attack, selfcheck.
Exit codes: 0 success / valid, 1 invalid or failed operation, 2 bad
invocation, 3 unreadable or malformed key/signature file.

The parser is built once per process, on the first `main` call, and each
subcommand is looked up by name when it runs, so a rebound `cmd_*` is the
one that runs.
"""

import argparse
import functools
import math
import os
import random
import sys
from pathlib import Path

from . import oracle, schemes
from .blind import _exchange, blind_sign, disguise, naive_blind_sign
from .errors import KeyFormatError, NonResidueError, RabinError, SignatureFormatError
from .forgery import apply_scaling, cube_oracle, forge_classic, rsa_blinding_attack, variant2_factor
from .hashing import IDENTITY, QUADRATIC, DigestRef, RedundancySpec, apply_redundancy, digest_int
from .keygen import KINDS, KeyPair, _dump_record, dump_private, dump_public, gen_keypair, parse_key
from .numtheory import SYSTEM_RNG, crt_idempotents, jacobi, mod_inv, random_unit, sqrt_mod_pq


class UsageError(Exception):
    """A bad invocation: `main` prints `error: <message>` and exits 2."""


def _rng(seed):
    return random.Random(seed) if seed is not None else SYSTEM_RNG


def _read_text(path, error):
    # the bytes as stored: text mode would read \r\n and a lone \r as \n, a second encoding of each file
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise error(f"{path} is not UTF-8 text") from None


def _load_key(path):
    return parse_key(_read_text(path, KeyFormatError), path_hint=str(path))


def _load_signature(path):
    return schemes.parse_signature(_read_text(path, SignatureFormatError), path_hint=str(path))


def _ops_line(report: schemes.VerifyReport) -> str:
    squares, products = report.op_counts
    return "ops: {} square{}, {} product{}".format(
        squares, "" if squares == 1 else "s", products, "" if products == 1 else "s"
    )


def _print_report(report: schemes.VerifyReport):
    if report.valid:
        print("VALID")
    else:
        print(f"INVALID ({report.failed_check})")
    print(_ops_line(report))


# ---------------------------------------------------------------------------
# subcommands


def cmd_keygen(args):
    try:
        redundancy = RedundancySpec.from_token(args.hash)
        key = gen_keypair(args.kind, args.bits, redundancy, _rng(args.seed))
    except ValueError as exc:  # an unknown hash, or too few bits per prime
        raise UsageError(exc) from None
    priv_path = Path(args.out)
    pub_path = Path(str(args.out) + ".pub")
    # created as 0600, and an existing file is tightened before the factors go in
    fd = os.open(priv_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w", newline="\n") as fh:
        os.chmod(priv_path, 0o600)
        fh.write(dump_private(key))
    pub_path.write_text(dump_public(key.public()), newline="\n")
    print(f"wrote private key to {priv_path}")
    print(f"wrote public key to {pub_path}")
    return 0


def _check_message(m: int, key):
    """Raise UsageError unless the integer message m is in the range the key signs."""
    if m < 0:
        raise UsageError("messages are non-negative integers")
    if not schemes._message_in_range(key, m):
        raise UsageError("identity/quadratic redundancy needs m < N; use a digest key for long messages")


def _message_from_args(args, key):
    if args.message is not None:
        _check_message(args.message, key)
        return args.message
    data = Path(args.message_file).read_bytes()
    if key.redundancy.tag != "digest":
        raise UsageError("byte-stream messages need a key with digest redundancy")
    return data


def _check_key(scheme, key):
    """Raise UsageError unless the key meets the scheme's requirement."""
    try:
        schemes.SCHEMES[scheme].check_key(key)
    except ValueError as exc:
        raise UsageError(exc) from None


def _load_private_key(path, why):
    key = _load_key(path)
    if not isinstance(key, KeyPair):
        raise UsageError(why)
    return key


def cmd_sign(args):
    key = _load_private_key(args.key, "signing needs a private key file")
    _check_key(args.scheme, key)
    m = _message_from_args(args, key)
    sig = schemes.sign(key, m, args.scheme, rng=_rng(args.seed))
    Path(args.out).write_text(schemes.dump_signature(sig, key), newline="\n")
    print(f"wrote {args.scheme} signature to {args.out}")
    return 0


def cmd_verify(args):
    pub = _load_key(args.pub)
    sig = _load_signature(args.sig)
    if args.message_file is not None:
        if pub.redundancy.tag != "digest":
            raise UsageError("--message-file needs a key with digest redundancy")
        expected = digest_int(pub.redundancy, Path(args.message_file).read_bytes())
        if not isinstance(sig.m, DigestRef) or sig.m.digest_int != expected:
            print("INVALID (message digest mismatch)")
            return 1
    report = schemes.verify(pub, sig)
    _print_report(report)
    return 0 if report.valid else 1


def cmd_blind_demo(args):
    key = _load_private_key(args.key, "the demo needs a private key file")
    _check_message(args.message, key)
    rng = _rng(args.seed)
    if args.naive:
        return _naive_blind_demo(key, args.message, rng)
    _check_key("variant2", key)  # the hardened signer signs as variant2

    # run_blind_session's exchange, without the second root it takes for signer_R
    r, disguised, bsig, published = _exchange(key, args.message, rng)
    report = schemes.verify(key.public(), published)
    print(_dump_record("rabin-blind-demo v1", {
        "N": key.n, "hash": key.redundancy.token, "message": args.message, "blinding": r,
        "disguised": disguised, "blind-F": bsig.F, "blind-R3": bsig.R3,
        "signed-F": published.F, "signed-R3": published.R3,
        "verification": "VALID" if report.valid else "INVALID"}), end="")
    print(_ops_line(report))
    return 0 if report.valid else 1


def _naive_blind_demo(key, m, rng):
    pub = key.public()
    r = 1
    while r == 1:  # a blinder of 1 would hand the signer the message itself
        r = random_unit(key.n, rng)
    disguised = disguise(m, r, pub)
    print(_dump_record("rabin-blind-demo v1 (naive)",
                       {"N": key.n, "message": m, "blinding": r, "disguised": disguised}), end="")
    try:
        root = naive_blind_sign(key, disguised, rng)
    except NonResidueError:
        print("signer-refused = 1")
        print("note: the naive signer only handles quadratic residues; pick a square message")
        return 1
    unblinded = root * mod_inv(r, key.n) % key.n
    h = apply_redundancy(key.redundancy, m, key.n)
    ok = unblinded * unblinded % key.n == h
    print(f"returned-root = {root}")
    print(f"unblinded-root = {unblinded}")
    print(f"verification = {'VALID' if ok else 'INVALID'}")
    print("warning: the unblinded value is a bare square root of the message;")
    print("warning: such a signer is an oracle for decryption and factoring")
    return 0 if ok else 1


def _require(args, names):
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(f"attack --kind {args.kind} needs {', '.join(missing)}")


def _attack_classic(args):
    _require(args, ("pub", "sig", "target"))
    pub = _load_key(args.pub)
    sig = _load_signature(args.sig)
    if not isinstance(sig, schemes.ClassicSignature):
        raise UsageError("the substitution forgery targets classic signatures")
    forged = forge_classic(sig, args.target, pub.n)
    return _report_forgery(args, pub, forged, f"forged: message = {forged.m}, U = {forged.U}, S = {forged.S}", "forged")


def _attack_scale(args):
    _require(args, ("pub", "sig", "factor"))
    pub = _load_key(args.pub)
    sig = _load_signature(args.sig)
    if not isinstance(sig.m, int):
        raise UsageError("scaling forgeries need a signature on an integer message")
    factor = args.factor % pub.n
    if math.gcd(factor, pub.n) != 1 or factor * factor % pub.n == 1:
        # a non-unit's scaled components share a factor with N; a square root of 1 keeps the message
        raise UsageError("attack --kind scale needs a --factor that is a unit mod N whose square is not 1")
    forged = apply_scaling(sig, factor, pub.n)
    return _report_forgery(args, pub, forged, f"scaled {sig.scheme} signature by {factor}: message = {forged.m}", "scaled")


def _report_forgery(args, pub, forged, headline, adjective):
    """Verify a forged signature, print the headline and the verdict, and write it to --out if given."""
    report = schemes.verify(pub, forged)
    print(headline)
    _print_report(report)
    if args.out:
        Path(args.out).write_text(schemes.dump_signature(forged, pub), newline="\n")
        print(f"wrote {adjective} signature to {args.out}")
    return 0 if report.valid else 1


def _attack_variant2_factor(args):
    _require(args, ("pub", "sig"))
    pub = _load_key(args.pub)
    sig = _load_signature(args.sig)
    if not isinstance(sig, schemes.Variant2Signature):
        raise UsageError("attack --kind variant2-factor needs a variant2 signature")
    factor = variant2_factor(pub, sig)
    if factor is None:
        print("outcome = failed")
        return 1
    print(f"factor = {factor}")
    return 0


def _attack_blinding(args):
    _require(args, ("key", "ciphertext"))
    if args.trials < 1:
        raise UsageError(f"attack --kind {args.kind} needs --trials of at least 1")
    key = _load_private_key(args.key, "the blinding attack drives a local signing oracle; pass a private key")
    rng = _rng(args.seed)
    cubed = args.kind == "blinding-cube"
    if cubed or args.hardened:
        _check_key("variant2", key)  # the hardened signer signs as variant2
    if cubed:
        label, oracle_fn = "hardened, read as F^3/(R3*d)", cube_oracle(key, rng)
    elif args.hardened:
        label, oracle_fn = "hardened", lambda d: blind_sign(key, d, rng).F
    else:
        label, oracle_fn = "naive", lambda d: naive_blind_sign(key, d, rng)
    outcome = rsa_blinding_attack(oracle_fn, args.ciphertext, key.n, rng, trials=args.trials)
    print(f"oracle = {label}")
    print(f"trials = {outcome.trials}")
    print(f"outcome = {outcome.kind}")
    if outcome.kind == "decrypted":
        print(f"root = {outcome.value}")
    elif outcome.kind == "factored":
        print(f"factor = {outcome.value}")
    return 0 if outcome.kind != "failed" else 1


_ATTACKS = {"classic-forge": _attack_classic, "scale": _attack_scale, "variant2-factor": _attack_variant2_factor,
            "blinding": _attack_blinding, "blinding-cube": _attack_blinding}


def cmd_attack(args):
    return _ATTACKS[args.kind](args)


# ---------------------------------------------------------------------------
# selfcheck

_NUM_RINGS = ((3, 5), (3, 7), (7, 11))
_SCHEME_CHECKS = (
    ("classic", (7, 11)),
    ("classic", (13, 17)),
    ("general", (7, 11)),
    ("general", (13, 17)),
    ("variant1", (7, 11)),
    ("variant1", (11, 19)),
    ("variant2", (7, 11)),
    ("variant2", (11, 19)),
    ("rw", (7, 11)),
    ("rw", (19, 23)),
)


def _numtheory_failures(ring: oracle.SmallRing) -> list[str]:
    failures = []
    residues = oracle.qr_set(ring)
    idem = crt_idempotents(ring.p, ring.q)
    for a in oracle.units(ring):
        predicted = jacobi(a, ring.p) == 1 and jacobi(a, ring.q) == 1
        if predicted != (a in residues):
            failures.append(f"a={a}: residue classification disagrees with brute force")
        if predicted and sqrt_mod_pq(a, idem) != oracle.all_roots(a, ring):
            failures.append(f"a={a}: root set disagrees with brute force")
    return failures


def cmd_selfcheck(args):
    rng = _rng(args.seed)
    failed = 0
    for p, q in _NUM_RINGS:
        ring = oracle.SmallRing(p, q)
        failures = _numtheory_failures(ring)
        _print_check(f"numtheory n={ring.n}", failures)
        failed += bool(failures)
    for scheme, (p, q) in _SCHEME_CHECKS:
        ring = oracle.SmallRing(p, q)
        for redundancy in (IDENTITY, QUADRATIC):
            report = oracle.check_scheme_exhaustive(scheme, ring, redundancy, rng)
            label = f"{scheme} n={ring.n} hash={redundancy.token}"
            _print_check(f"{label} ({report.signed} signed)", report.failures)
            failed += bool(report.failures)
    print("selfcheck:", "all checks passed" if not failed else f"{failed} check(s) FAILED")
    return 0 if not failed else 1


def _print_check(label, failures):
    if failures:
        print(f"FAIL {label}: {failures[0]} (+{len(failures) - 1} more)" if len(failures) > 1 else f"FAIL {label}: {failures[0]}")
    else:
        print(f"ok   {label}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line; `main` builds one per process and reuses it."""
    parser = argparse.ArgumentParser(
        prog="rabinsig",
        description="Rabin-style signatures: keys, signing, verification, blind signing and attack demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--bits", type=int, default=512, help="bits per prime factor")
    p.add_argument("--hash", default="identity", help="identity | quadratic | digest[:NAME]")
    p.add_argument("--out", required=True, help="private key path; public key gets a .pub suffix")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("sign", help="sign a message")
    p.add_argument("--key", required=True, help="private key file")
    p.add_argument("--scheme", choices=schemes.SCHEME_TAGS, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--message", type=int, help="message as a decimal integer")
    group.add_argument("--message-file", help="byte-stream message (digest redundancy only)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("verify", help="verify a signature file")
    p.add_argument("--pub", required=True, help="public (or private) key file")
    p.add_argument("--sig", required=True)
    p.add_argument("--message-file", help="cross-check the stored message digest")

    p = sub.add_parser("blind-demo", help="run a full blind-signing session")
    p.add_argument("--key", required=True, help="private key file (plays both roles)")
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--naive", action="store_true", help="use the broken bare-root signer")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("attack", help="run a forgery or oracle attack")
    p.add_argument("--kind", choices=tuple(_ATTACKS), required=True)
    p.add_argument("--pub", help="public key file (classic-forge, scale, variant2-factor)")
    p.add_argument("--sig", help="signature file (classic-forge, scale, variant2-factor)")
    p.add_argument("--target", type=int, help="message to forge (classic-forge)")
    p.add_argument("--factor", type=int, help="scaling factor (scale)")
    p.add_argument("--key", help="private key driving the signing oracle (blinding, blinding-cube)")
    p.add_argument("--ciphertext", type=int, help="square of the unknown plaintext (blinding, blinding-cube)")
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--hardened", action="store_true", help="attack the hardened blind signer")
    p.add_argument("--out", help="write the forged signature here")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("selfcheck", help="exhaustive checks on built-in small moduli")
    p.add_argument("--seed", type=int)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyFormatError, SignatureFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RabinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
