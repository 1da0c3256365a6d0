"""Hypothesis fuzz of the command line over hostile key and signature files.

Each example starts from a real key file and a real signature file, edits
their lines (real and junk field names; canonical, non-canonical, huge, 0,
N-1 and N values; a line's own value plus a multiple of N; N moved to
another odd class mod 8; lists of decimals for the primality proofs; a
general key's padding element set to a square root of 1 or to another
element plus a prime factor of N; a private general key's padding root
dropped, repeated, swapped with another or with one digit changed; a
prime's root constant dropped, repeated or with one digit changed; a line's
separator changed, to a tab after `=`, no spaces or a second `=`, or its
value moved to the left; a private key's p copied into its hash or u1
line; dropped, repeated and added lines; a byte that is not UTF-8) and
runs one `verify`, `sign` or file-driven `attack` command through
`cli.main`.  Whatever the files hold, the command must end with an exit
code from 0 to 3 and raise nothing, and it prints no secret of a private
key file's key on stdout or stderr (conftest.secret_runs), save the factor
of N that the variant2-factor attack finds.  A signature file whose
component or message is its own value plus a multiple of N never verifies
against its key.  A key file written by an earlier version with root
constants signs as it does without them, and one with a root constant
repeated or changed is refused.  An edited private key file is refused
with no secret of the key on stdout or stderr.
"""

import io
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rabinsig.cli import main
from rabinsig.hashing import IDENTITY, QUADRATIC, RedundancySpec
from rabinsig.keygen import KeyPair, dump_private, dump_public, gen_keypair, parse_key
from rabinsig.numtheory import sqrt_of_unity_nontrivial
from rabinsig.schemes import SCHEME_TAGS, dump_signature, sign

from conftest import secret_runs

ROOT_NAMES = ("u1_root", "u2_root", "u3_root", "u4_root")
CONSTANT_NAMES = ("p_zpow", "q_zpow", "p_half_root", "q_half_root")
CONSTANT_FILES = tuple(Path(__file__).parent / "data" / f"{kind}-constants.key" for kind in ("general", "rw"))
FIELD_NAMES = ("kind", "hash", "N", "u1", "u2", "u3", "u4", "p", "q", "psi1", "psi2", "p_proof", "q_proof", *ROOT_NAMES,
               *CONSTANT_NAMES, "scheme", "message", "message-digest", "U", "u", "S", "T", "F", "R3", "e", "f")
JUNK_NAMES = ("", "x", "n", "N N", "u5", "psi3", "message_digest", "ل")
WORDS = ("general", "blum", "rw", "identity", "quadratic", "digest", "digest:sha256",
         "digest:shake_128", "digest:no-such-hash", *SCHEME_TAGS)
NON_CANONICAL = ("", " ", "-1", "+5", "05", "7_7", "0x4d", "1e3", "٧٧", "5 5", "5  5", "5\t5", "5,5", "5 05", "abc")
SEPARATOR_FORMS = ("tab", "unspaced", "second", "left")
PRIVATE_NAMES = ("p", "q", "psi1", "psi2", "p_proof", "q_proof", *ROOT_NAMES)


@pytest.fixture(scope="module")
def corpus():
    """Small fixed keys, each dumped public and private, and one signature file per scheme; each with its N.

    The primes of the proven key exceed 2**64, so its private file carries p_proof and q_proof.
    The key files in tests/data that an earlier version wrote with root constants join them:
    the general one's primes are 1 mod 8, so it carries p_zpow and q_zpow, and the rw one
    p_half_root and q_half_root.  Then, by N, the values that make a padding set unsafe with
    no factor needed to see it, and last, by its text, the key of each private file.
    """
    rng = random.Random(20240501)
    keys = {
        "general": gen_keypair("general", 24, IDENTITY, rng),
        "blum": gen_keypair("blum", 24, QUADRATIC, rng),
        "rw": gen_keypair("rw", 24, RedundancySpec("digest", "sha256"), rng),
        "proven": gen_keypair("blum", 80, IDENTITY, rng),
    }
    key_texts = [(dump(key), key.n) for key in keys.values() for dump in (dump_public, dump_private)]
    for path in CONSTANT_FILES:
        for text in (path.read_text(), path.with_suffix(".key.pub").read_text()):
            key_texts.append((text, parse_key(text).n))
    general = keys["general"]
    unsafe = {general.n: (1, general.n - 1, *sqrt_of_unity_nontrivial(general.idem),
                          *((u + general.p) % general.n for u in general.padding.elements))}
    owners = {text: key for text, _ in key_texts if isinstance(key := parse_key(text), KeyPair)}
    sig_texts, signed = [], []
    for scheme, kind in (("classic", "general"), ("general", "general"), ("variant1", "blum"),
                         ("variant2", "blum"), ("rw", "rw"), ("variant2", "proven")):
        key = keys[kind]
        m = b"fuzz" if key.redundancy.tag == "digest" else 1234
        sig_texts.append((dump_signature(sign(key, m, scheme, rng=rng), key), key.n))
        signed.append((dump_public(key.public()), sig_texts[-1][0], key.n))
    return key_texts, sig_texts, signed, unsafe, owners


def _values(n):
    return st.one_of(
        st.sampled_from(("0", "1", str(n - 1), str(n), str(n + 1), str(2 * n))),
        st.sampled_from(NON_CANONICAL + WORDS),
        st.integers(0, 4 * n).map(str),
        st.integers(0, 1 << 700).map(str),
        st.just("9" * 5000),  # more digits than int() converts
        st.lists(st.integers(0, 1 << 90), min_size=1, max_size=5).map(lambda xs: " ".join(map(str, xs))),
    )


def _edits(n, unsafe):
    index = st.integers(0, 20)
    name = st.sampled_from(FIELD_NAMES + JUNK_NAMES)
    # a padding element set to a square root of 1, or to another element plus a factor of N
    pad = st.tuples(st.just("pad"), st.integers(1, 4), st.sampled_from(unsafe)) if unsafe else st.nothing()
    return st.lists(st.one_of(
        pad,
        st.tuples(st.just("set"), index, _values(n)),
        st.tuples(st.just("rename"), index, name),
        st.tuples(st.just("drop"), index),
        st.tuples(st.just("repeat"), index),
        st.tuples(st.just("add"), name, _values(n)),
        st.tuples(st.just("shift"), index, st.integers(1, 3)),
        st.tuples(st.just("recast"), st.integers(1, 3)),
        st.tuples(st.just("separator"), index, st.sampled_from(SEPARATOR_FORMS)),
        st.tuples(st.just("copy-p"), st.sampled_from(("hash", "u1"))),
        _root_edits(),
        _constant_edits(),
    ), max_size=4)


def _root_edits():
    """An edit of padding root i: drop it, repeat it, swap its value with root j != i, or change one digit."""
    return st.tuples(st.sampled_from(("root-drop", "root-repeat", "root-swap", "root-digit")), st.integers(1, 4),
                     st.integers(1, 3), st.integers(0, 1 << 16), st.integers(1, 9))


def _constant_edits():
    """An edit of a prime's root constant: drop it, repeat it, or change one digit."""
    return st.tuples(st.sampled_from(("constant-drop", "constant-repeat", "constant-digit")),
                     st.sampled_from(CONSTANT_NAMES), st.integers(0, 1 << 16), st.integers(1, 9))


def _edit_line(lines, k, op, at, step):
    """`lines` with line k dropped, repeated, or with the digit at `at` of its value raised by `step` mod 10.

    A value that an earlier edit left without decimal digits only, such as "" or "abc", has no digit to change.
    """
    name, _, value = lines[k].partition(" = ")
    if op == "drop":
        del lines[k]
    elif op == "repeat":
        lines.insert(k, lines[k])
    elif op == "digit" and value.isascii() and value.isdecimal():  # never to a leading zero
        at %= len(value)
        digit = (int(value[at]) + step) % 10
        if at == 0 and digit == 0 and len(value) > 1:
            digit = int(value[0]) % 9 + 1
        lines[k] = f"{name} = {value[:at]}{digit}{value[at + 1:]}"
    return lines


def _edit_root(lines, edit):
    """`lines` after one of _root_edits; lines without that padding root are left as they are."""
    op, i, offset, at, step = edit
    j = (i + offset - 1) % 4 + 1
    where = {line[:7]: k for k, line in enumerate(lines) if re.match(r"u[1-4]_root = ", line)}
    if f"u{i}_root" not in where:
        return lines
    k = where[f"u{i}_root"]
    if op == "root-swap":
        if f"u{j}_root" in where:
            other = where[f"u{j}_root"]
            lines[k], lines[other] = (f"u{i}_root = {lines[other].partition(' = ')[2]}",
                                      f"u{j}_root = {lines[k].partition(' = ')[2]}")
        return lines
    return _edit_line(lines, k, op.removeprefix("root-"), at, step)


def _edit_constant(lines, edit):
    """`lines` after one of _constant_edits; lines without that constant are left as they are."""
    op, name, at, step = edit
    k = next((k for k, line in enumerate(lines) if line.startswith(f"{name} = ")), None)
    return lines if k is None else _edit_line(lines, k, op.removeprefix("constant-"), at, step)


def _separate(line, form):
    """The line with its " = " made a tab after `=`, no spaces or a second `=`, or with name and value swapped."""
    name, _, value = line.partition(" = ")
    return {"tab": f"{name} =\t{value}", "unspaced": f"{name}={value}", "second": f"{name} = = {value}",
            "left": f"{value} = {name}"}[form]


def _shift(line, k, n):
    """The line with its value raised by k*N, if that value is a decimal that int() converts."""
    name, _, value = line.partition(" = ")
    return f"{name} = {int(value) + k * n}" if value.isascii() and value.isdecimal() and len(value) < 4000 else line


def _apply(text, edits, n):
    lines = text.splitlines()
    for edit in edits:
        op, i = edit[0], edit[1] % len(lines) if isinstance(edit[1], int) else None
        if op == "set":
            lines[i] = f"{lines[i].partition('=')[0].strip()} = {edit[2]}"
        elif op == "rename":
            lines[i] = f"{edit[2]} = {lines[i].partition('=')[2].strip()}"
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "add":
            lines.append(f"{edit[1]} = {edit[2]}")
        elif op == "shift":
            lines[i] = _shift(lines[i], edit[2], n)
        elif op == "separator":
            lines[i] = _separate(lines[i], edit[2])
        elif op == "recast":  # N + 2k is in another odd class mod 8
            lines = [f"N = {n + 2 * edit[1]}" if line == f"N = {n}" else line for line in lines]
        elif op == "copy-p":  # p moved into a line that a public file holds too
            p = next((line.partition(" = ")[2] for line in lines if line.startswith("p = ")), None)
            lines = [f"{edit[1]} = {p}" if p and line.startswith(f"{edit[1]} = ") else line for line in lines]
        elif op == "pad":
            lines = [f"u{edit[1]} = {edit[2]}" if line.startswith(f"u{edit[1]} = ") else line for line in lines]
        elif op.startswith("root-"):
            lines = _edit_root(lines, edit)
        elif op.startswith("constant-"):
            lines = _edit_constant(lines, edit)
    return "\n".join(lines) + "\n"


@st.composite
def _edited(draw, texts, unsafe):
    text, n = draw(st.sampled_from(texts))
    # unedited about half the time, so that files reach the verifier and the signer
    return _apply(text, draw(st.one_of(st.just(()), _edits(n, unsafe.get(n, ())))), n).encode(), n, text


@st.composite
def cases(draw, corpus):
    key_texts, sig_texts, _, unsafe, owners = corpus
    key_bytes, n, key_text = draw(_edited(key_texts, unsafe))
    sig_bytes, _, _ = draw(_edited(sig_texts, {}))
    if draw(st.integers(0, 9)) == 0:
        key_bytes, sig_bytes = draw(st.sampled_from(((key_bytes + b"\xff", sig_bytes),
                                                     (key_bytes, b"\xfe" + sig_bytes))))
    number = draw(st.one_of(st.integers(-3, 4 * n), st.sampled_from((0, 1, n - 1, n))))
    command = draw(st.sampled_from(("verify", "sign", "classic-forge", "scale", "variant2-factor")))
    scheme = draw(st.sampled_from(SCHEME_TAGS))
    return key_bytes, sig_bytes, command, scheme, number, owners.get(key_text)


def _argv(command, scheme, number, key, sig, out):
    if command == "verify":
        return ["verify", "--pub", key, "--sig", sig]
    if command == "sign":
        return ["sign", "--key", key, "--scheme", scheme, "--message", str(number), "--out", out, "--seed", "1"]
    if command == "classic-forge":
        return ["attack", "--kind", "classic-forge", "--pub", key, "--sig", sig, "--target", str(number)]
    if command == "variant2-factor":
        return ["attack", "--kind", "variant2-factor", "--pub", key, "--sig", sig]
    return ["attack", "--kind", "scale", "--pub", key, "--sig", sig, "--factor", str(number)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_with_a_code_and_never_raises(corpus, data):
    key_bytes, sig_bytes, command, scheme, number, owner = data.draw(cases(corpus))
    with tempfile.TemporaryDirectory() as tmp:
        key, sig, out = (str(Path(tmp) / name) for name in ("fuzz.key", "fuzz.sig", "out.sig"))
        Path(key).write_bytes(key_bytes)
        Path(sig).write_bytes(sig_bytes)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(_argv(command, scheme, number, key, sig, out))
    assert code in (0, 1, 2, 3)
    if owner is not None:  # the variant2-factor attack prints the factor of N it finds from a signature, by design
        shown = stderr.getvalue() + ("" if command == "variant2-factor" else stdout.getvalue())
        assert not secret_runs(shown, owner), shown


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_re_encoded_signature_file_never_verifies(corpus, data):
    pub_text, sig_text, n = data.draw(st.sampled_from(corpus[2]))
    lines = sig_text.splitlines()
    # every component, and an integer message; a digest reference stays, because
    # with N below 2**256 a digest that is equal mod N is a collision, not a re-encoding
    shiftable = [i for i, line in enumerate(lines) if line.partition(" = ")[0] not in ("rabin-sig v1", "scheme",
                                                                                  "message-digest")]
    i = data.draw(st.sampled_from(shiftable))
    lines[i] = _shift(lines[i], data.draw(st.one_of(st.just(1), st.integers(1, 1 << 80))), n)
    with tempfile.TemporaryDirectory() as tmp:
        key, sig = Path(tmp) / "fuzz.key.pub", Path(tmp) / "fuzz.sig"
        key.write_text(pub_text)
        sig.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["verify", "--pub", str(key), "--sig", str(sig)])
    assert code == 1 and out.getvalue().startswith("INVALID (component range)"), lines[i]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_an_edited_padding_root_exits_3(corpus, data):
    # every edit of a root line leaves a file that no general key reads: three roots, a repeated
    # field, or a root of the wrong element or of none (two roots swapped, or a digit changed)
    text, n = data.draw(st.sampled_from([(text, n) for text, n in corpus[0] if "\nu1_root = " in text]))
    edit = data.draw(_root_edits())
    edited = _apply(text, [edit], n)
    assert edited != text
    scheme = data.draw(st.sampled_from(("general", "classic")))
    with tempfile.TemporaryDirectory() as tmp:
        key, out = Path(tmp) / "fuzz.key", Path(tmp) / "out.sig"
        key.write_text(edited)
        shown = io.StringIO()
        with redirect_stdout(shown), redirect_stderr(shown):
            code = main(["sign", "--key", str(key), "--scheme", scheme, "--message", "5", "--out", str(out)])
    assert code == 3, (edit, shown.getvalue())
    assert not secret_runs(shown.getvalue(), parse_key(text))


def _signed_with(text, pub_text, scheme):
    """`sign` with the key file `text`: its exit code, whether the signature verifies under pub_text, the
    signature, and what the commands wrote to stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        key, pub, out = Path(tmp) / "fuzz.key", Path(tmp) / "fuzz.key.pub", Path(tmp) / "out.sig"
        key.write_text(text)
        pub.write_text(pub_text)
        shown = io.StringIO()
        with redirect_stdout(shown), redirect_stderr(shown):
            code = main(["sign", "--key", str(key), "--scheme", scheme, "--message", "5", "--out", str(out),
                         "--seed", "1"])
            valid = code == 0 and main(["verify", "--pub", str(pub), "--sig", str(out)]) == 0
        return code, valid, out.read_text() if code == 0 else None, shown.getvalue()


def _constant_key(corpus, name):
    """The private file that holds the constant `name`, its N and public file, and the scheme that signs with it."""
    text, n = next((text, n) for text, n in corpus[0] if f"\n{name} = " in text)
    return text, n, dump_public(parse_key(text)), "general" if "\nkind = general\n" in text else "rw"


@pytest.mark.parametrize("name", CONSTANT_NAMES)
def test_a_key_file_without_a_root_constant_signs_the_same(corpus, name):
    text, n, pub_text, scheme = _constant_key(corpus, name)
    edited = _apply(text, [("constant-drop", name, 0, 1)], n)
    assert edited != text
    code, valid, sig, _ = _signed_with(edited, pub_text, scheme)
    assert code == 0 and valid and sig == _signed_with(text, pub_text, scheme)[2]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_an_edited_root_constant_exits_3(corpus, data):
    # a repeated field, or a changed digit: each constant loads only as the value its ring computes
    edit = data.draw(st.tuples(st.sampled_from(("constant-repeat", "constant-digit")), st.sampled_from(CONSTANT_NAMES),
                               st.integers(0, 1 << 16), st.integers(1, 9)))
    text, n, pub_text, scheme = _constant_key(corpus, edit[1])
    edited = _apply(text, [edit], n)
    assert edited != text
    code, _, _, shown = _signed_with(edited, pub_text, scheme)
    assert code == 3, edit
    assert not secret_runs(shown, parse_key(text))


@pytest.fixture(scope="module")
def general80():
    """A private general key file on 80-bit primes, whose every private value has at least 20 digits, and its key."""
    key = gen_keypair("general", 80, IDENTITY, random.Random("general80"))
    return dump_private(key), key


@pytest.mark.parametrize("form", SEPARATOR_FORMS)
@pytest.mark.parametrize("name", PRIVATE_NAMES)
def test_a_private_line_with_another_separator_exits_3_naming_no_secret(general80, name, form):
    # the reader names a line it cannot read by its number, and a field by its name, never by a value
    text, key = general80
    lines = text.splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith(f"{name} = "))
    lines[k] = _separate(lines[k], form)
    code, _, _, shown = _signed_with("\n".join(lines) + "\n", dump_public(key), "general")
    assert code == 3, shown
    assert not secret_runs(shown, key), shown


@pytest.mark.parametrize("secret", ["p", "q", "psi1", "psi2", "u1_root"])
@pytest.mark.parametrize("name", ["hash", "u1"])
def test_a_private_value_moved_into_the_hash_or_a_padding_line_exits_3_naming_no_secret(general80, name, secret):
    # the reader names a bad hash token by its field, and a bad padding element by its place in the set
    text, key = general80
    value = re.search(rf"^{secret} = (\d+)$", text, re.M)[1]
    moved = re.sub(rf"^{name} = .*$", f"{name} = {value}", text, count=1, flags=re.M)
    assert moved != text
    code, _, _, shown = _signed_with(moved, dump_public(key), "general")
    assert code == 3, shown
    assert not secret_runs(shown, key), shown
