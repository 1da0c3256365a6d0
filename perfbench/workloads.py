"""The four benchmark workloads and the correctness gate inside each.

Every workload is a closed loop: one process, one thread, one caller that
waits for each result.  `setup` builds the key pool and files; `step` runs one
operation on inputs drawn from the seed, times the calls into the package
through `Recorder.call` and checks every result.  The key pools come from a
fixed seed, so set-up does the same work on every run and `setup_s` does not
move with prime-search luck.  Two sample kinds feed the end-to-end metrics:

  workload     "op" (timed per call)          "aux" (throughput only)
  keygen       gen_keypair                     parse_key of the private key file
  sign-verify  schemes.sign                    schemes.verify (honest, perturbed, forged)
  blind        run_blind_session               single-trial rsa_blinding_attack
  cli          cli.main, every subcommand      cli.main selfcheck
               but selfcheck

The workloads call the package only through module attributes
(`lib.schemes.verify`, never a name imported into this file), so the tracer
and a test's monkeypatch see every call.
"""

import dataclasses
import importlib
import io
import random
import sys
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter
from types import SimpleNamespace

BITS = 512
KINDS = ("general", "blum", "rw")
MODULES = ("numtheory", "hashing", "keygen", "schemes", "blind", "forgery", "oracle", "cli")

# The paper's verifier costs, (squares, products) per honest verification.
EXPECTED_OPS = {
    "classic": (1, 1),
    "general": (1, 1),
    "variant1": (2, 2),
    "variant2": (7, 3),
    "rw": (1, 1),
}
SCHEME_KIND = {"classic": "general", "general": "general", "variant1": "blum", "variant2": "blum", "rw": "rw"}


def load_package(fresh: bool = True) -> SimpleNamespace:
    """Import rabinsig; with `fresh`, drop the loaded modules first so import cost is paid again."""
    if fresh:
        for name in [n for n in sys.modules if n == "rabinsig" or n.startswith("rabinsig.")]:
            del sys.modules[name]
    importlib.import_module("rabinsig")
    return SimpleNamespace(**{name: importlib.import_module(f"rabinsig.{name}") for name in MODULES})


def redundancies(lib):
    return (lib.hashing.IDENTITY, lib.hashing.QUADRATIC, lib.hashing.RedundancySpec("digest", "sha256"))


class Recorder:
    """Latency samples per kind, plus the correctness tally behind error_rate."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(list)
        self.steps = 0
        self.elapsed = 0.0
        self.probes = []
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.tallies = Counter()

    def call(self, kind, fn, *args, label=None, **kwargs):
        """Call fn, append its duration to samples[kind]; traced runs also open a root span."""
        with nullcontext() if self.tracer is None else self.tracer.op(label or f"bench.{kind}"):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.samples[kind].append(perf_counter() - start)
        return result

    def judge(self, problems):
        """Count one attempted operation; it failed if any check in `problems` failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.update(problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Checks(list):
    """Names of the checks an operation failed; empty when all passed."""

    def expect(self, ok, name):
        if not ok:
            self.append(name)


def _message(rng, redundancy, n):
    if redundancy.tag == "digest":
        return rng.randbytes(32)
    return rng.randrange(2, n)


def _sprp(n: int, bases=(2, 3, 5, 7)) -> bool:
    # Strong-probable-prime test written here, independent of the package under test.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _legendre(a: int, p: int) -> int:
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# keygen


class Keygen:
    """gen_keypair at 512-bit primes, cycling kinds (fastest) and redundancies."""

    @staticmethod
    def setup(lib, seed, workdir):
        return SimpleNamespace(lib=lib, rng=random.Random(f"keygen/{seed}"), reds=redundancies(lib))

    @staticmethod
    def step(state, rec, i):
        lib = state.lib
        kind, red = KINDS[i % 3], state.reds[i // 3 % 3]
        key = rec.call("op", lib.keygen.gen_keypair, kind, BITS, red, state.rng)
        checks = check_key(key, kind, red)
        parsed = rec.call("aux", lib.keygen.parse_key, lib.keygen.dump_private(key))
        checks.expect(parsed == key, "private key file round trip")
        checks.expect(lib.keygen.parse_key(lib.keygen.dump_public(key)) == key.public(),
                      "public key file round trip")
        rec.judge(checks)


def check_key(key, kind, red) -> Checks:
    checks = Checks()
    p, q, n = key.p, key.q, key.n
    checks.expect(key.kind == kind and key.redundancy == red, "kind or redundancy")
    checks.expect(p != q and n == p * q, "modulus")
    checks.expect(p.bit_length() == BITS and q.bit_length() == BITS, "prime size")
    checks.expect(_sprp(p) and _sprp(q), "primality")
    if kind == "blum":
        checks.expect(p % 4 == 3 and q % 4 == 3, "blum congruence")
    if kind == "rw":
        checks.expect({p % 8, q % 8} == {3, 7}, "rw congruence")
    checks.expect((key.psi1 % p, key.psi1 % q, key.psi2 % p, key.psi2 % q) == (1, 0, 0, 1),
                  "crt idempotents")
    if kind == "general":
        elements = key.padding.elements
        classes = {(_legendre(u, p), _legendre(u, q)) for u in elements if u % p and u % q}
        checks.expect(len(classes) == 4, "padding set covers the four classes")
        checks.expect(all(u * u % n != 1 for u in elements), "padding set avoids roots of unity")
        checks.expect(key.public().padding.classes is None, "public padding hides the classes")
    else:
        checks.expect(key.padding is None, "padding only on general keys")
    return checks


# ---------------------------------------------------------------------------
# sign-verify


def _general_key(lib, p, q, rng):
    idem = lib.numtheory.crt_idempotents(p, q)
    padding = lib.keygen.build_padding_set(p, q, idem.psi1, idem.psi2, rng)
    return lib.keygen.KeyPair.from_primes("general", p, q, lib.hashing.IDENTITY, padding)


class SignVerify:
    """All five schemes x {identity, quadratic, digest:sha256} over a pool built in set-up."""

    @staticmethod
    def setup(lib, seed, workdir):
        rng = random.Random("sign-verify/pool")
        kg = lib.keygen
        pool = {kind: [kg.gen_keypair(kind, BITS, lib.hashing.IDENTITY, rng)] for kind in ("blum", "rw")}
        # Square roots modulo a prime that is 1 mod 4 take the slower Tonelli-Shanks
        # path, and gen_keypair's general primes are 1 mod 4 half the time.  One
        # general key with both primes 3 mod 4 and one with both 1 mod 4 keep the
        # mix, and so the signing cost, the same on every seed.
        ones = []
        while len(ones) < 2:
            p = kg.gen_prime(BITS, "none", rng)
            if p % 4 == 1 and p not in ones:
                ones.append(p)
        blum = pool["blum"][0]
        pool["general"] = [_general_key(lib, blum.p, blum.q, rng), _general_key(lib, *ones, rng)]
        cases = []
        for red in redundancies(lib):
            for scheme in EXPECTED_OPS:
                for key in pool[SCHEME_KIND[scheme]]:
                    key = dataclasses.replace(key, redundancy=red)
                    cases.append((scheme, key, key.public()))
        keys = [key for keys in pool.values() for key in keys]
        return SimpleNamespace(lib=lib, rng=random.Random(f"sign-verify/{seed}"), cases=cases, keys=keys)

    @staticmethod
    def step(state, rec, i):
        lib, rng = state.lib, state.rng
        scheme, key, pub = state.cases[i % len(state.cases)]
        m = _message(rng, key.redundancy, key.n)
        sig = rec.call("op", lib.schemes.sign, key, m, scheme, rng=rng)
        text = rec.call("codec", lib.schemes.dump_signature, sig, pub)
        parsed = rec.call("codec", lib.schemes.parse_signature, text)
        checks = Checks()
        fields = [f.name for f in dataclasses.fields(sig)][1:]
        stored = m if isinstance(m, int) else lib.hashing.DigestRef(lib.hashing.digest_int(key.redundancy, m))
        checks.expect(parsed.scheme == scheme and parsed.m == stored, "signature file scheme and message")
        checks.expect([getattr(parsed, f) % key.n for f in fields] == [getattr(sig, f) % key.n for f in fields],
                      "signature file components")

        report = rec.call("aux", lib.schemes.verify, pub, parsed)
        checks.expect(report.valid, "honest signature rejected")
        checks.expect(report.op_counts == EXPECTED_OPS[scheme], "verifier op counts")

        name = rng.choice(fields)
        delta = rng.choice((1, -1))
        perturbed = dataclasses.replace(parsed, **{name: (getattr(parsed, name) + delta) % key.n})
        checks.expect(not rec.call("aux", lib.schemes.verify, pub, perturbed).valid,
                      "perturbed signature accepted")

        if key.redundancy.tag != "digest":
            forged = lib.forgery.apply_scaling(parsed, rng.randrange(2, key.n), key.n)
            valid = rec.call("aux", lib.schemes.verify, pub, forged).valid
            if key.redundancy.tag == "identity":
                checks.expect(valid, "scaling forgery fails under identity")
            else:
                checks.expect(not valid, "scaling forgery succeeds under quadratic")
        rec.judge(checks)


# ---------------------------------------------------------------------------
# blind


class Blind:
    """Blind sessions plus one naive and one hardened blinding-attack trial each."""

    @staticmethod
    def setup(lib, seed, workdir):
        rng = random.Random("blind/pool")
        keys = [lib.keygen.gen_keypair("blum", BITS, lib.hashing.IDENTITY, rng) for _ in range(2)]
        cases = [(k, k.public()) for k in (dataclasses.replace(key, redundancy=red)
                                          for key in keys for red in redundancies(lib))]
        return SimpleNamespace(lib=lib, rng=random.Random(f"blind/{seed}"), cases=cases, keys=keys)

    @staticmethod
    def step(state, rec, i):
        lib, rng = state.lib, state.rng
        key, pub = state.cases[i % len(state.cases)]
        n = key.n
        m = _message(rng, key.redundancy, n)
        session = rec.call("op", lib.blind.run_blind_session, key, m, rng)
        checks = Checks()
        checks.expect(session.published.m == m, "published message")
        report = rec.call("check", lib.schemes.variant2_verify, pub, session.published)
        checks.expect(report.valid and report.op_counts == EXPECTED_OPS["variant2"], "published signature")
        report = rec.call("check", lib.blind.verify_blind_signature, session.blind_sig, n)
        checks.expect(report.valid and report.op_counts == EXPECTED_OPS["variant2"], "blind signature")

        x = rng.randrange(2, n)
        c = x * x % n
        naive = rec.call("aux", lib.forgery.rsa_blinding_attack,
                         lambda d: lib.blind.naive_blind_sign(key, d, rng), c, n, rng, trials=1, known_root=x)
        broke = ((naive.kind == "decrypted" and naive.value in (x, n - x))
                 or (naive.kind == "factored" and naive.value in (key.p, key.q)))
        checks.expect(broke, "naive signer survived the blinding attack")
        hardened = rec.call("aux", lib.forgery.rsa_blinding_attack,
                            lambda d: lib.blind.blind_sign(key, d, rng).F, c, n, rng, trials=1, known_root=x)
        checks.expect(hardened.kind == "failed", "hardened signer yielded a root")
        rec.tallies.update({"naive_trials": 1, "naive_successes": int(broke),
                            "hardened_trials": 1, "hardened_successes": int(hardened.kind != "failed")})
        rec.judge(checks)


# ---------------------------------------------------------------------------
# cli


def _run_cli(main, argv):
    # The captured output can hold secrets (blind-demo prints the blinding
    # factor, attack prints a factor of N): it is checked, then dropped.
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().splitlines()


def _ops_line(scheme):
    squares, products = EXPECTED_OPS[scheme]
    return f"ops: {squares} square{'s' * (squares != 1)}, {products} product{'s' * (products != 1)}"


class Cli:
    """In-process cli.main over key and signature files written in set-up; one step is one script pass."""

    @staticmethod
    def setup(lib, seed, workdir):
        rng = random.Random("cli/pool")
        kg = lib.keygen
        general = kg.gen_keypair("general", BITS, lib.hashing.IDENTITY, rng)
        blum = kg.gen_keypair("blum", BITS, lib.hashing.IDENTITY, rng)
        rw = kg.gen_keypair("rw", BITS, lib.hashing.RedundancySpec("digest", "sha256"), rng)
        keys = {"general": general, "blum": blum, "blumq": dataclasses.replace(blum, redundancy=lib.hashing.QUADRATIC),
                "rw": rw}
        workdir.mkdir(parents=True, exist_ok=True)
        for name, key in keys.items():
            (workdir / f"{name}.key").write_text(kg.dump_private(key))
            (workdir / f"{name}.key.pub").write_text(kg.dump_public(key.public()))
        sig = lib.schemes.sign(blum, rng.randrange(2, blum.n), "variant2", rng=rng)
        tampered = dataclasses.replace(sig, F=(sig.F + 1) % blum.n)
        (workdir / "tampered.sig").write_text(lib.schemes.dump_signature(tampered, blum))
        (workdir / "malformed.sig").write_text("rabin-sig v1\nscheme = variant9\nmessage = 5\n")
        return SimpleNamespace(lib=lib, rng=random.Random(f"cli/{seed}"), dir=workdir, keys=keys)

    @staticmethod
    def script(state):
        """One pass: (argv, expected exit code, prefixes of lines stdout must hold, sample kind)."""
        rng, d = state.rng, state.dir
        (d / "msg.bin").write_bytes(rng.randbytes(64))

        def f(name):
            return str(d / name)

        def seed():
            return str(rng.randrange(1 << 30))

        def msg():
            return str(rng.randrange(2, 1 << 256))

        blum = state.keys["blum"]
        x = rng.randrange(2, blum.n)
        signs = [("general", "classic"), ("general", "general"), ("blum", "variant1"), ("blum", "variant2"),
                 ("blumq", "variant2")]
        cmds = []
        for key, scheme in signs:
            out = f(f"{key}-{scheme}.sig")
            cmds.append((["sign", "--key", f(f"{key}.key"), "--scheme", scheme, "--message", msg(),
                          "--out", out, "--seed", seed()], 0, [], "op"))
            cmds.append((["verify", "--pub", f(f"{key}.key.pub"), "--sig", out], 0, ["VALID", _ops_line(scheme)], "op"))
        cmds += [
            (["sign", "--key", f("rw.key"), "--scheme", "rw", "--message-file", f("msg.bin"), "--out", f("rw.sig")],
             0, [], "op"),
            (["verify", "--pub", f("rw.key.pub"), "--sig", f("rw.sig"), "--message-file", f("msg.bin")],
             0, ["VALID", _ops_line("rw")], "op"),
            (["verify", "--pub", f("blum.key.pub"), "--sig", f("tampered.sig")], 1, ["INVALID"], "op"),
            (["verify", "--pub", f("blum.key.pub"), "--sig", f("malformed.sig")], 3, [], "op"),
            (["blind-demo", "--key", f("blum.key"), "--message", msg(), "--seed", seed()],
             0, ["verification = VALID", _ops_line("variant2")], "op"),
            (["attack", "--kind", "classic-forge", "--pub", f("general.key.pub"), "--sig", f("general-classic.sig"),
              "--target", msg(), "--out", f("forged.sig")], 0, ["VALID"], "op"),
            (["verify", "--pub", f("general.key.pub"), "--sig", f("forged.sig")], 0, ["VALID"], "op"),
            (["attack", "--kind", "scale", "--pub", f("blum.key.pub"), "--sig", f("blum-variant2.sig"),
              "--factor", msg()], 0, ["VALID"], "op"),
            (["attack", "--kind", "scale", "--pub", f("blumq.key.pub"), "--sig", f("blumq-variant2.sig"),
              "--factor", msg()], 1, ["INVALID"], "op"),
            (["attack", "--kind", "blinding", "--key", f("blum.key"), "--ciphertext", str(x * x % blum.n),
              "--trials", "2", "--seed", seed()], 0, ["oracle = naive"], "op"),
            (["selfcheck", "--seed", seed()], 0, ["selfcheck: all checks passed"], "aux"),
        ]
        return cmds, x * x % blum.n

    @staticmethod
    def step(state, rec, i):
        lib = state.lib
        cmds, c = Cli.script(state)
        blum = state.keys["blum"]
        for argv, code, lines, kind in cmds:
            got, out = rec.call(kind, _run_cli, lib.cli.main, argv, label=f"cli.{argv[0]}")
            checks = Checks()
            checks.expect(got == code, f"{argv[0]} exit code")
            checks.expect(all(any(line.startswith(p) for line in out) for p in lines), f"{argv[0]} output")
            if argv[:3] == ["attack", "--kind", "blinding"]:
                value = next((int(line.split("=")[1]) for line in out
                              if line.startswith(("root =", "factor ="))), None)
                checks.expect(value is not None and (value in (blum.p, blum.q) or value * value % blum.n == c),
                              "blinding attack result")
            rec.judge(checks)


WORKLOADS = {"keygen": Keygen, "sign-verify": SignVerify, "blind": Blind, "cli": Cli}
