"""Seeded outputs pinned by their sha256, so that a faster signer signs the same.

Each test hashes the text that a seeded run prints or serialises and compares
it with the digest recorded when the test was written.  The keys are fixed
96-bit keys whose primes cover every class the root extraction tells apart:
1 mod 16 and 1 mod 8 (Tonelli-Shanks with several correction steps), 5 mod 8
(one step), and 3 and 7 mod 8 (the (p+1)/4 exponent).  A digest that changes
means that seeded output changed; the fix belongs in the code, not here.
Key generation is pinned apart, by the 512-bit keys it draws from one seed.
"""

import hashlib
import random

import pytest

from rabinsig.blind import run_blind_session
from rabinsig.cli import main
from rabinsig.hashing import IDENTITY, QUADRATIC, RedundancySpec
from rabinsig.keygen import KeyPair, PaddingSet, dump_private, gen_keypair
from rabinsig.schemes import SCHEME_TAGS, dump_signature, sign

REDUNDANCIES = (IDENTITY, QUADRATIC, RedundancySpec("digest", "sha256"))

# (kind, p, q, padding elements) of each fixed key.
KEYS = {
    "general-1mod16-5mod8": ("general", 51061955082087512748160869217, 67412854567710630840130276109, (
        3333286413600088546523154765546449989337307020587013856072,
        1386026466472041058931014573128662880334310253959484956894,
        762567996427412787659945585801664473467076861654831629719,
        3388220708245093978370597871885617804049182614420032330312,
    )),
    "general-3mod4-1mod8": ("general", 51086912438236638535540945979, 56477912134368735834755580281, (
        1364885351947509280818350582288361189496431758246715132621,
        2880802616326416754778994886703918725119333429793592169003,
        1873374056844148896735530820962572764131619861265803485905,
        1896313385225499047255231145680771518685443509061374177117,
    )),
    "blum": ("blum", 59194604546168289573442265579, 47920298237359840282650108991, None),
    "rw": ("rw", 66690485471483294044519429147, 51627910572565968932902491791, None),
}

# The keys each scheme signs with: classic and general on both general keys,
# classic also on the blum and rw keys.
SCHEME_KEYS = {
    "classic": ("general-1mod16-5mod8", "general-3mod4-1mod8", "blum", "rw"),
    "general": ("general-1mod16-5mod8", "general-3mod4-1mod8"),
    "variant1": ("blum",),
    "variant2": ("blum",),
    "rw": ("rw",),
}


def _key(name: str, redundancy: RedundancySpec) -> KeyPair:
    kind, p, q, elements = KEYS[name]
    padding = PaddingSet(elements) if elements else None
    return KeyPair.from_primes(kind, p, q, redundancy, padding)


def _message(rng: random.Random, redundancy: RedundancySpec, n: int):
    return rng.randbytes(32) if redundancy.tag == "digest" else rng.randrange(2, n)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


SIGN_DIGESTS = {
    "classic": "363c8e0236da6cc77123f1251a880f9fca55d8f837feb2437d2f3953994c10d9",
    "general": "a72ca6a897ff2f987c421a129159b98d8bbdb8c277982e2cacc1d884c32f05b4",
    "variant1": "203b5dfcb628f9fa302d640989327532f17d548411c5b91c042c62bf46c950c5",
    "variant2": "24b2dac22bc0af31f58bddb5415764fdc4b1b7a25d06611ce8829c3611e9d6d7",
    "rw": "08934820edab107171c2b94759eefd292128ed35a6b373c3aedc43a85918342a",
}


@pytest.mark.parametrize("scheme", SCHEME_TAGS)
def test_seeded_signatures(scheme):
    out = []
    for name in SCHEME_KEYS[scheme]:
        for redundancy in REDUNDANCIES:
            key = _key(name, redundancy)
            rng = random.Random(f"{scheme}/{name}/{redundancy.token}")
            for _ in range(4):
                m = _message(rng, redundancy, key.n)
                out.append(f"# {name} {redundancy.token}\n" + dump_signature(sign(key, m, scheme, rng=rng), key))
    assert _sha256("".join(out)) == SIGN_DIGESTS[scheme]


def test_seeded_blind_sessions():
    # signer_R is left out: it is F divided by the signer's root, both pinned here
    out = []
    for redundancy in REDUNDANCIES:
        key = _key("blum", redundancy)
        rng = random.Random(f"blind/{redundancy.token}")
        for _ in range(4):
            s = run_blind_session(key, _message(rng, redundancy, key.n), rng)
            out.append(f"{s.m!r} {s.r} {s.disguised} {s.blind_sig.F} {s.blind_sig.R3} "
                       f"{s.published.F} {s.published.R3}\n")
    assert _sha256("".join(out)) == "7b4cff2d8aef29b66c035098c93e8bf31bbe1c30ac44c4fb001c98c4ec24f79c"


def test_seeded_blind_demo(tmp_path, capsys):
    # the record `blind-demo --seed` prints, under each redundancy of the blum key
    out = []
    for redundancy in REDUNDANCIES:
        key = _key("blum", redundancy)
        path = tmp_path / f"blum-{redundancy.tag}.key"
        path.write_text(dump_private(key))
        rng = random.Random(f"blind-demo/{redundancy.token}")
        for _ in range(2):
            m, seed = rng.randrange(2, key.n), rng.randrange(1 << 30)
            assert main(["blind-demo", "--key", str(path), "--message", str(m), "--seed", str(seed)]) == 0
            out.append(capsys.readouterr().out)
    assert _sha256("".join(out)) == "12c7d6cd8fccd7a1717f45ce1f32ef70c220d7dddafdd289284c26d976ccd570"


def test_selfcheck_seed_7(capsys):
    assert main(["selfcheck", "--seed", "7"]) == 0
    assert _sha256(capsys.readouterr().out) == "10b48a54527880fc22a75599aab82e5abaf915bccbf004ec68dab9065c3b5d14"


ROOT_LINES = tuple(f"u{i}_root = " for i in range(1, 5))


def _without(text: str, prefixes: tuple[str, ...]) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith(prefixes))


def test_seeded_keygen():
    # the three keys the benchmark's cli set-up draws, in its order and from its rng; no file holds
    # a root constant of its primes, so this is the text of the versions before they were filed
    rng = random.Random("cli/pool")
    text = "".join(dump_private(gen_keypair(kind, 512, redundancy, rng)) for kind, redundancy in (
        ("general", IDENTITY), ("blum", IDENTITY), ("rw", RedundancySpec("digest", "sha256"))))
    assert _sha256(text) == "5fa8eb8770e6c0a35a609993f9168709e050047151f1c1819f3fc9ec799e7cb5"
    # without the general key's padding roots, the text that keys written before the roots hold
    rootless = _without(text, ROOT_LINES)
    assert len(text.splitlines()) - len(rootless.splitlines()) == 4
    assert _sha256(rootless) == "c4cc8d9be3724364820221ea7535adeb013a29cd0b477e21f8619fa1b7e5646d"
