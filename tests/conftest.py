import dataclasses
import functools
import random
import re
import sys

import pytest

from rabinsig import keygen, numtheory
from rabinsig.hashing import IDENTITY, QUADRATIC
from rabinsig.keygen import KeyPair, PaddingSet, ProvenPrime, gen_prime
from rabinsig.numtheory import crt_combine, is_probable_prime, jacobi

# Padding set for the n=77 fixture, composed with multipliers a=(2,3), b=(3,2)
# and all r_i = 1.  With equal r_i the pairwise-difference safety check fails
# (that is the point of random r_i), so this set is for oracle tests only.
ORACLE_PADDING = PaddingSet((58, 2, 3, 24), ((1, 1), (1, -1), (-1, 1), (-1, -1)))


def general_key_with_unchecked_padding(p: int, q: int, elements, redundancy=IDENTITY) -> KeyPair:
    """A general key whose padding set skips the safety checks of KeyPair.from_primes.

    For sets that fail them on purpose, such as ORACLE_PADDING; the classes
    are still computed from the elements, and each element's root over its
    class as from_primes computes it.
    """
    key = KeyPair.from_primes("general", p, q, redundancy)
    ring = key.idem
    classes = tuple((jacobi(u, p), jacobi(u, q)) for u in elements)
    roots = tuple(crt_combine(ring.at_p.root_over_class(u), ring.at_q.root_over_class(u), ring) for u in elements)
    return dataclasses.replace(key, padding=PaddingSet(tuple(elements), classes, roots))


def private_values(key: KeyPair) -> set[int]:
    """Every private value of a key: p, q, psi1, psi2, the numbers in the chains, and the lifts of each padding root."""
    values = {key.p, key.q, key.psi1, key.psi2}
    values.update(x for prime in (key.p, key.q) for step in getattr(prime, "chain", ()) for x in step)
    if key.padding is not None and key.padding.roots is not None:
        values.update(x for w in key.padding.roots for x in numtheory._four_lifts(w, key.idem))
    return values


def secret_runs(text: str, *keys: KeyPair) -> list[str]:
    """Each leak of a private value of one of `keys` in `text`: a run of 20 digits that also occurs in one,
    or a whole decimal token of 7 to 19 digits that is one.

    The tokens find the values of small keys, whose primes have about 8 digits and psi1 and psi2 about 15;
    the floor of 7 digits keeps out counts and element numbers.
    """
    values = {str(value) for key in keys for value in private_values(key)}
    known = {value[i:i + 20] for value in values for i in range(len(value) - 19)}
    runs = (run[i:i + 20] for run in re.findall(r"[0-9]{20,}", text) for i in range(len(run) - 19))
    tokens = (token for token in re.findall(r"[0-9]+", text) if 7 <= len(token) <= 19 and token in values)
    return [run for run in runs if run in known] + list(tokens)


@functools.cache
def composite_with_a_proven_factor() -> tuple[int, ProvenPrime]:
    """A composite n = 3 mod 4 above 2**64 and a proven prime f with f | n - 1 and f*f > n.

    Pocklington's theorem says that no witness proves n by f.  A Miller-Rabin
    round that fails proves n composite, so n needs no outside primality test.
    """
    rng = random.Random(9)
    f = gen_prime(100, "none", rng)
    n = next(n for n in range((1 << 140) // (2 * f) * 2 * f + 1, 1 << 141, 2 * f)
             if n % 4 == 3 and not is_probable_prime(n, rng))
    assert (n - 1) % f == 0 and f * f > n > 1 << 64
    return n, f


class NoRandomness:
    """An rng stand-in that fails the test when anything draws from it."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used")


class SeqRng:
    """Deterministic rng stand-in that replays a queue of values."""

    def __init__(self, *values):
        self._values = list(values)

    def randrange(self, start, stop=None):
        value = self._values.pop(0)
        lo, hi = (0, start) if stop is None else (start, stop)
        assert lo <= value < hi, f"scripted value {value} outside [{lo}, {hi})"
        return value

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


# The rabinsig modules these tests imported.  perfbench's tests re-import the
# package (workloads.load_package(fresh=True)), which would leave sys.modules
# holding classes and globals other than the ones these tests use, and pickle
# finds a class by its module there.
_COLLECTED_MODULES: dict = {}


def pytest_collection_finish(session):
    _COLLECTED_MODULES.update((name, module) for name, module in sys.modules.items()
                              if name == "rabinsig" or name.startswith("rabinsig."))


@pytest.fixture(autouse=True)
def _collected_modules():
    """Put back the rabinsig modules of collection time, when one suite runs both test directories."""
    sys.modules.update(_COLLECTED_MODULES)


@pytest.fixture
def record_modexps(monkeypatch):
    """A function that starts recording the modular powers numtheory and keygen take, and returns the record.

    From the call on, each pow and each _modexp call in those modules appends
    (base, exp, mod).  The recorder stands in for both, and computes with the
    builtin pow, so a modexp that _modexp hands to libcrypto is counted once,
    as one that it hands to pow is.
    """

    def start() -> list:
        calls = []

        def recorded(base, exp, mod=None):
            calls.append((base, exp, mod))
            return pow(base, exp, mod)

        for module in (numtheory, keygen):
            monkeypatch.setattr(module, "pow", recorded, raising=False)
            monkeypatch.setattr(module, "_modexp", recorded)
        return calls

    return start


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def toy_key():
    return KeyPair.from_primes("blum", 7, 11, IDENTITY)


@pytest.fixture
def toy_key_quadratic():
    return KeyPair.from_primes("blum", 7, 11, QUADRATIC)


@pytest.fixture
def general_toy_key():
    return general_key_with_unchecked_padding(7, 11, ORACLE_PADDING.elements)


@pytest.fixture
def rw_toy_key():
    return KeyPair.from_primes("rw", 11, 7, IDENTITY)
