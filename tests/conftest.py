import dataclasses
import random

import pytest

from rabinsig.hashing import IDENTITY, QUADRATIC
from rabinsig.keygen import KeyPair, PaddingSet
from rabinsig.numtheory import jacobi

# Padding set for the n=77 fixture, composed with multipliers a=(2,3), b=(3,2)
# and all r_i = 1.  With equal r_i the pairwise-difference safety check fails
# (that is the point of random r_i), so this set is for oracle tests only.
ORACLE_PADDING = PaddingSet((58, 2, 3, 24), ((1, 1), (1, -1), (-1, 1), (-1, -1)))


def general_key_with_unchecked_padding(p: int, q: int, elements, redundancy=IDENTITY) -> KeyPair:
    """A general key whose padding set skips the safety checks of KeyPair.from_primes.

    For sets that fail them on purpose, such as ORACLE_PADDING; the classes
    are still computed from the elements.
    """
    classes = tuple((jacobi(u, p), jacobi(u, q)) for u in elements)
    return dataclasses.replace(KeyPair.from_primes("general", p, q, redundancy),
                               padding=PaddingSet(tuple(elements), classes))


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
