import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rabinsig.hashing import (
    DEFAULT_DIGEST,
    IDENTITY,
    QUADRATIC,
    DigestRef,
    RedundancySpec,
    apply_redundancy,
    int_to_bytes,
)


def test_quadratic_example():
    assert apply_redundancy(QUADRATIC, 3, 77) == 12


def test_identity_reduces():
    assert apply_redundancy(IDENTITY, 80, 77) == 3


def test_quadratic_degenerates_at_minus_one():
    assert apply_redundancy(QUADRATIC, 76, 77) == 0


def test_negative_messages_rejected():
    with pytest.raises(ValueError):
        apply_redundancy(IDENTITY, -1, 77)


def test_digest_mode_matches_hashlib():
    spec = RedundancySpec.from_token("digest:sha256")
    expected = int.from_bytes(hashlib.sha256(b"\x2a").digest(), "big")
    assert apply_redundancy(spec, 42, 77) == expected % 77
    assert apply_redundancy(spec, b"\x2a", 77) == expected % 77
    assert apply_redundancy(spec, DigestRef(expected), 77) == expected % 77


def test_int_to_bytes_is_minimal_big_endian():
    assert int_to_bytes(0) == b""
    assert int_to_bytes(255) == b"\xff"
    assert int_to_bytes(256) == b"\x01\x00"


def test_byte_messages_need_digest_mode():
    with pytest.raises(TypeError):
        apply_redundancy(IDENTITY, b"hello", 77)
    with pytest.raises(TypeError):
        apply_redundancy(QUADRATIC, DigestRef(5), 77)


def test_tokens_round_trip():
    for spec in (IDENTITY, QUADRATIC, RedundancySpec("digest", "sha512")):
        assert RedundancySpec.from_token(spec.token) == spec
    assert RedundancySpec.from_token("digest").digest_name == DEFAULT_DIGEST


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        RedundancySpec("keccak-fantasy")
    with pytest.raises(ValueError):
        RedundancySpec("digest")
    with pytest.raises(ValueError):
        RedundancySpec("digest", "not-a-real-digest")
    with pytest.raises(ValueError):
        RedundancySpec("identity", "sha256")


@pytest.mark.parametrize("name", ["SHA256", "SHA-256", "SHA3-256", "sha512-256"])
def test_a_digest_has_one_spelling(name):
    # hashlib takes each of these for a digest it names otherwise, so one spec would have two tokens
    assert hashlib.new(name).name != name
    with pytest.raises(ValueError, match="spelled"):
        RedundancySpec("digest", name)
    with pytest.raises(ValueError):
        RedundancySpec.from_token(f"digest:{name}")


@pytest.mark.parametrize("name", ["shake_128", "shake_256"])
def test_variable_length_digests_rejected(name):
    # their digest() needs a length, so they could not hash a message
    with pytest.raises(ValueError):
        RedundancySpec("digest", name)
    with pytest.raises(ValueError):
        RedundancySpec.from_token(f"digest:{name}")


@given(st.integers(0, 10**9))
def test_deterministic(m):
    spec = RedundancySpec("digest", DEFAULT_DIGEST)
    for s in (IDENTITY, QUADRATIC, spec):
        assert apply_redundancy(s, m, 77) == apply_redundancy(s, m, 77)


def test_quadratic_is_not_scale_homogeneous(rng):
    # H(lam**2 * m) differs from lam**2 * H(m) whenever lam**2 != 1:
    # the difference is lam**2 * m**2 * (lam**2 - 1) mod n.
    n = 77
    unity = {1, 34, 43, 76}
    checked = 0
    while checked < 100:
        lam = rng.randrange(2, n)
        m = rng.randrange(1, n)
        if lam in unity or math.gcd(lam, n) != 1 or math.gcd(m, n) != 1:
            continue
        assert apply_redundancy(QUADRATIC, lam * lam * m % n, n) != lam * lam * apply_redundancy(QUADRATIC, m, n) % n
        checked += 1
