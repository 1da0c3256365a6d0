"""Redundancy functions mapping messages into the signing ring.

Three modes: identity (m mod n), quadratic (m*(m+1) mod n) and digest
(a cryptographic digest of the message bytes, reduced mod n).  Byte-stream
messages are only meaningful in digest mode.
"""

import functools
import hashlib
from dataclasses import dataclass

DEFAULT_DIGEST = "sha256"

_TAGS = ("identity", "quadratic", "digest")


@dataclass(frozen=True)
class DigestRef:
    """Stand-in for a byte message: the integer value of its digest."""

    digest_int: int


@dataclass(frozen=True)
class RedundancySpec:
    tag: str
    digest_name: str | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown redundancy tag {self.tag!r}")
        if self.tag == "digest":
            if not self.digest_name:
                raise ValueError("digest redundancy needs a digest name")
            digest = hashlib.new(self.digest_name)  # raises on unsupported digests
            if digest.name != self.digest_name:  # one spelling per digest, so one token per spec
                raise ValueError(f"digest {self.digest_name!r} is spelled {digest.name!r}")
            if digest.digest_size == 0:
                raise ValueError(f"digest {self.digest_name!r} has no fixed output length")
        elif self.digest_name is not None:
            raise ValueError("digest name is only meaningful for digest redundancy")

    @functools.cached_property
    def digest_limit(self) -> int:
        """2**(8 * digest size), above every digest value (digest redundancy only)."""
        return 1 << 8 * hashlib.new(self.digest_name).digest_size

    @property
    def token(self) -> str:
        """Serialised form, e.g. 'identity' or 'digest:sha256'."""
        if self.tag == "digest":
            return f"digest:{self.digest_name}"
        return self.tag

    @classmethod
    def from_token(cls, token: str) -> "RedundancySpec":
        """The spec a token names; a bare 'digest' names DEFAULT_DIGEST, though its token is 'digest:sha256'."""
        if token == "digest":
            return cls("digest", DEFAULT_DIGEST)
        if token.startswith("digest:"):
            return cls("digest", token.split(":", 1)[1])
        return cls(token)


IDENTITY = RedundancySpec("identity")
QUADRATIC = RedundancySpec("quadratic")

Message = int | bytes | DigestRef


def int_to_bytes(m: int) -> bytes:
    """Minimal big-endian encoding; zero encodes to the empty string."""
    return m.to_bytes((m.bit_length() + 7) // 8, "big")


def digest_int(spec: RedundancySpec, data: bytes) -> int:
    """The digest of data under spec, as a big-endian integer."""
    return int.from_bytes(hashlib.new(spec.digest_name, data).digest(), "big")


def apply_redundancy(spec: RedundancySpec, m: Message, n: int) -> int:
    """Evaluate the redundancy function of m in Z_n."""
    if not isinstance(m, int):  # the common case, an integer, skips both type tests
        if isinstance(m, DigestRef):
            if spec.tag != "digest":
                raise TypeError("digest references require digest redundancy")
            return m.digest_int % n
        if isinstance(m, bytes):
            if spec.tag != "digest":
                raise TypeError("byte messages require digest redundancy")
            return digest_int(spec, m) % n
    if m < 0:
        raise ValueError("messages are non-negative integers")
    if spec.tag == "identity":
        return m % n
    if spec.tag == "quadratic":
        return m * (m + 1) % n
    return digest_int(spec, int_to_bytes(m)) % n
