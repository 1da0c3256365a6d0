"""Exception types shared across the toolkit."""


class RabinError(Exception):
    """Base class for every error raised by this package."""


class FactorLeakError(RabinError):
    """A gcd with the modulus turned out nontrivial.

    Deliberately carries no numbers in its message: the event itself is
    equivalent to leaking a factor of the modulus.
    """


class NonResidueError(RabinError):
    """A value that must be a quadratic residue is not one."""


class UnsignableMessageError(RabinError):
    """A message is outside the range the key signs, or its redundancy value is not a unit."""


class KeyFormatError(RabinError):
    """A key file does not conform to the expected text format."""


class SignatureFormatError(RabinError):
    """A signature file does not conform to the expected text format."""
