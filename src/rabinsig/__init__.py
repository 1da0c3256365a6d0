"""Rabin-style signature toolkit: five schemes, blind signing, attack harness."""

from .blind import (
    BlindSession,
    BlindSignature,
    blind_sign,
    disguise,
    naive_blind_sign,
    run_blind_session,
    unblind,
    verify_blind_signature,
)
from .errors import (
    FactorLeakError,
    KeyFormatError,
    NonResidueError,
    RabinError,
    SignatureFormatError,
    UnsignableMessageError,
)
from .forgery import (
    AttackOutcome,
    ForgeryTransform,
    TRANSFORMS,
    apply_scaling,
    forge_classic,
    rsa_blinding_attack,
)
from .hashing import DEFAULT_DIGEST, DigestRef, IDENTITY, QUADRATIC, RedundancySpec, apply_redundancy
from .keygen import (
    KeyPair,
    PaddingSet,
    PublicKey,
    build_padding_set,
    dump_private,
    dump_public,
    gen_keypair,
    gen_prime,
    padding_set_flaws,
    parse_key,
)
from .schemes import (
    ClassicSignature,
    GeneralSignature,
    RWSignature,
    Signature,
    Variant1Signature,
    Variant2Signature,
    VerifyReport,
    classic_sign,
    classic_verify,
    dump_signature,
    general_sign,
    general_verify,
    parse_signature,
    rw_sign,
    rw_verify,
    sign,
    variant1_sign,
    variant1_verify,
    variant2_sign,
    variant2_verify,
    verify,
)

__version__ = "0.1.0"
