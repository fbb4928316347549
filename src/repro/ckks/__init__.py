"""Functional CKKS implementation (encode, encrypt, evaluate, decrypt).

Layered on the RNS substrate, this package implements the full CKKS
scheme the paper builds on: the canonical-embedding encoder, RLWE key
material with hybrid keyswitching, the homomorphic evaluator, and a
documented functional substitute for bootstrapping.  Level management
(rescale/adjust) is delegated to a :mod:`repro.schemes` modulus chain, so
the same evaluator runs both RNS-CKKS and BitPacker.
"""

from repro.ckks.bootstrap_pipeline import (
    PipelineConfig,
    bootstrap_homomorphic,
    mod_raise,
)
from repro.ckks.ciphertext import Ciphertext, Plaintext, stack
from repro.ckks.context import CkksContext
from repro.ckks.encoder import CkksEncoder, encoder_for
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.evalmod import EvalModConfig, eval_mod
from repro.ckks.evaluator import Evaluator
from repro.ckks.homdft import coeff_to_slot, slot_to_coeff
from repro.ckks.keys import KeyChest, KeySwitchKey, PublicKey, SecretKey
from repro.ckks.linalg import PlainMatrix
from repro.ckks.noise import noise_tables
from repro.ckks.polyeval import eval_chebyshev

__all__ = [
    "Ciphertext",
    "Plaintext",
    "stack",
    "CkksContext",
    "CkksEncoder",
    "encoder_for",
    "Encryptor",
    "Decryptor",
    "Evaluator",
    "EvalModConfig",
    "eval_mod",
    "coeff_to_slot",
    "slot_to_coeff",
    "PipelineConfig",
    "bootstrap_homomorphic",
    "mod_raise",
    "KeyChest",
    "KeySwitchKey",
    "PublicKey",
    "SecretKey",
    "PlainMatrix",
    "noise_tables",
    "eval_chebyshev",
]
