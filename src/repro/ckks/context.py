"""One-stop CKKS context: chain + keys + encoder + evaluator.

This is the public entry point most examples use::

    from repro import CkksContext, plan_bitpacker_chain

    chain = plan_bitpacker_chain(n=2048, word_bits=28,
                                 level_scale_bits=40, levels=6)
    ctx = CkksContext(chain, seed=7)
    ct = ctx.encrypt([0.5, -0.25, 0.125])
    sq = ctx.evaluator.rescale(ctx.evaluator.square(ct))
    print(ctx.decrypt_real(sq)[:3])
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ckks.encoder import CkksEncoder, encoder_for
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyChest
from repro.nt.modmath import backend_kind
from repro.rns.sampling import DEFAULT_SIGMA

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckks.ciphertext import Ciphertext
    from repro.schemes.chain import ModulusChain


class CkksContext:
    """Bundles every moving part of a CKKS instance over one chain."""

    def __init__(
        self,
        chain: "ModulusChain",
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        hamming_weight: int | None = None,
        sigma: float = DEFAULT_SIGMA,
    ):
        # A chain plans at any word size, but a residue is one uint64
        # word: every modulus must lie below 2^61.
        for q in chain.all_moduli + chain.special_moduli:
            backend_kind(q)
        self.chain = chain
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.encoder: CkksEncoder = encoder_for(chain.n)
        self.chest = KeyChest(chain, self.rng, hamming_weight, sigma)
        self.encryptor = Encryptor(chain, self.chest, self.encoder)
        self.decryptor = Decryptor(chain, self.chest, self.encoder)
        self.evaluator = Evaluator(chain, self.chest, self.encoder)

    # Convenience passthroughs --------------------------------------------
    @property
    def slots(self) -> int:
        return self.encoder.slots

    def encrypt(self, values, level: int | None = None, scale=None) -> "Ciphertext":
        return self.encryptor.encrypt(values, level, scale)

    def decrypt(self, ct: "Ciphertext") -> np.ndarray:
        return self.decryptor.decrypt(ct)

    def decrypt_real(self, ct: "Ciphertext") -> np.ndarray:
        return self.decryptor.decrypt_real(ct)

    def precision_bits(self, ct: "Ciphertext", reference: Sequence[float]) -> float:
        """Error-free mantissa bits vs an unencrypted reference.

        The paper's accuracy metric (Table 1, Figs. 18-19):
        ``-log2(max |decrypted - reference|)``.
        """
        got = self.decrypt_real(ct)[: len(reference)]
        err = np.max(np.abs(got - np.asarray(reference, dtype=np.float64)))
        if err == 0:
            return np.inf
        return float(-np.log2(err))
