"""Per-tenant key material and the shared key registry.

A serve tenant's "key material" is everything an executor needs that is
derived from the tenant's parameterization rather than from any single
request: the NTT-friendly modulus chain primes, the per-level modulus
columns the batched kernels broadcast against, and the width ``kind``
the pointwise kernels are told.  Deriving it is pure and
deterministic, so two tenants registered with the same ``(n, word_bits,
levels)`` share one :class:`KeyMaterial` object — the ARK-style reuse
idiom (PAPERS.md): key-derived tables are built once per *key*, not
once per request or per tenant.

Sharing is what makes batching possible at all: the batcher may only
stack requests whose residue rows reduce against the *same* modulus
column (DESIGN.md Sec. 12), and the registry gives it a cheap identity
to group by (:attr:`KeyMaterial.fingerprint`).  The same fingerprint
also drives worker-pool sharding, so one key's traffic lands on one
worker and its tables stay hot there.

The registry is thread-safe: the serve admission path runs on the
event loop, but registration may be driven from test threads and the
benchmarks' warmup code concurrently.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.nt.primes import ntt_friendly_primes_below

#: Width routing for the pointwise kernels: moduli
#: below 2^31 take the ``narrow`` fast paths, anything up to 2^61 the
#: ``wide`` ones (mirrors :mod:`repro.backends`).
NARROW_MAX_BITS = 30
MAX_WORD_BITS = 61


@dataclass(frozen=True)
class KeyParams:
    """The key-defining parameterization of a tenant session.

    ``levels`` is the chain's top level; a ciphertext at level ``l``
    carries ``l + 1`` residue rows (one prime dropped per rescale).
    """

    n: int
    word_bits: int
    levels: int

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1):
            raise ParameterError(
                f"ring degree must be a power of two >= 4, got {self.n}"
            )
        if not 4 <= self.word_bits <= MAX_WORD_BITS:
            raise ParameterError(
                f"word_bits must be in [4, {MAX_WORD_BITS}], got {self.word_bits}"
            )
        if self.levels < 0:
            raise ParameterError(f"levels must be >= 0, got {self.levels}")

    @property
    def kind(self) -> str:
        """Backend width kind for this key's moduli."""
        return "narrow" if self.word_bits <= NARROW_MAX_BITS else "wide"


class KeyMaterial:
    """Derived, immutable per-key state shared by every session on it."""

    def __init__(self, params: KeyParams):
        self.params = params
        gen = ntt_friendly_primes_below(1 << params.word_bits, params.n)
        primes = []
        try:
            for _ in range(params.levels + 1):
                primes.append(next(gen))
        except StopIteration:
            raise ParameterError(
                f"not enough NTT-friendly primes below 2^{params.word_bits} "
                f"for n={params.n} to build {params.levels + 1} level(s)"
            ) from None
        self.primes: tuple[int, ...] = tuple(primes)
        self.kind = params.kind
        blob = json.dumps(
            {"n": params.n, "word_bits": params.word_bits, "primes": primes},
            sort_keys=True, separators=(",", ":"),
        )
        #: Stable content identity: the batch key and shard key.
        self.fingerprint = hashlib.sha256(blob.encode()).hexdigest()[:16]

    def moduli_at(self, level: int) -> tuple[int, ...]:
        """The residue moduli of a ciphertext at ``level`` (base first)."""
        if not 0 <= level <= self.params.levels:
            raise ParameterError(
                f"level {level} outside chain [0, {self.params.levels}]"
            )
        return self.primes[: level + 1]

    @lru_cache(maxsize=None)  # noqa: B019 — immutable self, bounded by levels
    def q_col(self, level: int) -> np.ndarray:
        """``(level + 1, 1)`` uint64 modulus column for broadcasting."""
        return np.array(self.moduli_at(level), dtype=np.uint64).reshape(-1, 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        p = self.params
        return (
            f"KeyMaterial(n={p.n}, word_bits={p.word_bits}, "
            f"levels={p.levels}, fp={self.fingerprint})"
        )


class KeyRegistry:
    """Thread-safe interning table: :class:`KeyParams` -> :class:`KeyMaterial`.

    ``get`` returns the one shared object per parameterization, building
    it on first use.  Build/reuse counts feed the ``serve.keys.*``
    counters so a profile shows how much key material batching recovered.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._materials: dict[KeyParams, KeyMaterial] = {}
        self.built = 0
        self.reused = 0

    def get(self, params: KeyParams) -> KeyMaterial:
        with self._lock:
            material = self._materials.get(params)
            if material is not None:
                self.reused += 1
                return material
        # Derivation happens outside the lock (prime search can take a
        # moment for wide words); a racing duplicate build is tolerated —
        # derivation is deterministic, the first store wins.
        material = KeyMaterial(params)
        with self._lock:
            winner = self._materials.setdefault(params, material)
            if winner is material:
                self.built += 1
            else:
                self.reused += 1
        return winner

    def __len__(self) -> int:
        with self._lock:
            return len(self._materials)
