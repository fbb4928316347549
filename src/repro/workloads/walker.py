"""Program walker: tracks the level cursor and inserts bootstraps.

Applications consume levels as they multiply and rescale (Fig. 3's
downward slope); when the cursor would drop below level 1 the walker
emits a full bootstrap (Fig. 3's reset) and resumes at the application's
top level.  This reproduces exactly the leveled-execution structure the
paper describes in Sec. 2.2.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ParameterError
from repro.trace.program import HeTrace, TraceBuilder
from repro.workloads.bootstrap_model import BootstrapSchedule

#: The parameters of the paper's evaluation (Sec. 5).
DEFAULT_N = 65536
DEFAULT_BASE_BITS = 60.0
DEFAULT_MAX_LOG_Q = 1596.0


def _scale_consumption(
    scheme: str, n: int, word_bits: int
) -> Callable[[float], float]:
    """Target scale bits -> modulus bits a level really consumes under
    ``scheme`` at ``(n, word_bits)``, with the word's prime bounds read
    once.

    BitPacker meets any target (Sec. 3.3); RNS-CKKS is limited to scales
    that products of 1..k NTT-friendly primes can reach (Sec. 5), so an
    unreachable target consumes the smallest achievable scale above it.
    """
    if scheme == "bitpacker":
        return lambda target_bits: target_bits
    from repro.schemes.rns_ckks import achievable_scale_bits
    from repro.schemes.selection import min_prime_bits, usable_word_bits

    usable, smallest = usable_word_bits(n, word_bits), min_prime_bits(n)
    return lambda target_bits: achievable_scale_bits(
        target_bits, usable, smallest)


def app_levels_for(
    app_scale_bits: float,
    schedule: BootstrapSchedule,
    max_log_q: float = DEFAULT_MAX_LOG_Q,
    base_bits: float = DEFAULT_BASE_BITS,
    scheme: str = "bitpacker",
    n: int = DEFAULT_N,
    word_bits: int = 28,
    ks_digits: int = 3,
) -> int:
    """Application levels that fit the modulus budget below one bootstrap.

    ``log2 Qmax`` is a budget on the *total* modulus ``Q·P`` (the security
    constraint of Sec. 3.4 covers the keyswitching specials too); with
    ``d``-digit keyswitching ``P ~ Q/d``, leaving ``Q`` a ``d/(d+1)``
    share.  Within it, ``log2 Q = base + bootstrap modulus + L_app *
    app_scale`` — the leveled-execution accounting of Sec. 2.2.  Scales a
    scheme cannot realize consume their smallest achievable substitute,
    so RNS-CKKS at narrow words gets fewer application levels (and
    bootstraps more often) than BitPacker under the same security budget
    — one of the paper's sources of speedup (Sec. 5).
    """
    consumed = _scale_consumption(scheme, n, word_bits)
    boot_bits = sum(map(consumed, schedule.level_scale_bits))
    eff_app = consumed(app_scale_bits)
    q_budget = max_log_q * ks_digits / (ks_digits + 1)
    budget = q_budget - base_bits - boot_bits
    levels = int(budget // eff_app)
    if levels < 2:
        raise ParameterError(
            f"modulus budget leaves only {levels} application levels for a "
            f"{app_scale_bits}-bit scale under {schedule.name}"
        )
    return levels


def level_schedule(
    app_scale_bits: float,
    app_levels: int,
    schedule: BootstrapSchedule,
) -> tuple[float, ...]:
    """Per-level target scales, level 0 up to Lmax (Fig. 8's program map)."""
    app_part = [app_scale_bits] * (app_levels + 1)  # levels 0..L_app
    boot_part = list(reversed(schedule.level_scale_bits))  # ascending levels
    return tuple(app_part + boot_part)


class ProgramWalker:
    """Emits an application's trace with automatic bootstrap insertion.

    ``app_levels`` is the application's level count between bootstraps
    (:func:`app_levels_for`): the scheme, word size and modulus budget
    reach the trace only through it.
    """

    def __init__(
        self,
        name: str,
        app_scale_bits: float,
        schedule: BootstrapSchedule,
        app_levels: int,
        n: int = DEFAULT_N,
        base_bits: float = DEFAULT_BASE_BITS,
    ):
        self.schedule = schedule
        self.app_top = app_levels
        scales = level_schedule(app_scale_bits, self.app_top, schedule)
        self.builder = TraceBuilder(
            name=name, n=n, base_bits=base_bits, level_scale_bits=scales
        )
        self.level = self.app_top
        self.bootstraps = 0
        self._boot_block: tuple[HeTrace, int] | None = None

    # ------------------------------------------------------------------
    @property
    def max_level(self) -> int:
        return len(self.builder.level_scale_bits) - 1

    def ensure(self, depth: int) -> None:
        """Bootstrap now if fewer than ``depth`` levels remain."""
        if depth > self.app_top:
            raise ParameterError(
                f"step needs {depth} levels but only {self.app_top} exist "
                "between bootstraps"
            )
        if self.level - depth < 0:
            self.bootstrap()

    def bootstrap(self) -> None:
        """Emit one full bootstrap and reset the cursor (Fig. 3)."""
        if self._boot_block is None:
            # Every bootstrap starts at max_level, so the schedule emits
            # the same ops each time: record the block once, share it.
            b = self.builder
            block = TraceBuilder(b.name, b.n, b.base_bits, b.level_scale_bits)
            exit_level = self.schedule.emit(block, self.max_level)
            self._boot_block = (block.build(), exit_level)
        block, self.level = self._boot_block
        self.builder.extend(block)
        self.bootstraps += 1

    # ------------------------------------------------------------------
    def ops(
        self,
        rot: float = 0.0,
        hmul: float = 0.0,
        pmul: float = 0.0,
        hadd: float = 0.0,
        padd: float = 0.0,
    ) -> None:
        """Record operations at the current level."""
        b = self.builder
        b.hrot(self.level, rot)
        b.hmul(self.level, hmul)
        b.pmul(self.level, pmul)
        b.hadd(self.level, hadd)
        b.padd(self.level, padd)

    def descend(self) -> None:
        """Rescale the live ciphertext down one level."""
        if self.level == 0:
            raise ParameterError("descend below level 0; call ensure() first")
        self.builder.rescale(self.level)
        self.level -= 1

    def adjust_from(self, src_offset: int) -> None:
        """Adjust a ciphertext from ``level + src_offset`` to the cursor.

        Models residual/skip connections and operand re-alignment, the
        adjust traffic Fig. 12 breaks out.
        """
        src = min(self.level + src_offset, self.max_level)
        if src > self.level:
            self.builder.adjust(src, self.level)

    def build(self) -> HeTrace:
        return self.builder.build()
