"""The paper's five benchmark applications as trace generators (Sec. 5).

Each program body reproduces the *structure* of the published FHE program —
operation mix per layer/iteration, multiplicative depth, scale choices,
and bootstrap cadence — from the networks' published shapes:

- **ResNet-20** (Lee et al., ICML'22): multiplexed parallel convolutions
  and composite-minimax ReLU (high degree, deep), 45-bit scales.
- **ResNet-20+AESPA** (Park et al.): degree-2 activations, shallow.
- **RNN**: 200 recurrent steps, 128-dim state, two dense matvecs and a
  degree-3 activation per step, 45-bit scales.
- **SqueezeNet** (AESPA activations), 35-bit scales.
- **LogReg** (HELR, Han et al.): 32 Nesterov iterations over a 1024 x 197
  batch, 35-bit scales.

Per-layer operation counts are structural estimates (documented inline)
and are identical across schemes and word sizes, so comparative results
do not depend on their absolute values.  What *does* change per scheme
and word size — as in the paper — is the bootstrap cadence: a scheme
that cannot realize a scale consumes more modulus per level and
therefore gets fewer application levels under the same security budget
(the ``scheme`` / ``word_bits`` arguments of :func:`generate`, the one
entry point; ``BENCHMARKS[app]`` is that call with the app bound).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from repro.trace.program import HeTrace
from repro.workloads.bootstrap_model import (
    BS19_SCHEDULE,
    BS26_SCHEDULE,
    BootstrapSchedule,
)
from repro.workloads.walker import (
    DEFAULT_BASE_BITS,
    DEFAULT_MAX_LOG_Q,
    DEFAULT_N,
    ProgramWalker,
    app_levels_for,
)

# ----------------------------------------------------------------------
# ResNet-20 building blocks
# ----------------------------------------------------------------------
def _conv_layer(w: ProgramWalker, rot: float, pmul: float) -> None:
    """Multiplexed parallel convolution (Lee et al.): 3x3 neighborhood
    rotations plus channel-accumulation rotations, one plaintext multiply
    per packed filter, depth 2 (conv product + folded batch-norm scale)."""
    w.ensure(2)
    w.ops(rot=rot, pmul=pmul, hadd=pmul)
    w.descend()
    w.ops(pmul=1.0)  # batch-norm scale fold
    w.descend()


def _relu_minimax(w: ProgramWalker) -> None:
    """Composite minimax ReLU approximation (degrees {15, 15, 27}):
    ~10 multiplicative levels, ~2 ciphertext multiplies per level."""
    for _ in range(10):
        w.ensure(1)
        w.ops(hmul=2.0, hadd=2.0, pmul=0.5)
        w.descend()


def _aespa_activation(w: ProgramWalker) -> None:
    """AESPA degree-2 activation: one square plus an affine correction."""
    w.ensure(2)
    w.ops(hmul=1.0, pmul=1.0, padd=1.0)
    w.descend()
    w.ops(pmul=1.0)
    w.descend()


def _resnet_backbone(w: ProgramWalker, activation: Callable) -> None:
    """20-layer CIFAR-10 ResNet: stem + 3 stages x 3 basic blocks."""
    stage_params = [  # (rotations, plaintext multiplies) per conv
        (14.0, 18.0),  # 16 channels, 32x32
        (16.0, 27.0),  # 32 channels, 16x16
        (18.0, 36.0),  # 64 channels, 8x8
    ]
    _conv_layer(w, *stage_params[0])  # stem
    activation(w)
    for stage, (rot, pmul) in enumerate(stage_params):
        for _block in range(3):
            _conv_layer(w, rot, pmul)
            activation(w)
            _conv_layer(w, rot, pmul)
            # Residual add: the skip branch is adjusted down to the
            # trunk's level (the adjust traffic of Fig. 12).
            w.adjust_from(src_offset=4)
            w.ops(hadd=1.0)
            activation(w)
    # Average pool + fully connected classifier.
    w.ensure(2)
    w.ops(rot=6.0, hadd=6.0)
    w.ops(pmul=4.0, rot=8.0, hadd=8.0)
    w.descend()


def _resnet20(w: ProgramWalker) -> None:
    """ResNet-20 with minimax ReLU (deep; frequent bootstrapping)."""
    _resnet_backbone(w, _relu_minimax)


def _resnet20_aespa(w: ProgramWalker) -> None:
    """ResNet-20 with AESPA degree-2 activations (shallow; few boots)."""
    _resnet_backbone(w, _aespa_activation)


# ----------------------------------------------------------------------
def _rnn(w: ProgramWalker) -> None:
    """Sentiment-analysis RNN: ``h = σ(W_hh h + W_ih x + b)`` 200 times.

    Each step runs two 128x128 dense matvecs (BSGS diagonal method:
    ~2·sqrt(128) rotations and 128 plaintext diagonal multiplies each)
    and a degree-3 activation (2 multiplicative levels).
    """
    for _step in range(200):
        w.ensure(3)
        # W_hh · h and W_ih · x, evaluated together on packed operands.
        w.ops(rot=22.0, pmul=48.0, hadd=48.0, padd=1.0)
        w.descend()
        # σ: degree-3 polynomial, Horner over 2 levels.
        w.ops(hmul=1.0, pmul=1.0, hadd=1.0)
        w.descend()
        w.ops(hmul=1.0, padd=1.0)
        w.descend()


def _squeezenet(w: ProgramWalker) -> None:
    """SqueezeNet (CIFAR-10) with AESPA activations (Sec. 5).

    Eight fire modules (squeeze 1x1 + expand 1x1/3x3) between a stem and
    a classifier conv; all activations degree-2.
    """
    _conv_layer(w, rot=10.0, pmul=12.0)  # stem
    _aespa_activation(w)
    for _fire in range(8):
        _conv_layer(w, rot=6.0, pmul=8.0)  # squeeze 1x1
        _aespa_activation(w)
        _conv_layer(w, rot=10.0, pmul=14.0)  # expand 1x1 + 3x3
        _aespa_activation(w)
    w.ensure(2)
    w.ops(rot=8.0, pmul=10.0, hadd=10.0)  # classifier conv + global pool
    w.descend()


def _logreg(w: ProgramWalker) -> None:
    """HELR logistic-regression training (32 NAG iterations, Sec. 5).

    Batch 1024 x 197 features packed across slots.  Each iteration:
    forward products ``X·w`` (rotation-based row sums), a degree-3
    sigmoid approximation, the gradient ``X^T·v`` (rotation-based column
    sums), and the Nesterov momentum update.
    """
    for _iteration in range(32):
        w.ensure(4)
        w.ops(pmul=4.0, rot=8.0, hadd=8.0)  # X·w row sums
        w.descend()
        w.ops(hmul=2.0, pmul=2.0, hadd=2.0)  # sigmoid, level 1
        w.descend()
        w.ops(hmul=2.0, rot=8.0, hadd=8.0)  # sigmoid finish + X^T·v
        w.descend()
        w.ops(pmul=3.0, hadd=3.0)  # NAG update of w and momentum
        w.adjust_from(src_offset=2)  # momentum term re-alignment
        w.descend()


#: Application scale per benchmark (Sec. 5): ResNet and RNN need 45-bit
#: scales, SqueezeNet and LogReg work at 35 bits.
APP_SCALES = {
    "ResNet-20": 45.0,
    "ResNet-20+AESPA": 45.0,
    "RNN": 45.0,
    "SqueezeNet": 35.0,
    "LogReg": 35.0,
}

#: Each benchmark's program body, run on a walker at its scale.
_PROGRAMS: dict[str, Callable[[ProgramWalker], None]] = {
    "ResNet-20": _resnet20,
    "ResNet-20+AESPA": _resnet20_aespa,
    "RNN": _rnn,
    "SqueezeNet": _squeezenet,
    "LogReg": _logreg,
}


def levels_for(
    app: str,
    schedule: BootstrapSchedule,
    n: int = DEFAULT_N,
    max_log_q: float = DEFAULT_MAX_LOG_Q,
    scheme: str = "bitpacker",
    word_bits: int = 28,
    ks_digits: int = 3,
) -> int:
    """Application levels ``app`` gets between bootstraps
    (:func:`~repro.workloads.walker.app_levels_for` at its scale).

    This count is all a walk reads of the scheme, word size, keyswitch
    digits and modulus budget: points that agree on it walk the same
    trace.
    """
    return app_levels_for(
        APP_SCALES[app], schedule, max_log_q, DEFAULT_BASE_BITS, scheme, n,
        word_bits, ks_digits,
    )


def walk(
    app: str, schedule: BootstrapSchedule, app_levels: int, n: int = DEFAULT_N
) -> HeTrace:
    """``app``'s trace with ``app_levels`` application levels between
    bootstraps (see :func:`levels_for`)."""
    w = ProgramWalker(
        f"{app} ({schedule.name})", APP_SCALES[app], schedule, app_levels, n,
        DEFAULT_BASE_BITS,
    )
    _PROGRAMS[app](w)
    return w.build()


def generate(
    app: str,
    schedule: BootstrapSchedule,
    n: int = DEFAULT_N,
    max_log_q: float = DEFAULT_MAX_LOG_Q,
    scheme: str = "bitpacker",
    word_bits: int = 28,
    ks_digits: int = 3,
) -> HeTrace:
    """``app``'s trace under ``scheme``'s bootstrap cadence: its program
    body walked with the application levels :func:`levels_for` gives it
    at ``word_bits``, ``ks_digits`` and ``max_log_q``."""
    levels = levels_for(
        app, schedule, n, max_log_q, scheme, word_bits, ks_digits)
    return walk(app, schedule, levels, n)


#: Benchmark registry used by every evaluation harness:
#: ``BENCHMARKS[app](schedule, **kw)`` is ``generate(app, schedule, **kw)``.
BENCHMARKS: dict[str, Callable[..., HeTrace]] = {
    app: partial(generate, app) for app in _PROGRAMS
}


def workload_traces(
    schemes: Sequence[str] = ("bitpacker", "rns-ckks"), word_bits: int = 28
) -> list[HeTrace]:
    """The bundled benchmark traces (every app x bootstrap x scheme).

    This is what ``bitpacker-repro verify-trace`` checks: the repo's own
    homomorphic programs, under both level-management schemes.
    """
    return [
        generate(app, schedule, scheme=scheme, word_bits=word_bits)
        for app in _PROGRAMS
        for schedule in (BS19_SCHEDULE, BS26_SCHEDULE)
        for scheme in schemes
    ]

