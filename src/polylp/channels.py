"""Binary symmetric and binary-input AWGN channels.

Transmission samples noise from a caller-owned seeded generator; the
log-likelihood ratios follow the negative-LLR convention in which a
positive entry favors bit 0, so the decoding objective is the inner
product of the LLR vector with the candidate word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .codes import _all_bits, check_integer


@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel with crossover probability in (0, 0.5]."""

    p: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p <= 0.5):
            raise ValueError("BSC crossover probability must be in (0, 0.5]")

    kind = "bsc"

    @property
    def param(self) -> float:
        return self.p


@dataclass(frozen=True)
class Awgn:
    """Binary-input AWGN channel at Eb/N0 ``snr_db`` for a rate-``rate`` code.

    BPSK maps bit 0 to +1; the per-sample noise variance is
    ``1 / (2 * rate * 10^(snr_db / 10))``.
    """

    snr_db: float
    rate: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rate <= 1.0):
            raise ValueError("code rate must be in (0, 1]")
        # The LLR scale 2 / variance is a finite positive float exactly when
        # the variance is one too; far from 0 dB, or at inf or nan, it is not.
        try:
            scale = 2.0 / self.noise_variance
        except (OverflowError, ZeroDivisionError):
            scale = math.nan
        if not 0.0 < scale < math.inf:
            raise ValueError(f"snr_db = {self.snr_db} dB is out of the float range")

    kind = "awgn"

    @property
    def param(self) -> float:
        return self.snr_db

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.snr_db / 10.0))


ChannelModel = Union[Bsc, Awgn]


def transmit(
    x: ArrayLike, ch: ChannelModel, seed: int | np.random.Generator
) -> NDArray:
    """Send codeword bits through the channel; deterministic per seed.

    Returns hard bits for the BSC and real samples for AWGN.
    """
    bits = np.asarray(x)
    if bits.ndim != 1:
        raise ValueError("codeword must be a 1-D bit vector")
    if not _all_bits(bits):
        raise ValueError("codeword entries must be 0 or 1")
    if not isinstance(seed, np.random.Generator):
        check_integer("seed", seed, 0)
    # default_rng returns a Generator unaltered, so the caller's advances.
    rng = np.random.default_rng(seed)
    if isinstance(ch, Bsc):
        flips = rng.random(bits.size) < ch.p
        return bits.astype(np.uint8) ^ flips
    symbols = 1.0 - 2.0 * bits.astype(float)
    sigma = math.sqrt(ch.noise_variance)
    return symbols + sigma * rng.standard_normal(bits.size)


def llr(received: ArrayLike, ch: ChannelModel) -> NDArray[np.float64]:
    """Negative log-likelihood ratios of the received vector, in nats.

    BSC: ``log((1-p)/p)`` for a received 0 and the negative for a 1.
    AWGN: ``2 y / sigma^2`` under the bit-0 -> +1 map.  Pure function.
    """
    y = np.asarray(received)
    if y.ndim != 1:
        raise ValueError("received vector must be 1-D")
    if isinstance(ch, Bsc):
        if not _all_bits(y):
            raise ValueError("BSC received symbols must be 0 or 1")
        base = math.log((1.0 - ch.p) / ch.p)
        return (1.0 - 2.0 * y.astype(float)) * base
    return 2.0 * np.asarray(y, dtype=float) / ch.noise_variance
