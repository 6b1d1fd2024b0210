"""Equal-power MIMO capacity-outage baseline for system comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blocks import (OutageEstimate, _shown, channel_halves, chunks,
                      parallel_count, require_block_fits, require_positive,
                      require_positive_int, seed_components, seeded_counter,
                      workspace)
from .outage import required_snr

_LN2 = math.log(2.0)

# Largest MimoConfig.scale a link may have.  block_capacities scales each
# Gram entry by g = scale / 2, and g times any Gram sum below about 1e6 stays
# finite; an overflow there turns into NaN capacities, counted as no outage.
MAX_MIMO_SCALE = 1e300


@dataclass(frozen=True)
class MimoConfig:
    """Open-loop MIMO link: m x m iid Rayleigh, equal per-antenna power, at
    per-antenna SNR scale (the harness's p_total / (m * sigma_n2))."""

    m: int = 3
    scale: float = 20.0
    r_tr: float = 3.0
    trials: int = 100_000
    seed: object = 0

    def __post_init__(self):
        require_positive_int(m=self.m, trials=self.trials)
        for name in ("m", "trials"):  # a numpy int8 or uint64 would wrap
            object.__setattr__(self, name, int(getattr(self, name)))
        require_positive(scale=self.scale)
        require_block_fits(self.trials, self.m, self.m, "m")
        required_snr(self.r_tr)
        # a numpy float32 would run in float32, and overflow comparing here
        object.__setattr__(self, "scale", float(self.scale))
        if self.scale > MAX_MIMO_SCALE:
            raise ValueError(f"scale must be at most {MAX_MIMO_SCALE:g}, "
                             f"got {_shown(self.scale)}")
        seed_components(self.seed)


def _gram(hr, hi, a, t) -> None:
    """The Gram H H^H of H = hr + j*hi, (m, m, w) arrays of length-w entries,
    packed into a: entry (i, k), k <= i, is a[i, k] + j*a[k, i] (a real
    diagonal).  t is a length-w temporary."""
    m = hr.shape[0]
    for i in range(m):
        for k in range(i + 1):
            # (H H^H)[i, k] = sum_j H[i, j] * conj(H[k, j])
            r = np.einsum("jn,jn->n", hr[i], hr[k], out=a[i, k])
            r += np.einsum("jn,jn->n", hi[i], hi[k], out=t)
            if k < i:
                q = np.einsum("jn,jn->n", hi[i], hr[k], out=a[k, i])
                q -= np.einsum("jn,jn->n", hr[i], hi[k], out=t)


def _ldl_log_det(a, logdet):
    """logdet = natural log det(I + A) of each scaled Gram A packed in the
    (m, m, n) array a, by unpivoted LDL^H in a (I + A has no eigenvalue
    below 1).  Only an m >= 2 elimination takes scratch: lanes from
    "channel" and products from "chunk"."""
    m, n = a.shape[0], a.shape[2]
    for i in range(m):
        a[i, i] += 1.0
    np.log(a[0, 0], out=logdet)
    for j in range(m - 1):
        inv, lr, li = workspace("channel", (3, n))
        t, s = workspace("chunk", (2, n))
        np.divide(1.0, a[j, j], out=inv)
        for i in range(j + 1, m):
            # A[i, k] -= l * conj(A[k, j]) with l = A[i, j] / A[j, j]
            np.multiply(a[i, j], inv, out=lr)
            np.multiply(a[j, i], inv, out=li)
            for k in range(j + 1, i + 1):
                br, bi = a[k, j], a[j, k]
                np.multiply(lr, br, out=t)
                t += np.multiply(li, bi, out=s)
                a[i, k] -= t
                if k < i:
                    np.multiply(li, br, out=t)
                    t -= np.multiply(lr, bi, out=s)
                    a[k, i] -= t
        logdet += np.log(a[j + 1, j + 1], out=t)
    return logdet


def block_capacities(rng: np.random.Generator, n: int, m: int,
                     scale: float) -> np.ndarray:
    """log2 det(I + scale * H H^H), H = (re + j*im) / sqrt(2), of n channels
    drawn by channel_halves, as a new array.  The real parts go entry-major
    into this thread's (m, m, n) "acc"; each chunk of imaginary parts into
    "channel", its Gram into its "chunk", then, scaled, over its real parts.
    """
    capacity, acc = np.empty(n), workspace("acc", (m, m, n))
    # rows keep the first chunk's stride (two trials at least), so a one-trial
    # chunk is strided as in acc: einsum sums a contiguous one in another order
    hi = workspace("channel", (m, m, max(chunks(n, m * m)[0][1], min(n, 2))))
    for half, start, stop, z in channel_halves(rng, n, (m, m)):
        hr = acc[..., start:stop]
        if half == 0:
            hr[...] = z.transpose(1, 2, 0)
        else:
            h = hi[..., :stop - start]
            h[...] = z.transpose(1, 2, 0)
            gram = workspace("chunk", h.shape)
            _gram(hr, h, gram, capacity[start:stop])
            np.multiply(gram, scale / 2.0, out=hr)
    return np.divide(_ldl_log_det(acc, capacity), _LN2, out=capacity)


def mimo_outage(cfg: MimoConfig, workers: int = 1) -> OutageEstimate:
    """Monte Carlo P(capacity < r_tr) for the equal-power MIMO link: strict
    counting, on the beamforming estimator's block-seeding contract."""
    count_block = seeded_counter(
        cfg.seed, lambda rng, n: block_capacities(rng, n, cfg.m, cfg.scale),
        cfg.r_tr)
    count = parallel_count(count_block, cfg.trials, workers)
    return OutageEstimate.from_count(count, cfg.trials)
