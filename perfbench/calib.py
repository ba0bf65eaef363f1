"""A fixed calibration loop that measures how fast the host runs right now.

The reference machine is a 2-vCPU guest whose speed drifts for seconds to
minutes at a time (the host takes CPU from it), and the drift shows in
wall time and CPU time alike.  The benchmark runs this loop between rounds
and divides each round's time by the loop's, so a slow spell of the host
slows both sides and cancels out, while a change in the program moves the
round side only.

A pass is one transformer block, forward and a backward-shaped second
sweep, in plain numpy at the workload's batch size, plus TT-core-sized
einsums and some Python object churn: the same kinds of work a round does,
at the same grain.  A slow spell does not slow every kind of work alike
(B=32 matrices feel cache and memory pressure that B=1 ones do not), which
is why the loop follows the workload's batch size.  It also runs on as many
threads as the workload's clients do: the two vCPUs slow down independently,
and a one-thread loop sees only the one it runs on.  It never calls
``fedtt``, so the program cannot speed it up or slow it down.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Median seconds of one pass per (batch size, threads) on the reference
# machine (2 vCPUs, Python 3.11, numpy 2.4 with OpenBLAS, one BLAS thread);
# with two threads, a pass is one on each.  Calibrated times are scaled to
# this speed: a round that took ``dt`` next to passes of ``p`` seconds is
# reported as ``dt * REF_PASS_S[batch, threads] / p``.
REF_PASS_S = {(1, 1): 2.1e-4, (16, 1): 1.8e-3, (32, 1): 3.5e-3, (16, 2): 2.15e-3}
# A block after each round lasts about this share of the workload's nominal
# round; the blocks just before and just after set-up last SETUP_CALIB_S each.
ROUND_SHARE = 0.1
SETUP_CALIB_S = 0.5
SEQ, D, HEADS, HIDDEN = 16, 64, 2, 128  # the default model's shapes


class Calibration:
    def __init__(self, batch: int, threads: int = 1) -> None:
        """A loop at the calibrated batch size nearest to ``batch``."""
        rng = np.random.default_rng(0)
        threads = min(threads, 2)
        batch = min((b for b, t in REF_PASS_S if t == threads),
                    key=lambda b: abs(b - batch))
        self.batch, self.threads = batch, threads
        self.ref_s = REF_PASS_S[batch, threads]
        self.x = rng.normal(size=(batch, SEQ, D))
        self.wqkv = [rng.normal(size=(D, D)) / 8.0 for _ in range(4)]
        self.w1 = rng.normal(size=(D, HIDDEN)) / 8.0
        self.w2 = rng.normal(size=(HIDDEN, D)) / 11.0
        self.cores = [rng.normal(size=(1, 8, 4)), rng.normal(size=(4, 8, 4)),
                      rng.normal(size=(4, 16, 1))]
        self.sink = 0.0
        self.one_pass()  # first-call costs stay out of every timed pass

    def passes_for(self, seconds: float) -> int:
        """Passes in a block that lasts about ``seconds`` on the reference machine."""
        return max(1, round(seconds / self.ref_s))

    def one_pass(self) -> None:
        b, hd = self.batch, D // HEADS
        x = self.x
        mu = x.mean(axis=-1, keepdims=True)
        h = (x - mu) / np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        q, k, v = ((h @ w).reshape(b, SEQ, HEADS, hd).transpose(0, 2, 1, 3)
                   for w in self.wqkv[:3])
        s = q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        a = e / e.sum(axis=-1, keepdims=True)
        o = (a @ v).transpose(0, 2, 1, 3).reshape(b, SEQ, D) @ self.wqkv[3]
        mid = np.maximum((x + o) @ self.w1, 0.0)
        y = mid @ self.w2
        # A backward-shaped sweep: transposed products and masked grads.
        g_mid = (y @ self.w2.T) * (mid > 0)
        g_w1 = np.einsum("bsi,bsj->ij", x + o, g_mid)
        g_a = (y.reshape(b, SEQ, HEADS, hd).transpose(0, 2, 1, 3)
               @ v.transpose(0, 1, 3, 2))
        g_s = a * (g_a - (g_a * a).sum(axis=-1, keepdims=True))
        t = np.einsum("akb,bjc->akjc", self.cores[0], self.cores[1])
        t = np.einsum("akjb,bic->akjic", t, self.cores[2])
        nodes = [(i, t.shape, {"grad": None}) for i in range(40)]
        self.sink += float(g_w1[0, 0] + g_s[0, 0, 0, 0]) + len(nodes)

    def _loop(self, passes: int) -> None:
        for _ in range(passes):
            self.one_pass()

    def pass_s(self, passes: int) -> float:
        """Seconds per pass over ``passes`` passes run now on each thread."""
        t0 = time.perf_counter()
        if self.threads == 1:
            self._loop(passes)
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                list(pool.map(self._loop, [passes] * self.threads))
        return (time.perf_counter() - t0) / passes
