"""Residual-resampling bootstrap bands for impulse responses.

Each replication resamples the estimated structural residuals equation by
equation (independently by default, jointly by row behind a flag), holds the
first observations fixed, simulates the stacked system forward over the
original sample span, re-estimates the model on the simulated panel, and
recomputes the impulse responses.  Everything it needs comes with the
estimate: the residuals, the initial rows and the spec.  Replications run in
blocks.  One time loop simulates two blocks' panels in one time-major
buffer, reused by every loop: each replication's draws are written into the
rows after the initial ones and become the shifted shocks there, in place.
Each block is then re-estimated in one call
(:func:`~newsvar.svar.estimate_svar_stack`, which bounds its own memory by
fitting the chains slice by slice) and its responses computed by batched
recursions, in sub-slices whose moving-average arrays stay within the
block's bytes.  Bands are pointwise empirical quantiles across replications.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .dynamics import build_stacked, stacked_responses
from .errors import BootstrapError, ModelSpecError
from .svar import estimate_svar_stack, stack_slice, SvarEstimate
from .timeseries import write_json

__all__ = ["BootstrapBands", "bootstrap_irf", "write_bands_metadata"]

# Bytes one block's simulated panels may take; a block holds whole estimator
# slices (:func:`~newsvar.svar.stack_slice`), at least one.  The panel buffer
# holds two blocks, so one time loop simulates both, and each block's
# responses are computed in sub-slices whose moving-average arrays take at
# most these bytes.  Long blocks amortize the fixed cost of each estimate and
# response call, and long time loops the per-step cost of the simulation.
BLOCK_PANEL_BYTES = 1 << 20
# Bytes of resampling indices gathered in one ``np.take``.
_DRAW_GROUP_BYTES = 64 << 10

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding step (pcg64.h), which ``np.random.default_rng(s)`` runs
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class BootstrapBands:
    """Pointwise quantile bands per shock, variable, and horizon.

    Same-seed runs are bit-identical; replication r draws from a generator
    seeded ``seed + r``, so results do not depend on evaluation order.
    """

    replications: int
    requested: int
    dropped: int
    quantiles: tuple[float, float]
    seed: int
    horizon: int
    variables: tuple[str, ...]
    shocks: tuple[str, ...]
    lower: Mapping[str, np.ndarray]
    upper: Mapping[str, np.ndarray]
    joint_resampling: bool


def bootstrap_irf(
    est: SvarEstimate,
    horizon: int = 24,
    replications: int = 1000,
    quantiles: tuple[float, float] = (0.05, 0.95),
    seed: int = 0,
    joint_resampling: bool = False,
    shocked_control: str | None = None,
) -> BootstrapBands:
    """Bootstrap confidence bands for all shock responses.

    Args:
        est: point estimate fit from data; its residuals, initial rows and
            matrices seed the scheme, and replications are re-estimated with
            its spec.
        horizon: IRF horizon for the bands.
        replications: number of bootstrap samples.
        quantiles: (lower, upper) band quantiles; the point IRF need not lie
            inside the band.
        seed: base RNG seed; replication r uses ``seed + r``.
        joint_resampling: resample whole residual rows instead of each
            equation independently, preserving any cross-equation
            correlation of the estimated residuals.
        shocked_control: which control carries the global shock.

    Raises:
        ModelSpecError: the estimate carries no residuals or initial rows.
        BootstrapError: more than 5 per cent of replications failed to
            re-estimate (also a RuntimeError).
    """
    if not 0 <= quantiles[0] < quantiles[1] <= 1:
        raise ValueError("quantiles must satisfy 0 <= lo < hi <= 1")
    if replications < 1:
        raise ValueError("replications must be positive")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    U = est.residuals
    if U is None or est.initial is None:
        raise ModelSpecError("estimate carries no residuals; re-estimate from data")
    # with glibc, freeing this untouched 2 MiB buffer lifts malloc's mmap
    # threshold to its size and its trim threshold to twice that, so each
    # block's workspace stays mapped between blocks instead of being returned
    # to the system and faulted back in every block.  At 1 MiB of panels that
    # workspace's largest arrays, the exogenous designs with their QR copies
    # and the moving-average arrays of the responses, take about 1 MB each,
    # and it peaks at about 2.6 MB on the benchmark's systems
    np.empty(2 * BLOCK_PANEL_BYTES, dtype=np.uint8)
    spec = est.spec
    # one-step form: z_t = c + Phi1 z_{t-1} + Phi2 z_{t-2} + impact u_t
    system = build_stacked(est)
    n_state = len(spec.columns)
    n_obs = U.shape[0]
    M = spec.max_lag
    N = n_obs + M
    B1T, B2T, impact_T = system.Phi1.T, system.Phi2.T, system.impact.T
    shocks, shock_cols = spec.shocks(shocked_control)
    m = est.m
    per_slice = stack_slice(spec, n_obs)
    block = min(replications, per_slice * max(1, BLOCK_PANEL_BYTES // (8 * N * n_state * per_slice)))
    # time-major panels, so each step updates one contiguous (rows, n_state)
    # slab.  One time loop simulates two blocks; a step on one row takes
    # another BLAS path than on two and moves bits, so a loop of one
    # replication simulates a spare copy of it beside it
    sim = np.empty((N, max(2, min(2 * block, replications)), n_state))
    sim[:M] = est.initial[:, None, :]
    # each step's lag products, z_{t-2} Phi2' and z_{t-1} Phi1', from one matmul
    lag_T = np.stack([B2T, B1T])[2 - M :]
    step = np.empty((M, *sim.shape[1:]))
    # time rows per in-place impact product, whose input numpy copies first:
    # the copy holds as many values as one estimator slice's panels
    chunk = max(1, N * per_slice // sim.shape[1])
    rng = np.random.default_rng(seed)  # reseeded for every replication
    # replications per response call, whose (rows, H+1, n, n) moving-average
    # array stays within a block's panel bytes, however long the horizon
    response_rows = max(1, BLOCK_PANEL_BYTES // (8 * (horizon + 1) * n_state * n_state))

    draws = np.empty((replications, len(shocks), horizon + 1, m))
    dropped = 0
    kept = 0
    for first in range(0, replications, 2 * block):
        width = min(2 * block, replications - first)
        _resample(U, seed + first, sim[M:, :width], joint_resampling, rng)
        S = max(width, 2)
        if width == 1:
            sim[M:, 1] = sim[M:, 0]
        panels, product = sim[:, :S], step[:, :S]
        for first_row in range(M, N, chunk):
            # the draws become the shifted shocks c + impact u_t in place
            u = panels[first_row : first_row + chunk]
            np.matmul(u, impact_T, out=u)
            u += system.c
            for t in range(first_row, first_row + len(u)):
                np.matmul(panels[t - M : t], lag_T, out=product)
                panels[t] += product[-1]
                if M >= 2:
                    panels[t] += product[0]
        for start in range(0, width, block):
            B = min(block, width - start)
            stack = estimate_svar_stack(
                spec, sim[:, start : start + B].transpose(1, 0, 2), controls_var1=est.controls_var1
            )
            for _ in range(int(np.count_nonzero(~stack.ok))):
                dropped += 1
                if dropped > 0.05 * replications:
                    raise BootstrapError(
                        f"bootstrap aborted: {dropped} of {replications} replications "
                        "failed to re-estimate"
                    )
            good = stack.select(stack.ok)
            for a in range(0, good.ok.size, response_rows):
                part = good.select(slice(a, a + response_rows))
                draws[kept : kept + part.ok.size] = stacked_responses(build_stacked(part), horizon, shock_cols, m)
                kept += part.ok.size

    lower, upper = _quantiles(draws[:kept], list(quantiles))
    return BootstrapBands(
        replications=kept,
        requested=replications,
        dropped=dropped,
        quantiles=quantiles,
        seed=seed,
        horizon=horizon,
        variables=est.variables,
        shocks=shocks,
        lower={s: lower[i] for i, s in enumerate(shocks)},
        upper={s: upper[i] for i, s in enumerate(shocks)},
        joint_resampling=joint_resampling,
    )


def _resample(U: np.ndarray, first_seed: int, out: np.ndarray, joint: bool, rng: np.random.Generator) -> None:
    """Write replication i's resampled residuals into ``out[:, i]``, drawn by
    ``rng`` set to the state ``np.random.default_rng(first_seed + i)``
    starts from: the same stream, bit for bit, from one generator."""
    n_obs, n_state = U.shape
    width = out.shape[1]
    n_draws = n_obs if joint else U.size
    if not joint:
        # a group of replications' draws is gathered in one take from the
        # equation-major residuals, where draw e * n_obs + t picks equation e's
        columns = U.T.flatten()
        offsets = np.repeat(np.arange(0, n_draws, n_obs), n_obs)
        picks = np.empty((min(width, max(1, _DRAW_GROUP_BYTES // (8 * n_draws))), n_draws), dtype=np.int64)
    for i, (state, inc) in enumerate(_pcg64_states(first_seed, width)):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        # one flat call draws the same stream as one call per equation in turn
        drawn = rng.integers(0, n_obs, n_draws)
        if joint:
            out[:, i] = U[drawn]
            continue
        g = i % len(picks)
        np.add(drawn, offsets, out=picks[g])
        if g == len(picks) - 1 or i == width - 1:
            taken = np.take(columns, picks[: g + 1]).reshape(g + 1, n_state, n_obs)
            out[:, i - g : i + 1] = taken.transpose(2, 0, 1)


def _hash_constants(init: int, mult: int):
    """The constants of SeedSequence's hash in the order it uses them; they
    do not depend on the data."""
    h = init
    while True:
        following = h * mult & _MASK32
        yield np.uint32(h), np.uint32(following)
        h = following


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    before, after = next(constants)
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> 16)


def _pcg64_states(first: int, count: int) -> Iterator[tuple[int, int]]:
    """PCG64's ``(state, inc)`` in ``np.random.default_rng(s)`` for the
    seeds ``s = first .. first + count - 1``, bit for bit: numpy's
    SeedSequence hash on uint32 arrays with one lane per seed, then PCG64's
    seeding step in Python ints, one seed at a time.  A seed's entropy is
    its 32-bit words, least significant first.  The pool of four words pads
    a shorter seed with zeros, which hash as its missing words would, and
    the words beyond four are mixed in only for the seeds that have them."""
    r = np.arange(count, dtype=np.uint64)
    low = r + np.uint64(first & (2**64 - 1))  # the seeds' low 64 bits, wrapped
    carry = low < r  # the seeds whose bits above 64 are one more than first's
    tops = (first >> 64, (first >> 64) + 1)
    lengths = [2 + (top.bit_length() + 31) // 32 for top in tops]
    words = [(low & np.uint64(_MASK32)).astype(np.uint32), (low >> np.uint64(32)).astype(np.uint32)]
    for j in range(lengths[1] - 2):
        without, with_carry = (np.uint32(top >> 32 * j & _MASK32) for top in tops)
        words.append(np.where(carry, with_carry, without))
    words += [np.zeros(count, dtype=np.uint32)] * (4 - len(words))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in words[:4]]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = _mix(pool[target], _hashmix(pool[source], constants))
    length = np.where(carry, *lengths[::-1])
    for source in range(4, len(words)):
        for target in range(4):
            mixed = _mix(pool[target], _hashmix(words[source], constants))
            pool[target] = np.where(length > source, mixed, pool[target])
    # generate_state(4, np.uint64): eight words cycled from the pool, read as
    # little-endian pairs (seed high, seed low, sequence high, sequence low);
    # laid out so that each seed's 32 bytes are its seed and sequence as
    # little-endian 128-bit integers, which keeps one Python int per number
    constants = _hash_constants(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % 4], constants) for i in range(8)]
    raw = np.stack([out[i ^ 2] for i in range(8)], axis=1).astype("<u4").tobytes()
    for at in range(0, len(raw), 32):
        # srandom: inc = 2 sequence + 1, state = ((0 * mult + inc) + seed) * mult + inc
        inc = (int.from_bytes(raw[at + 16 : at + 32], "little") << 1 | 1) & _MASK128
        yield (int.from_bytes(raw[at : at + 16], "little") + inc) * _PCG_MULT + inc & _MASK128, inc


def _quantiles(x: np.ndarray, qs: list[float]) -> np.ndarray:
    """``np.quantile(x, qs, axis=0, overwrite_input=True)`` bit for bit (linear
    method), without the ``numpy.ma`` import numpy's version makes; one sort
    of ``x`` along its first axis, in place, serves every quantile.  The sort
    puts the order statistics a partition would at every index, NaN last, up
    to which of two equal values, such as -0.0 and 0.0, comes first."""
    n = x.shape[0]
    points = []
    for q in qs:
        v = (n - 1) * q
        i = int(v) if v < n - 1 else -1  # as numpy, whose weight at the top is v + 1
        points.append((i, i + 1 if i >= 0 else -1, v - i))
    x.sort(axis=0)
    out = np.stack([
        x[k] - (x[k] - x[i]) * (1 - t) if t >= 0.5 else x[i] + (x[k] - x[i]) * t
        for i, k, t in points
    ])
    np.copyto(out, x[-1], where=np.isnan(x[-1]))  # NaN sorts last and marks its slice
    return out


def write_bands_metadata(bands: BootstrapBands, path: str | Path) -> None:
    payload = {
        "replications": bands.replications,
        "requested": bands.requested,
        "dropped": bands.dropped,
        "quantiles": list(bands.quantiles),
        "seed": bands.seed,
        "horizon": bands.horizon,
        "joint_resampling": bands.joint_resampling,
        "shocks": list(bands.shocks),
        "variables": list(bands.variables),
        "note": "band coverage level is configuration; quantiles above are the defaults",
    }
    write_json(payload, path)
