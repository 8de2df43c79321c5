"""Prize schedules and drawing mechanisms.

Two ways to pick winners for a drawing of ``count`` prizes worth
``multiple`` times the winning balance:

* random: a uniformly random subset of ``count`` accounts, without
              replacement, so no account can win twice in one drawing.
* bracketed: accounts sorted ascending by balance and split into ``count``
              contiguous brackets of (near-)equal size; one winner drawn
              uniformly from each bracket. This caps the worst case (the
              largest accounts can no longer all win together) and raises the
              best case, while every account keeps the same chance of winning
              whenever ``count`` divides the population size.

The total payout of a drawing is ``multiple`` times the sum of the winners'
balances.

Each mechanism draws its winners in one kernel, which ``winner_blocks``
exposes in blocks of drawings. ``payouts`` prices those blocks, uncapped and
at each balance cap, and ``draw`` is a single drawing of the same kernel.

Batched drawings return the same integers as drawing one at a time. The
random kernel replays ``Generator.choice(n, k, replace=False,
shuffle=False)``, which numpy runs as Floyd's algorithm (Bentley & Floyd, "A
sample of brilliance", CACM 1987) for ``n <= 10_000`` or ``k <= n // 20``: slot
i draws from [0, n-k+i] by Lemire's multiply-and-reject on one value of the
bit generator's 32-bit stream, and takes n-k+i instead when an earlier slot
already holds its draw. The replay reads that stream in bulk with
``rng.integers(0, 2**32, dtype=np.uint32)`` and resolves the collisions
vectorised by sorting uint32 keys (draw << bits) | slot, bits the bit length
of k; it calls ``choice`` per drawing where ``n << bits > 2**32``. It relies
on numpy internals that NEP 19 does not promise to keep, so the golden
outputs are tied to the numpy version they were cut with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .population import AccountPopulation

MECHANISMS = ("random", "bracketed")

# rows per slice when batching drawings, keeps gather buffers in cache
_BATCH_ROWS = 128

# the largest prize count on the replay, chosen to cover the paper's k = 1000:
# there it beats one Generator.choice call per drawing 1.5x at n = 100,000 and
# is about even (1.0-1.2x) at n = 4,000 to 10,000 and 2**22; at k = 2048 the
# calls win at n = 8,192 (0.6-0.8x). Above this population Lemire rejections
# (up to n / 2**32 of the raw values) get frequent enough for the calls to win
_REPLAY_MAX_K = 1024
_REPLAY_MAX_N = 2**24


@dataclass(frozen=True)
class PrizeSchedule:
    """Number of prizes per drawing and prize size as a fraction of balance."""

    count: int
    multiple: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("a schedule needs at least one prize")
        if not 0.0 < self.multiple < math.inf:
            raise ValueError(
                f"prize multiple must be finite and positive, got {self.multiple}")

    def label(self) -> str:
        return f"{self.count}x{self.multiple * 100:g}%"


@dataclass(frozen=True)
class DrawOutcome:
    """Winning account indices (distinct) and the resulting total payout."""

    winners: np.ndarray
    payout: float


def expected_payout(pop: AccountPopulation, sched: PrizeSchedule,
                    cap: float = math.inf) -> float:
    """count * multiple * mean balance, with every balance truncated at
    ``cap``; exact for both mechanisms because every account is equally
    likely to win each prize. The capped mean is the one ``apply_cap``
    gives, without building the capped population.
    """
    mean = pop.mean if cap == math.inf else float(np.minimum(pop.balances, cap).mean())
    return sched.count * sched.multiple * mean


def expected_interest(schedules, n_accounts: int) -> float:
    """Aggregate prize cost as a rate: sum of count*multiple over schedules
    divided by the number of accounts."""
    if n_accounts < 1:
        raise ValueError("need at least one account")
    return sum(s.count * s.multiple for s in schedules) / n_accounts


def bracket_bounds(n: int, k: int) -> np.ndarray:
    """Boundaries of ``k`` contiguous brackets over ``n`` sorted accounts.

    Returns k+1 offsets into the ascending sort order. When k does not divide
    n, the first ``n % k`` brackets take one extra account, keeping all sizes
    within one of each other.
    """
    if k < 1 or k > n:
        raise ValueError(f"cannot split {n} accounts into {k} brackets")
    base, rem = divmod(n, k)
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:rem] += 1
    return np.concatenate(([0], np.cumsum(sizes)))


def _check(pop: AccountPopulation, sched: PrizeSchedule, mechanism: str):
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}, expected one of {MECHANISMS}")
    if sched.count > pop.count:
        raise ValueError(
            f"cannot draw {sched.count} distinct winners from {pop.count} accounts"
        )


def winner_blocks(pop: AccountPopulation, sched: PrizeSchedule, mechanism: str,
                  rng: np.random.Generator, draws: int):
    """Winners of ``draws`` drawings, yielded as ``(first row, block)`` with
    at most ``_BATCH_ROWS`` drawings a block and one row per drawing.

    Entries index ``pop.balances`` for the random mechanism and
    ``pop.sorted_balances()`` for the bracketed one.
    """
    _check(pop, sched, mechanism)
    kernel = _random_rows if mechanism == "random" else _bracketed_rows
    starts = range(0, draws, _BATCH_ROWS)
    heights = (min(_BATCH_ROWS, draws - lo) for lo in starts)
    return zip(starts, kernel(rng, pop.count, sched.count, heights))


def payouts(pop: AccountPopulation, sched: PrizeSchedule, mechanism: str,
            rng: np.random.Generator, draws: int, caps=()) -> np.ndarray:
    """Payouts of ``draws`` drawings, shape (1 + len(caps), draws).

    Row 0 is uncapped; row i prices the same winners with every balance
    truncated at ``caps[i - 1]``. ``caps`` must be descending.
    """
    blocks = winner_blocks(pop, sched, mechanism, rng, draws)
    won_from = pop.balances if mechanism == "random" else pop.sorted_balances()
    out = np.empty((1 + len(caps), draws))
    for lo, block in blocks:
        won = won_from[block]
        out[0, lo:lo + len(block)] = won.sum(axis=1)
        # min(min(x, c1), c2) == min(x, c2) for c1 >= c2, so each cap can
        # truncate the previous level's buffer in place
        for row, cap in enumerate(caps, 1):
            np.minimum(won, cap, out=won)
            out[row, lo:lo + len(block)] = won.sum(axis=1)
    return out * sched.multiple


def draw(pop: AccountPopulation, sched: PrizeSchedule, mechanism: str,
         rng: np.random.Generator) -> DrawOutcome:
    """One drawing: the first and only row of ``winner_blocks``."""
    (_, block), = winner_blocks(pop, sched, mechanism, rng, 1)
    winners = block[0] if mechanism == "random" else pop.sort_order()[block[0]]
    return DrawOutcome(winners=winners,
                       payout=float(pop.balances[winners].sum() * sched.multiple))


def _random_rows(rng: np.random.Generator, n: int, k: int, heights):
    """The random kernel: for each ``m <= _BATCH_ROWS`` in ``heights``, yields
    the winner sets, ``k`` of ``n`` accounts, of the next ``m`` drawings.

    Row d of the blocks equals the d-th of successive calls of
    ``rng.choice(n, k, replace=False, shuffle=False)``, and ``rng`` ends in
    the state those calls leave it in. Where numpy does not use Floyd's
    algorithm, or the replay is slower, the kernel makes those calls itself.
    """
    floyd = n <= 10_000 or k <= n // 20
    # the replay sorts its collision keys (draw << shift) | slot as uint32;
    # where they do not fit, int64 keys made it slower than the calls
    shift = k.bit_length()
    # the calls also win on dense drawings (n < 4k), whose slots often collide
    if (not floyd or k > _REPLAY_MAX_K or n > _REPLAY_MAX_N or n < 4 * k
            or n << shift > 2**32):
        for m in heights:
            yield np.array([rng.choice(n, size=k, replace=False, shuffle=False)
                            for _ in range(m)])
        return

    top = np.arange(n - k, n, dtype=np.int64)  # slot i draws from [0, top[i]]
    size = top.astype(np.uint64) + 1
    # range sizes and Lemire thresholds 2**32 % size are computed per slot,
    # then tiled to one entry per slot of a full block
    sizes = np.tile(size, _BATCH_ROWS)
    reject_below = np.tile(np.uint64(2**32) % size, _BATCH_ROWS)
    # about one rejection per window, so a rejection recomputes little
    window = 2**32 // n
    # a generator: each block's temporaries live until the next block's replace
    # them; freed per block, they made later kernels fault in fresh pages
    for m in heights:
        need = m * k
        block = np.empty((m, k), dtype=np.int64)
        flat = block.ravel()
        raw = rng.integers(0, 2**32, size=need, dtype=np.uint32)
        pos = cur = 0
        while pos < need:
            if cur == raw.size:
                raw, cur = rng.integers(0, 2**32, size=need - pos, dtype=np.uint32), 0
            span = min(raw.size - cur, window)
            prod = raw[cur:cur + span] * sizes[pos:pos + span]
            rejected = np.flatnonzero((prod & 0xFFFFFFFF) < reject_below[pos:pos + span])
            taken = int(rejected[0]) if rejected.size else span
            flat[pos:pos + taken] = prod[:taken] >> 32
            pos += taken
            # numpy draws a rejecting slot again from the next raw value
            cur += taken + (rejected.size > 0)

        # Floyd: slot i takes top[i] when its draw is already held, that is
        # when it repeats an earlier draw of the row, or equals top[p] for an
        # earlier slot p that took top[p]
        held = np.zeros(m * k, dtype=bool)
        keyed = (block.astype(np.uint32) << shift) | np.arange(k, dtype=np.uint32)
        keyed.sort(axis=1)
        repeat = np.flatnonzero((keyed[:, 1:] ^ keyed[:, :-1]) < 1 << shift)
        r, c = np.divmod(repeat, k - 1)
        held[r * k + (keyed[r, c + 1] & (1 << shift) - 1)] = True
        at = np.flatnonzero(flat >= n - k)
        src = at - at % k + flat[at] - (n - k)  # where top[flat[at]] would sit
        at, src = at[src < at], src[src < at]
        while True:
            more = held[src] & ~held[at]
            if not more.any():
                break
            held[at[more]] = True
        np.copyto(block, top, where=held.reshape(m, k))
        yield block


def _bracketed_rows(rng: np.random.Generator, n: int, k: int, heights):
    """The bracketed kernel: yields the sorted-order positions of one winner
    per bracket for the next ``m`` drawings, for each ``m`` in ``heights``."""
    bounds = bracket_bounds(n, k)
    # equal brackets: a scalar bound draws the same integers as the array of
    # sizes, and numpy draws it faster
    sizes = n // k if n % k == 0 else np.diff(bounds)
    for m in heights:
        yield bounds[:-1] + rng.integers(0, sizes, size=(m, k))


def _extremes(pop: AccountPopulation, sched: PrizeSchedule,
              mechanism: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-order positions of the winners of the smallest and of the
    largest payout: the ``count`` smallest and largest accounts (random), or
    each bracket's smallest and largest account (bracketed)."""
    _check(pop, sched, mechanism)
    n, k = pop.count, sched.count
    if mechanism == "random":
        return np.arange(k), np.arange(n - k, n)
    bounds = bracket_bounds(n, k)
    return bounds[:-1], bounds[1:] - 1


def worst_payout(pop: AccountPopulation, sched: PrizeSchedule,
                 mechanism: str, cap: float = math.inf) -> float:
    """Largest payout the mechanism can produce for this sample, with every
    balance truncated at ``cap``.

    Capping keeps the balance order, so the same accounts win at any cap,
    and only their balances are truncated.
    """
    _, worst = _extremes(pop, sched, mechanism)
    return float(np.minimum(pop.sorted_balances()[worst], cap).sum() * sched.multiple)


def best_payout(pop: AccountPopulation, sched: PrizeSchedule,
                mechanism: str) -> float:
    """Smallest payout the mechanism can produce for this sample."""
    best, _ = _extremes(pop, sched, mechanism)
    return float(pop.sorted_balances()[best].sum() * sched.multiple)
