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

Each mechanism draws its winners in one kernel, a function of a block's
height that returns a fresh block of winners, and one loop,
``winner_blocks``, draws them in blocks of drawings, which ``payouts``
prices, uncapped and at each balance cap; ``plsim draw`` prints the payout
of its one drawing. One rule, ``_price``, prices every level: ``payouts``'
blocks, the best and the worst row of ``payout_bounds`` and the one row of
``expected_payout``. A block holds at most ``_BLOCK_WINNERS`` winners, so
its memory is bounded by that budget, not by the prize count. One block's
arrays are alive at a time: ``payouts`` gathers and prices a block, summing
straight into its output, and deletes it before the next block is drawn, so
a call holds 0.49 MiB of winner indices, 0.49 MiB of gathered balances and,
while a block is drawn, the kernel's scratch, at any prize count;
``TestPeakMemory`` in ``tests/test_drawing.py`` bounds that peak.

Both kernels draw their integers in one routine, ``_lemire``: Lemire's
multiply-and-reject on the 32-bit stream of a PCG64 generator, read in bulk
from ``bit_generator.random_raw`` after the half numpy buffers, with the
generator state settled once per block. The random kernel is Floyd's
algorithm (Bentley & Floyd, "A sample of brilliance", CACM 1987) for every n
and k, batched: its winners equal drawing one at a time, and equal numpy's
``Generator.choice(n, k, replace=False, shuffle=False)`` wherever that call
runs Floyd. No ``Generator`` method draws for the engine, so its outputs rest
on PCG64, ``SeedSequence`` and numpy's float operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pareto import _integer, _real, require_pcg64
from .population import AccountPopulation, require_stream_range

MECHANISMS = ("random", "bracketed")

# winners per block of drawings: a block holds _BLOCK_WINNERS // k drawings
# (at least one), so its int64 winner indices and their float64 gather cost
# at most 0.49 MiB each at any prize count k up to 64,000
_BLOCK_WINNERS = 64_000

@dataclass(frozen=True)
class PrizeSchedule:
    """Number of prizes per drawing and prize size as a multiple of balance,
    an integer and a real number, neither a bool, stored as an int and a float."""

    count: int
    multiple: float

    def __post_init__(self):
        # True would draw one prize and label it "Truex100%"
        object.__setattr__(self, "count", _integer(self.count, "prize count"))
        if self.count < 1:
            raise ValueError("a schedule needs at least one prize")
        object.__setattr__(self, "multiple", _real(self.multiple, "prize multiple"))
        if not 0.0 < self.multiple < math.inf:
            raise ValueError(
                f"prize multiple must be finite and positive, got {self.multiple}")

    def label(self) -> str:
        return f"{self.count}x{self.multiple * 100:g}%"


def cap_label(cap: float) -> str:
    """A cap's name in the CSV header, the JSON keys and the progress line."""
    return f"{cap:g}"


def require_caps(caps) -> tuple[float, ...]:
    """The balance caps as floats, refused unless real numbers, finite,
    positive, strictly descending and of distinct labels: ``_price``
    truncates each cap's balances from the previous cap's, in place."""
    caps = tuple(caps)
    for cap in caps:
        # an infinite cap would price nothing and dump as Infinity,
        # which is not JSON
        if not 0.0 < _real(cap, "each cap") < math.inf:
            raise ValueError(f"caps must be finite and positive, got {cap}")
    caps = tuple(float(cap) for cap in caps)
    _require_descending(caps, cap_label, "caps")
    return caps


def _require_descending(levels, label, what: str) -> None:
    """Refuse ``levels`` unless strictly descending and of distinct labels,
    which round monotonically, so that two levels of one label are adjacent."""
    for hi, lo in zip(levels, levels[1:]):
        if hi <= lo:
            raise ValueError(f"{what} must be strictly descending")
        if label(hi) == label(lo):
            raise ValueError(f"{what} {hi!r} and {lo!r} share the label {label(lo)!r}")


def expected_payout(pop: AccountPopulation, sched: PrizeSchedule, caps=()) -> np.ndarray:
    """count * multiple * mean balance, uncapped and then with every balance
    truncated at each of ``caps``, shape (1 + len(caps),); exact for both
    mechanisms because every account is equally likely to win each prize.
    ``caps`` as for ``payouts``.
    """
    require_caps(caps)
    sums = np.empty(1 + len(caps))
    _price(np.array(pop.balances), caps, sums)  # a copy, which _price truncates
    return sched.count * sched.multiple * (sums / pop.count)


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
    require_stream_range(pop.count)
    if sched.count > pop.count:
        raise ValueError(
            f"cannot draw {sched.count} distinct winners from {pop.count} accounts"
        )


def winner_blocks(pop: AccountPopulation, sched: PrizeSchedule, mechanism: str,
                  rng: np.random.Generator, draws: int):
    """Winners of ``draws`` drawings, yielded as ``(first row, block)`` with
    one row per drawing and at most ``_BLOCK_WINNERS`` winners a block, or
    one drawing where ``sched.count`` exceeds that.

    Entries index ``pop.balances`` for the random mechanism and
    ``pop.sorted_balances`` for the bracketed one. Each block is a fresh
    array, which the caller may keep; the arguments are checked at the call.
    """
    _check(pop, sched, mechanism)
    require_pcg64(rng)
    kernel = _random_rows if mechanism == "random" else _bracketed_rows
    rows = kernel(rng, pop.count, sched.count)
    height = max(1, _BLOCK_WINNERS // sched.count)
    return ((lo, rows(min(height, draws - lo))) for lo in range(0, draws, height))


def payouts(pop: AccountPopulation, sched: PrizeSchedule, mechanism: str,
            rng: np.random.Generator, draws: int, caps=()) -> np.ndarray:
    """Payouts of ``draws`` drawings, shape (1 + len(caps), draws).

    Row 0 is uncapped; row i prices the same winners with every balance
    truncated at ``caps[i - 1]``. ``caps`` must be finite, positive and
    strictly descending.
    """
    require_caps(caps)
    blocks = winner_blocks(pop, sched, mechanism, rng, draws)
    won_from = pop.balances if mechanism == "random" else pop.sorted_balances
    out = np.empty((1 + len(caps), draws))
    for lo, block in blocks:
        # the gather is freed when _price returns, the block before the next
        _price(np.take(won_from, block), caps, out[:, lo:lo + len(block)])
        del block
    out *= sched.multiple
    return out


def _price(won: np.ndarray, caps, out: np.ndarray) -> None:
    """Sums of the gathered balances ``won`` along their last axis into
    ``out[0]``, and at each cap into the following rows of ``out``: a row of
    balances prices into a 1-D ``out``, a block of rows into a 2-D one."""
    won.sum(axis=-1, out=out[0, ...])
    # min(min(x, c1), c2) == min(x, c2) for c1 >= c2, so each cap can
    # truncate the previous level's buffer in place
    for row, cap in enumerate(caps, 1):
        np.minimum(won, cap, out=won)
        won.sum(axis=-1, out=out[row, ...])


def _random_rows(rng: np.random.Generator, n: int, k: int):
    """The random kernel: returns ``rows``, where ``rows(m)`` gives the
    winner sets, ``k`` of ``n`` accounts, of the next ``m`` drawings.

    Successive ``rows`` results hold successive drawings of Floyd's
    algorithm. Where numpy runs Floyd in ``rng.choice(n, k, replace=False,
    shuffle=False)`` (``n <= 10_000`` or ``k <= n // 20``), row d equals the
    d-th of successive such calls, and ``rng`` ends in the state they leave
    it in, except at n == k: numpy reads no value for slot 0's one-value
    range, and Lemire reads one."""
    # slot i draws from [0, n - k + i]
    draw = _lemire(rng, np.arange(n - k + 1, n + 1), 2**32 // n)

    def rows(m: int) -> np.ndarray:
        block = draw(m)
        _floyd(block, n)
        return block

    return rows


def _lemire(rng: np.random.Generator, size: np.ndarray, window: int):
    """Lemire's multiply-and-reject, as numpy bounds a uint32 draw: returns
    ``draw``, where ``draw(m)`` gives a fresh (m, k) block, slot i of each
    row drawn from ``[0, size[i])``, from the next values of ``rng``'s 32-bit
    stream, read at most ``window`` values at a time, or one row where k
    exceeds that. A one-value range reads a value too. At ``window`` 2**32 //
    n, for ranges of at most n, a window holds about one rejection, so a
    rejection recomputes little. The tables hold two periods of the sizes (a
    period is k entries, or one where all sizes are equal), so that a window
    of whole periods may start at any slot. A block's rejection scratch
    covers one window or the block, whichever is smaller, and is freed when
    the block is drawn; the accepted raw values are multiplied by their
    sizes once, in the block. Each block reads the generator state once
    before it and writes it once after, so values and state equal numpy's
    own 32-bit reads."""
    bitgen = rng.bit_generator
    size = np.asarray(size, dtype=np.uint64)
    k = size.size
    # range sizes over one period, broadcast over the block's rows, and sizes
    # and Lemire thresholds 2**32 % size over two, broadcast over a window's;
    # the test runs on uint32, where raw * size wraps to the low word
    period = 1 if size.min() == size.max() else k
    sizes = size[:period].copy()
    twice = np.tile(sizes, 2)
    sizes32 = twice.astype(np.uint32)
    reject_below = (2**32 % twice).astype(np.uint32)
    periods = max(1, window // period)  # whole periods a window holds

    def draw(m: int) -> np.ndarray:
        block = np.empty((m, k), dtype=np.int64)
        product = block.view(np.uint64)
        need, accepted = block.size, product.ravel()
        # the rejection test's scratch, for every window of this block
        low = np.empty(min(periods * period, need), dtype=np.uint32)
        rejected = np.empty(low.size, dtype=bool)
        # numpy's buffered half, if any, is the stream's next value
        state = bitgen.state
        raw = np.full(state["has_uint32"], state["uinteger"], dtype=np.uint32)
        pos = cur = 0
        while pos < need:
            if cur == raw.size:
                raw, cur = _halves(bitgen, need - pos), 0
            # a window is (r, width) entries against tables[at:at + width]:
            # whole periods from slot at, or one row of what is left of the
            # read or of the block, shorter than a period; a read may hold
            # one half more than the block needs
            left, at = raw.size - cur, pos % period
            r, width = min(periods, left // period, (need - pos) // period), period
            if not r:
                r, width = 1, min(left, need - pos)
            span, tab = r * width, slice(at, at + width)
            lows = low[:span].reshape(r, width)
            np.multiply(raw[cur:cur + span].reshape(r, width), sizes32[tab], out=lows)
            np.less(lows, reject_below[tab], out=rejected[:span].reshape(r, width))
            first = int(rejected[:span].argmax())
            taken = first if rejected[first] else span
            accepted[pos:pos + taken] = raw[cur:cur + taken]
            pos += taken
            # numpy draws a rejecting slot again from the next raw value
            cur += taken + (taken < span)
        # each accepted draw is the high word of its raw value times its size
        product *= sizes
        product >>= 32
        # a half left over stays buffered; a used one stays behind as uinteger
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = raw.size - cur, int(raw[-1])
        bitgen.state = state
        return block

    return draw


def _floyd(block: np.ndarray, n: int) -> None:
    """Floyd's collision rule on a block of row-wise draws, in place: slot i
    of k takes its top, ``n - k + i``, when its draw is already held, that
    is when it repeats an earlier draw of the row, or equals the top of an
    earlier slot that took its top. Each stage's scratch is freed when it
    returns."""
    k = block.shape[1]
    flat = block.ravel()
    held, at = _repeats(block, n)
    _chains(held, at, flat, n, k)
    took_top = np.flatnonzero(held)
    flat[took_top] = took_top % k + (n - k)


def _repeats(block: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flags, one per draw of the flattened block, of the draws that repeat
    an earlier draw of their row, and the flat positions of the draws at or
    above n - k.

    Repeats are found by sorting each row's keys (draw << shift) | slot;
    uint32 keys sort faster, and uint64 holds those that do not fit."""
    k = block.shape[1]
    shift = k.bit_length()
    held = np.zeros(block.size, dtype=bool)
    key = np.uint32 if n << shift <= 2**32 else np.uint64
    keyed = block.astype(key)
    keyed <<= shift
    keyed |= np.arange(k, dtype=key)
    at = np.flatnonzero(keyed >= (n - k) << shift)  # draws >= n - k, unsorted
    keyed.sort(axis=1)
    keys = keyed.ravel()
    repeat = np.flatnonzero((keys[1:] ^ keys[:-1]) < 1 << shift)
    repeat = repeat[repeat % k != k - 1]  # the last and first key of two rows
    slot = (keys[repeat + 1] & (1 << shift) - 1).astype(np.intp)
    held[repeat - repeat % k + slot] = True
    return held, at


def _chains(held: np.ndarray, at: np.ndarray, flat: np.ndarray, n: int,
            k: int) -> None:
    """Flags, in ``held``, each draw at flat position ``at`` that equals the
    top ``n - k + p`` of an earlier slot p of its row that is held, link by
    link along the chains of such draws."""
    # the slot whose top flat[at] is: the same row, slot flat[at] - (n - k)
    src = flat[at]
    src += at
    src -= at % k
    src -= n - k
    earlier = src < at
    at, src = at[earlier], src[earlier]
    while True:
        more = held[src] & ~held[at]
        if not more.any():
            break
        held[at[more]] = True


def _halves(bitgen: np.random.PCG64, count: int) -> np.ndarray:
    """The next ``count`` values of PCG64's 32-bit stream, and one more when
    ``count`` is odd: each output's two halves, low half first. The caller
    keeps numpy's buffered half (``has_uint32``, ``uinteger``)."""
    return bitgen.random_raw((count + 1) // 2).astype("<u8", copy=False).view("<u4")


def _bracketed_rows(rng: np.random.Generator, n: int, k: int):
    """The bracketed kernel: returns ``rows``, where ``rows(m)`` gives the
    sorted-order positions of one winner per bracket for the next ``m``
    drawings. Successive blocks of offsets into the brackets equal
    successive ``rng.integers(0, sizes, size=(m, k))`` calls and leave
    ``rng`` in their state, except that Lemire reads a value for a
    one-account bracket, where numpy reads none."""
    bounds = bracket_bounds(n, k)
    draw = _lemire(rng, np.diff(bounds), 2**32 // n)

    def rows(m: int) -> np.ndarray:
        block = draw(m)
        block += bounds[:-1]
        return block

    return rows


def payout_bounds(pop: AccountPopulation, sched: PrizeSchedule,
                  mechanism: str, caps=()) -> np.ndarray:
    """Smallest (row 0) and largest (row 1) payout the mechanism can produce
    for this sample, uncapped and then with every balance truncated at each
    of ``caps``, shape (2, 1 + len(caps)); ``caps`` as for ``payouts``.

    The smallest payout's winners are the ``count`` smallest accounts
    (random) or each bracket's smallest (bracketed), the largest's the
    ``count`` largest or each bracket's largest. Capping keeps the balance
    order, so the same accounts bound the payout at any cap, and only their
    balances are truncated.
    """
    require_caps(caps)
    _check(pop, sched, mechanism)
    n, k = pop.count, sched.count
    if mechanism == "random":
        winners = np.array([np.arange(k), np.arange(n - k, n)])
    else:
        bounds = bracket_bounds(n, k)
        winners = np.array([bounds[:-1], bounds[1:] - 1])
    out = np.empty((2, 1 + len(caps)))
    _price(pop.sorted_balances[winners], caps, out.T)
    out *= sched.multiple
    return out
