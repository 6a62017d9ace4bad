"""Float64 sums in numpy's order, in plain Python.

ANOVA tables were first computed with numpy, and they are kept the same to
the bit, so ANOVA takes its sums in the order numpy takes float64 sums with
``keepdims``: each output cell starts at 0.0 and adds, in C order, the
pairwise sum of each contiguous run of the trailing reduced axes. Pairwise
summation (Higham, SISC 1993) is numpy's ``pairwise_sum``: fewer than 8
values one after another from 0.0; up to 128 in 8 lanes, combined as
((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail; more in two halves
split at a multiple of 8. Arrays are flat lists in C order, and each
element-wise step is a C-level pass (``map``, slices, list repetition).

Only ``stats.anova`` imports this module, when it runs: compiling it would
raise the peak memory of every process that imports effattr.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from itertools import chain, repeat
from operator import add, attrgetter, mul, sub, truediv
from typing import Collection, Iterable, Iterator, Sequence

PAIRWISE_BLOCK = 128


def pairwise(xs: list[float], lo: int, hi: int) -> float:
    """numpy's pairwise sum of ``xs[lo:hi]``."""
    n = hi - lo
    if n < 8:
        return reduce(add, xs[lo:hi], 0.0)
    if n <= PAIRWISE_BLOCK:
        tail = hi - n % 8
        lanes = map(xs.__getitem__, map(slice, range(lo, lo + 8), repeat(tail), repeat(8)))
        r0, r1, r2, r3, r4, r5, r6, r7 = map(reduce, repeat(add), lanes)
        return reduce(add, xs[tail:hi], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2 - n // 2 % 8
    return pairwise(xs, lo, lo + half) + pairwise(xs, lo + half, hi)


def run_sums(xs: list[float], size: int, lo: int = 0, n: int | None = None) -> list[float]:
    """``pairwise`` of positions ``lo .. lo + n - 1`` (all by default) of
    each run of ``size`` consecutive values; a few long runs one at a time,
    many short ones a position of every run at a time."""
    if n is None:
        if size == 1:
            return xs
        if len(xs) * 8 <= size * size:
            return [pairwise(xs, b, b + size) for b in range(0, len(xs), size)]
        n = size

    def add_at(acc: list[float], positions: range) -> list[float]:  # each run's value at each position, in turn
        return reduce(lambda acc, p: list(map(add, acc, xs[p::size])), positions, acc)

    if n < 8:
        return add_at([0.0] * (len(xs) // size), range(lo, lo + n))
    if n <= PAIRWISE_BLOCK:
        tail = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = [add_at(xs[j::size], range(j + 8, tail, 8)) for j in range(lo, lo + 8)]
        lanes = map(add, map(add, map(add, r0, r1), map(add, r2, r3)), map(add, map(add, r4, r5), map(add, r6, r7)))
        return add_at(list(lanes), range(tail, lo + n))
    half = n // 2 - n // 2 % 8
    return list(map(add, run_sums(xs, size, lo, half), run_sums(xs, size, lo + half, n - half)))


def offsets(dims: Sequence[int], strides: Sequence[int]) -> list[int]:
    """The flat position of each index of ``dims``, in C order, where axis i steps by ``strides[i]``."""
    positions = [0]
    for d, stride in zip(dims, strides):
        steps = [i * stride for i in range(d)] * len(positions)
        positions = list(map(add, chain.from_iterable(map(repeat, positions, repeat(d))), steps))
    return positions


def spread(xs: list[float], dims: Sequence[int], kept: Collection[int]) -> list[float]:
    """``xs``, a C-order array over the axes ``kept`` of ``dims``, broadcast to all of ``dims``."""
    block = 1  # values per index of the axes after the current one
    for i in reversed(range(len(dims))):
        d = dims[i]
        if i not in kept and d > 1:
            if block == len(xs):
                xs = xs * d
            elif block == 1:
                xs = list(chain.from_iterable(zip(*[xs] * d)))
            else:
                xs = list(chain.from_iterable(map(mul, chunks(xs, block), repeat(d))))
        block *= d
    return xs


def chunks(xs: list[float], width: int) -> list[list[float]]:
    """``xs`` cut into consecutive rows of ``width`` values."""
    return list(map(xs.__getitem__, map(slice, range(0, len(xs), width), range(width, len(xs) + width, width))))


def array_sum(xs: list[float], dims: Sequence[int], axes: Collection[int]) -> list[float]:
    """``np.sum(x, axis=axes, keepdims=True)`` of the C-order array ``xs``
    of shape ``dims``, bit for bit, as a flat list."""
    last = max((i for i, d in enumerate(dims) if d > 1 and i not in axes), default=-1)
    size = math.prod(dims[last + 1 :])
    return fold(run_sums(xs, size), dims[: last + 1], axes)


def fold(runs: list[float], dims: Sequence[int], axes: Collection[int]) -> list[float]:
    """The output of ``array_sum`` from the run sums ``runs`` (over the reduced
    axes after the last kept one) of shape ``dims``: each output cell adds
    its runs, from 0.0, in C order."""
    shape = [(d, i in axes) for i, d in enumerate(dims) if d > 1]  # a length-1 axis neither adds nor splits
    width = 1  # the kept axes trailing: rows of runs that go to as many output cells
    while shape and not shape[-1][1]:
        width *= shape.pop()[0]
    # Put each output row's rows together, in C order, output row by output
    # row; then each output cell adds its column of them from 0.0.
    rows = chunks(runs, width)
    strides = [math.prod(d for d, _ in shape[i + 1 :]) for i in range(len(shape))]
    order = sorted(range(len(shape)), key=lambda i: shape[i][1])  # kept axes first
    rows = list(map(rows.__getitem__, offsets([shape[i][0] for i in order], [strides[i] for i in order])))
    group = math.prod(d for d, reduced in shape if reduced)
    columns = chain.from_iterable(map(zip, *[iter(rows)] * group))
    return list(map(reduce, repeat(add), columns, repeat(0.0)))


def marginal_means(cell_means: list[float], dims: list[int], factors: list[int]) -> dict[tuple[int, ...], list[float]]:
    """``cell_means.mean(axis=<the other axes>, keepdims=True)`` for every
    subset of ``factors`` (axes of ``dims``), grand mean included, each a
    flat list over the subset's factors. The subsets with the same last
    factor share the run sums over the factors after it."""
    n_cells = len(cell_means)
    marginals: dict[tuple[int, ...], list[float]] = {}
    runs: dict[int, list[float]] = {}
    for order in range(0, len(factors) + 1):
        for subset in itertools.combinations(factors, order):
            if order == len(factors):  # no factor left to average over
                marginals[subset] = cell_means
                continue
            last = subset[-1] if subset else -1
            if last not in runs:
                runs[last] = run_sums(cell_means, math.prod(dims[last + 1 :]))
            sums = fold(runs[last], dims[: last + 1], [i for i in range(last + 1) if i not in subset])
            marginals[subset] = list(map(truediv, sums, repeat(n_cells // len(sums))))
    return marginals


def effects(
    marginals: dict[tuple[int, ...], list[float]], dims: list[int], factors: list[int]
) -> Iterator[tuple[tuple[int, ...], list[float]]]:
    """The effect of each subset of ``factors`` over its grid, smaller subsets
    first. numpy adds ``sign * marginal`` of each subset of it to 0.0,
    smaller subsets first; a cell's sums here span only the axes that its
    terms so far have, until they have them all.

    A complex number carries one cell of each half of the subset's first
    factor's levels (the second half padded to as many), so that one complex
    addition does two float additions.
    """
    packed: dict[tuple[int, tuple[int, ...]], list[complex]] = {}  # by (first factor, marginal's subset)
    for order in range(1, len(factors) + 1):
        for subset in itertools.combinations(factors, order):
            first = subset[0]
            d = dims[first]
            half = (d + 1) // 2
            grid = [half] + [dims[i] for i in subset[1:]]
            cells, span = [0j], 0  # the sums so far, over the first ``span`` axes of ``grid``
            for t_order in range(order + 1):
                step = add if (order - t_order) % 2 == 0 else sub
                for t_subset in itertools.combinations(subset, t_order):
                    axes = [subset.index(i) for i in t_subset]
                    if axes and axes[-1] >= span:
                        cells = spread(cells, grid[: axes[-1] + 1], range(span))
                        span = axes[-1] + 1
                    key = (first, t_subset)
                    if key not in packed:
                        single = marginals[t_subset]
                        if t_subset[:1] == (first,):  # cells of the first half with those of the second
                            cut = len(single) // d * half
                            packed[key] = list(map(complex, single[:cut], single[cut:] + [0.0] * (2 * cut - len(single))))
                        else:  # each value the same in both halves
                            packed[key] = list(map(complex, single, single))
                    cells = list(map(step, cells, spread(packed[key], grid[:span], axes)))
            n_second = len(cells) // half * (d - half)
            yield subset, list(map(attrgetter("real"), cells)) + list(map(attrgetter("imag"), cells[:n_second]))


def squares(xs: Iterable[float]) -> list[float]:
    """``x * x`` of each value, as numpy's ``x ** 2``."""
    xs = list(xs)
    return list(map(mul, xs, xs))
