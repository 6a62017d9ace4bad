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
Each step has one shape, that of numpy's own loop: an effect starts at 0.0
over its subset's whole grid and adds each term's marginal broadcast to
that grid, and each run is summed on its own.

Only ``stats.anova`` imports this module, when it runs: compiling it would
raise the peak memory of every process that imports effattr.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from itertools import chain, repeat
from operator import add, mul, sub, truediv
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


def run_sums(xs: list[float], size: int) -> list[float]:
    """``pairwise`` of each run of ``size`` consecutive values."""
    return [pairwise(xs, b, b + size) for b in range(0, len(xs), size)]


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
        if i not in kept:
            xs = list(chain.from_iterable(map(mul, chunks(xs, block), repeat(dims[i]))))
        block *= dims[i]
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
    first, as numpy took it: each cell starts at 0.0 and adds ``sign *
    marginal`` of each subset of the subset, spread to its grid, smaller
    subsets first."""
    for order in range(1, len(factors) + 1):
        for subset in itertools.combinations(factors, order):
            grid = [dims[i] for i in subset]
            cells = [0.0] * math.prod(grid)
            for t_order in range(order + 1):
                step = add if (order - t_order) % 2 == 0 else sub
                for t_subset in itertools.combinations(subset, t_order):
                    axes = [subset.index(i) for i in t_subset]
                    cells = list(map(step, cells, spread(marginals[t_subset], grid, axes)))
            yield subset, cells


def squares(xs: Iterable[float]) -> list[float]:
    """``x * x`` of each value, as numpy's ``x ** 2``."""
    xs = list(xs)
    return list(map(mul, xs, xs))
