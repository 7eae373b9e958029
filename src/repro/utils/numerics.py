"""Low-level numeric helpers shared by the batched training paths.

The batched tree-training code must sometimes *predict* the value a numpy
reduction will produce without materialising intermediate arrays -- e.g. the
total leaf weight after each hypothetical row of a chunk, which gates split
attempts.  numpy sums floats with pairwise (blocked) summation, so a naive
Python ``sum`` over the same values can differ in the last ulp once the
array is long enough.  :func:`np_pairwise_sum` replicates numpy's pairwise
reduction exactly (same block structure, same accumulation order), so scalar
simulations stay bit-identical to ``ndarray.sum()``.
"""

from __future__ import annotations

#: numpy's pairwise-summation block size (``PW_BLOCKSIZE`` in loops.c).
_PW_BLOCKSIZE = 128


def np_pairwise_sum(values: list[float], start: int = 0, n: int | None = None) -> float:
    """Sum ``values[start:start + n]`` exactly like ``np.sum`` of a float64 array.

    Replicates numpy's pairwise summation: sequential accumulation below 8
    elements, an 8-way unrolled accumulator block up to 128 elements and a
    recursive halving (rounded down to a multiple of 8) beyond that.
    """
    if n is None:
        n = len(values) - start
    if n < 8:
        result = 0.0
        for index in range(start, start + n):
            result += values[index]
        return result
    if n <= _PW_BLOCKSIZE:
        r0 = values[start]
        r1 = values[start + 1]
        r2 = values[start + 2]
        r3 = values[start + 3]
        r4 = values[start + 4]
        r5 = values[start + 5]
        r6 = values[start + 6]
        r7 = values[start + 7]
        index = 8
        while index < n - (n % 8):
            base = start + index
            r0 += values[base]
            r1 += values[base + 1]
            r2 += values[base + 2]
            r3 += values[base + 3]
            r4 += values[base + 4]
            r5 += values[base + 5]
            r6 += values[base + 6]
            r7 += values[base + 7]
            index += 8
        result = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while index < n:
            result += values[start + index]
            index += 1
        return result
    half = n // 2
    half -= half % 8
    return np_pairwise_sum(values, start, half) + np_pairwise_sum(
        values, start + half, n - half
    )
