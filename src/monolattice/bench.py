"""Timing harness for the interpolation kernels.

Times full single-point evaluation (cell lookup, weights, dot product) per
kind over random points on an all-2 lattice of each dimension, reporting
nanoseconds per evaluation.  Each measurement is the minimum over a few
repeats of a batch sized to a target wall time, the usual guard against
scheduler noise.
"""

from __future__ import annotations

import math
import timeit
from dataclasses import dataclass

import numpy as np

from .interpolation import InterpolationKind, evaluate
from .lattice import LatticeShape

DEFAULT_KINDS = (InterpolationKind.MULTILINEAR, InterpolationKind.SIMPLEX)


@dataclass(frozen=True)
class BenchRow:
    d: int
    kind: str
    ns_per_op: float


def bench_interpolation(
    min_d: int = 4,
    max_d: int = 13,
    kinds=DEFAULT_KINDS,
    target_time: float = 0.05,
    repeats: int = 3,
    points: int = 32,
    seed: int = 0,
) -> list[BenchRow]:
    if min_d < 1 or max_d < min_d:
        raise ValueError("need 1 <= min_d <= max_d")
    rows = []
    rng = np.random.default_rng(seed)
    for d in range(min_d, max_d + 1):
        shape = LatticeShape([2] * d)
        theta = rng.random(shape.num_parameters).tolist()
        pts = [row.tolist() for row in rng.random((points, d))]
        for kind in kinds:
            kind = InterpolationKind(kind)

            def run(theta=theta, shape=shape, pts=pts, kind=kind):
                for x in pts:
                    evaluate(theta, shape, x, kind)

            timer = timeit.Timer(run)
            once = timer.timeit(number=1)  # also warms caches
            number = max(1, math.ceil(target_time / max(once, 1e-9)))
            best = min(timer.repeat(repeat=repeats, number=number))
            rows.append(BenchRow(d, kind.value, best / (number * points) * 1e9))
    return rows


def format_csv(rows: list[BenchRow]) -> str:
    lines = ["d,kind,ns_per_op"]
    for r in rows:
        lines.append(f"{r.d},{r.kind},{r.ns_per_op:.1f}")
    return "\n".join(lines) + "\n"
