"""SHA-256 hashes over several million pointwise values of the package, to
compare two checkouts bit for bit.

    PYTHONPATH=src python tests/pointwise_battery.py

prints, for each kind of input (Python scalars, 0-d arrays, arrays under
5000 points, 5000-point arrays) and then for all of them, a line
"kind: count hash" of the number of values hashed and their hash.  Run it on
each checkout, with the same Python and numpy on the same machine, and
compare the lines: a refactor of the pointwise routes that keeps every value
keeps every hash, and one that changes the values on some kinds of input
alone keeps the others' hashes.  It hashes pdf, log_pdf, survival and cdf of every member's n-fold sum,
theta from 1e-200 to 1e200 and n from 1 to 500, the member's own pdf,
survival and cdf (those of SumSpec(dist, 1)), lindley_reliability,
StandbyModel.exponential's reliability and mixtures whose shapes skip lattice points; each on arrays holding the edges
and NaN, on 37- and 5000-point grids, on a 2-d array, on 0-d arrays and on
Python scalars (floats, ints up to 10**20, a bool and an np.float64).  Each
value is hashed as its 8 bytes, and a scalar call's result type is hashed
beside it.  Not collected by pytest: the hash depends on the platform's libm
and numpy build, so there is no stored value to test.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys

import numpy as np

from lindsum import MEMBERS, DistSpec, ErlangMixture, StandbyModel, SumSpec, lindley_reliability

THETAS = (1e-200, 1e-5, 0.3, 1.0, 2.7, 1e5, 1e200)
NS = (1, 2, 5, 50, 500)
GAPPED = ((0.2, 0.3, 0.5), (1, 3, 4)), ((0.5, 0.25, 0.25), (2, 5, 6)), \
    ((0.4, 0.35, 0.25), (1, 4, 40)), ((0.1, 0.2, 0.3, 0.4), (3, 4, 9, 11))


def inputs(scale: float, signed: bool = True) -> list:
    """The arrays and scalars each route is called on, for a law whose mean is
    scale; without negative points where signed is false."""
    tiny, big = 5e-324, sys.float_info.max
    edges = [0.0, tiny, math.nan, math.inf, big, big / 2.0, scale, 3.0 * scale,
             0.01 * scale, 40.0 * scale]
    if signed:
        edges += [-1.0, -0.0, -math.inf]
    arrays = [
        np.array(edges),
        np.linspace(0.0, 4.0 * scale, 37),
        np.linspace(0.0, 6.0 * scale, 5000),
        np.linspace(0.1 * scale, 3.0 * scale, 12).reshape(3, 4),
        np.array([0.5 * scale, scale, 2.0 * scale]),
    ]
    # np.float64, a bool and an int past 2**53 take the frame's fallback type test
    scalars = [*edges, 0, 3, True, 10**20, np.float64(0.7 * scale), 0.5 * scale, 2.0 * scale,
               math.nextafter(scale, 0.0)]
    return arrays + [np.asarray(v) for v in scalars] + scalars


KINDS = ("Python scalars", "0-d arrays", "arrays under 5000 points", "5000-point arrays", "all")


def kind(x) -> str:
    """Which of KINDS, but all, the input x is."""
    if not isinstance(x, np.ndarray):
        return KINDS[0]
    return KINDS[1] if x.ndim == 0 else KINDS[2] if x.size < 5000 else KINDS[3]


class Battery:
    def __init__(self) -> None:
        self.hashes = {name: hashlib.sha256() for name in KINDS}
        self.counts = dict.fromkeys(KINDS, 0)

    def add(self, route, points: list) -> None:
        for x in points:
            out = route(x)
            data = type(out).__name__.encode()
            if isinstance(out, float):
                data += struct.pack("<d", out)
                count = 1
            else:
                values = np.ascontiguousarray(out, dtype="<f8")
                data += repr(values.shape).encode() + values.tobytes()
                count = values.size
            for name in (kind(x), "all"):
                self.hashes[name].update(data)
                self.counts[name] += count


def main() -> None:
    battery = Battery()
    for member in MEMBERS:
        for theta in THETAS:
            dist = DistSpec(member, theta)
            single = SumSpec(dist, 1)
            points = inputs(single.mean())
            for route in (single.pdf, single.survival, single.cdf):
                battery.add(route, points)
            for n in NS:
                mixture = dist.sum_mixture(n)
                points = inputs(mixture.mean())
                for route in (mixture.pdf, mixture.log_pdf, mixture.survival, mixture.cdf):
                    battery.add(route, points)
    for theta in THETAS:
        for n in NS:
            points = inputs(n / theta, signed=False)
            battery.add(StandbyModel.exponential(theta, n).reliability, points)
            battery.add(lambda t, theta=theta, n=n: lindley_reliability(theta, n, t), points)
    for weights, shapes in GAPPED:
        mixture = ErlangMixture(1.3, weights, shapes)
        points = inputs(mixture.mean())
        for route in (mixture.pdf, mixture.log_pdf, mixture.survival, mixture.cdf):
            battery.add(route, points)
    for name in KINDS:
        print(f"{name}: {battery.counts[name]} {battery.hashes[name].hexdigest()}")


if __name__ == "__main__":
    main()
