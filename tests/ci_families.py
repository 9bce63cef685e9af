"""The instance files of the CI smoke step (`.github/workflows/tier1.yml`).

    python tests/ci_families.py [DIR]

writes every family as DIR/<name>.json (DIR defaults to the working
directory).  The smoke step runs `mixwidth` on these files, and
`tests/test_cli.py` loads each of them with both instance loaders.
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np


def _grid(size: int):
    """Exponent text of the point x/size on the grid of reciprocals: 'inf' at 0."""
    return lambda x: "inf" if x == 0 else str(Fraction(size, x))


def inst() -> dict:
    """The README's two-ball instance."""
    return {"m": 4, "k": 4, "n": 4, "q": "2", "sigma": "2",
            "balls": [{"p": "inf", "theta": "2", "nu": 1.0}, {"p": "1", "theta": "2", "nu": 4.0}]}


def coprime() -> dict:
    """Exponents whose reciprocals have pairwise-coprime prime denominators near 10^6."""
    return {"m": 16, "k": 16, "n": 8, "q": "1000003/333334", "sigma": "1000033/250008",
            "balls": [{"p": "1000037/700001", "theta": "1000039/100003", "nu": 1.0},
                      {"p": "1000081/150001", "theta": "1000099/800021", "nu": 2.0},
                      {"p": "1000117/480013", "theta": "1000121/510007", "nu": 0.5},
                      {"p": "1000133/20011", "theta": "1000151/420001", "nu": 1.5},
                      {"p": "1000159/600011", "theta": "1000171/499999", "nu": 1.0}]}


def notriangle() -> dict:
    """Three balls whose one triangle contains neither goal: a sweep with no triple."""
    return {"m": 4, "k": 4, "n": 2, "q": "4", "sigma": "4",
            "balls": [{"p": "1", "theta": "1", "nu": 1.0}, {"p": "2", "theta": "1", "nu": 2.0},
                      {"p": "1", "theta": "2", "nu": 0.5}]}


def notriangle128() -> dict:
    """The same balls at 128x128."""
    return dict(notriangle(), m=128, k=128)


def equal16() -> dict:
    """16 equal-radii balls on the 1/16 grid: triples on the block path."""
    e = _grid(16)
    return {"m": 64, "k": 64, "n": 2000, "q": "16/5", "sigma": "16/7",
            "balls": [{"p": e(3 * i % 17), "theta": e((5 * i + 2) % 17), "nu": 1.0} for i in range(16)]}


def grid31() -> dict:
    """31 balls, one past the size rule: triples on the per-instance grid."""
    e = _grid(64)
    return {"m": 64, "k": 4096, "n": 500, "q": "3", "sigma": "4",
            "balls": [{"p": e(7 * i % 65), "theta": e((11 * i + 3) % 65), "nu": 1.0 + i % 5 / 4}
                      for i in range(31)]}


def grid48() -> dict:
    """48 random radii on the 1/1024 grid: the screen drops most triples."""
    r, e = random.Random(48), _grid(1024)
    return {"m": 64, "k": 4096, "n": 1000, "q": "3", "sigma": "4",
            "balls": [{"p": e(c // 1025), "theta": e(c % 1025), "nu": math.exp(r.uniform(-1.5, 1.5))}
                      for c in r.sample(range(1025 * 1025), 48)]}


def grid48x128() -> dict:
    """The same balls at 128x128."""
    return dict(grid48(), m=128, k=128)


def equal40() -> dict:
    """40 equal radii on the 1/64 grid: the screen drops no triple."""
    r, e = random.Random(40), _grid(64)
    return {"m": 64, "k": 64, "n": 100, "q": "16/5", "sigma": "16/7",
            "balls": [{"p": e(c // 65), "theta": e(c % 65), "nu": 1.0} for c in r.sample(range(65 * 65), 40)]}


def apart48() -> dict:
    """48 random balls with 1/p >= 0.4, beyond the goal (1/3, 1/4), which the hull test skips."""
    r, e = random.Random(7), _grid(1024)
    return {"m": 64, "k": 4096, "n": 1000, "q": "3", "sigma": "4",
            "balls": [{"p": e(410 + c // 1025), "theta": e(c % 1025), "nu": math.exp(r.uniform(-1.5, 1.5))}
                      for c in r.sample(range(615 * 1025), 48)]}


def equal96() -> dict:
    """96 equal radii: no goal stops, so every ball is an anchor."""
    r, e = random.Random(96), _grid(64)
    return {"m": 64, "k": 64, "n": 100, "q": "16/5", "sigma": "16/7",
            "balls": [{"p": e(c // 65), "theta": e(c % 65), "nu": 1.0} for c in r.sample(range(65 * 65), 96)]}


def affine96() -> dict:
    """96 balls whose log radii are affine in (1/p, 1/theta)."""
    r, e = random.Random(97), _grid(64)
    return {"m": 64, "k": 64, "n": 100, "q": "16/5", "sigma": "16/7",
            "balls": [{"p": e(c // 65), "theta": e(c % 65),
                       "nu": math.exp(0.3 + 0.8 * (c // 65) / 64 - 0.5 * (c % 65) / 64)}
                      for c in r.sample(range(65 * 65), 96)]}


def equal96n1500() -> dict:
    return dict(equal96(), n=1500)


def affine96n1500() -> dict:
    return dict(affine96(), n=1500)


def random256() -> dict:
    """256 random balls on the 1/1024 grid."""
    r, e = random.Random(256), _grid(1024)
    return {"m": 64, "k": 4096, "n": 1000, "q": "3", "sigma": "4",
            "balls": [{"p": e(c // 1025), "theta": e(c % 1025), "nu": math.exp(r.uniform(-1.5, 1.5))}
                      for c in r.sample(range(1025 * 1025), 256)]}


def extreme40() -> dict:
    """40 radii near 1e+-300."""
    r, e = random.Random(300), _grid(1024)
    return {"m": 4096, "k": 64, "n": 5000, "q": "3", "sigma": "4",
            "balls": [{"p": e(c // 1025), "theta": e(c % 1025), "nu": 10.0 ** (r.choice((300, -300)) + r.uniform(-2, 2))}
                      for c in r.sample(range(1025 * 1025), 40)]}


def _random_rng0(size: int) -> dict:
    """`size` random balls of `np.random.default_rng(0)` on the 1/1024 grid."""
    g, e = np.random.default_rng(0), _grid(1024)
    c = g.choice(1025 * 1025, size=size, replace=False)
    r = np.exp(g.uniform(-1.5, 1.5, size=size))
    return {"m": 64, "k": 64, "n": 1024, "q": "3", "sigma": "4",
            "balls": [{"p": e(int(x) // 1025), "theta": e(int(x) % 1025), "nu": float(nu)} for x, nu in zip(c, r)]}


def random1024() -> dict:
    """1,024 random balls (seed 0 of tests/test_psi_pipeline.py::test_psi_memory_is_bounded)."""
    return _random_rng0(1024)


def random16384() -> dict:
    """The same generator at 16,384 balls."""
    return _random_rng0(16384)


def bignu() -> dict:
    """An integer radius past the float range."""
    return {"m": 4, "k": 4, "n": 4, "q": "2", "sigma": "2", "balls": [{"p": "1", "theta": "2", "nu": 10**400}]}


def overflow() -> dict:
    """A radius whose report overflows."""
    return {"m": 64, "k": 64, "n": 4, "q": "3", "sigma": "3", "balls": [{"p": "inf", "theta": "inf", "nu": 1e308}]}


def huge() -> dict:
    """Dimensions near 10^30: the default sweep range is past the row limit."""
    return {"m": 10**30, "k": 10**30, "n": 10**30, "q": "2", "sigma": "2",
            "balls": [{"p": "inf", "theta": "2", "nu": 1.0}, {"p": "1", "theta": "2", "nu": 4.0}]}


FAMILIES = {
    f.__name__: f
    for f in (inst, coprime, notriangle, notriangle128, equal16, grid31, grid48, grid48x128, equal40, apart48,
              equal96, affine96, equal96n1500, affine96n1500, random256, extreme40, random1024, random16384,
              bignu, overflow, huge)
}


def write(directory) -> None:
    """Every family as `<name>.json` in `directory`."""
    for name, family in FAMILIES.items():
        with open(Path(directory) / f"{name}.json", "w") as fh:
            json.dump(family(), fh)


if __name__ == "__main__":
    write(sys.argv[1] if len(sys.argv) > 1 else ".")
