"""Workload definitions: seeded instance pools and round schedules.

A workload is a tuple of slots. One round runs one job per slot, in slot
order, and a run executes whole rounds, so every run has the same mix of
job sizes whatever its seed. Each slot draws its job from a fixed pool of
variants; the pool entry is a pure function of (workload, slot, variant),
which lets `record_refs.py` store a reference output for every input a run
can use. The workload seed only picks the variant of each slot in each
round. Generation uses `random.Random` with string seeds, which is stable
across Python and numpy versions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: Rounds listed in a manifest; a run stops at whichever comes first, this
#: or its time budget.
MAX_ROUNDS = 2000

ORACLE_BUDGET = {"restarts": 24, "iters": 30}  # as in tests/test_oracles.py


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple  # (make, spec): make(rng, spec, variant) -> pool entry
    variants: int  # pool size per slot


def _exp_text(u: Fraction) -> str:
    """Exponent text for reciprocal u ('inf' at u = 0)."""
    return "inf" if u == 0 else str(1 / u)


def _balls(rng: random.Random, count: int, den: int, radius: Callable) -> list[dict]:
    """`count` distinct reciprocal points on the 1/den grid, with radii."""
    seen: set = set()
    balls = []
    while len(balls) < count:
        u, v = rng.randint(0, den), rng.randint(0, den)
        if (u, v) in seen:
            continue
        seen.add((u, v))
        balls.append(
            {"p": _exp_text(Fraction(u, den)), "theta": _exp_text(Fraction(v, den)),
             "nu": radius()}
        )
    return balls


def _instance(m: int, k: int, n: int, uq: Fraction, vs: Fraction, balls: list) -> dict:
    return {"m": m, "k": k, "n": n, "q": _exp_text(uq), "sigma": _exp_text(vs),
            "balls": balls}


def _estimate(rng: random.Random, count: int, variant: int) -> dict:
    m, k = rng.choice((64, 4096)), rng.choice((64, 4096))
    uq, vs = Fraction(rng.randint(1, 512), 1024), Fraction(rng.randint(1, 512), 1024)
    balls = _balls(rng, count, 1024, lambda: math.exp(rng.uniform(-1.5, 1.5)))
    return {
        "kind": "cli",
        "check": "estimate",
        "instance": _instance(m, k, rng.randint(1, m * k // 2), uq, vs, balls),
        "args": ["--mode", "estimate", "--format", "json"],
        "items": 1,
    }


SWEEP_ROWS = 16


def _sweep(rng: random.Random, slot: tuple, variant: int) -> dict:
    count, m, k = slot
    uq, vs = Fraction(rng.randint(1, 8), 16), Fraction(rng.randint(1, 8), 16)
    levels = (0.5, 1.0, 2.0)
    if variant % 2:  # every radius equal
        nu = rng.choice(levels)
        balls = _balls(rng, count, 16, lambda: nu)
    else:  # radii repeated from a short list
        balls = _balls(rng, count, 16, lambda: rng.choice(levels))
    n0 = rng.randint(0, m * k // 2 - (SWEEP_ROWS - 1))
    return {
        "kind": "cli",
        "check": "sweep",
        "instance": _instance(m, k, n0, uq, vs, balls),
        "args": ["--mode", "sweep", "--format", "csv",
                 "--n-from", str(n0), "--n-to", str(n0 + SWEEP_ROWS - 1)],
        "items": SWEEP_ROWS,
    }


VERIFY_SUITES = 9


def _verify(rng: random.Random, trials: int, variant: int) -> dict:
    return {
        "kind": "cli",
        "check": "verify",
        "instance": None,
        "args": ["--mode", "verify", "--format", "json",
                 "--seed", str(variant), "--trials", str(trials)],
        "items": trials * VERIFY_SUITES,
    }


# A desk instance of tests/test_oracles.py::test_numeric_oracle_tracks_psi_order,
# as there and under q = sigma = 2, whose Euclidean target takes the
# search's closed-form distance path: (m, k, n, q, sigma, balls).
_TRIPLE = (("32/21", "16", 0.8), ("8", "32/25", 1.2), ("2", "2", 1.5))
ORACLE_CASES = (
    (2, 3, 3, "2", "2", _TRIPLE),
    (2, 3, 3, "16/7", "32/11", _TRIPLE),
)


def _oracle(rng: random.Random, case: tuple, variant: int) -> dict:
    m, k, n, q, sigma, balls = case
    return {
        "kind": "oracle",
        "check": "oracle",
        "instance": {"m": m, "k": k, "n": n, "q": q, "sigma": sigma,
                     "balls": [{"p": p, "theta": t, "nu": nu} for p, t, nu in balls]},
        "oracle": dict(ORACLE_BUDGET, seed=rng.randint(0, 2**31 - 1)),
        "items": 1,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "estimate-large-N",
            # The pair, critical and triple scans of psi do almost all the
            # work here: vectorised pairs, a hull psi or chunked triples
            # must show in items_per_s and peak_rss_mb. The other workload
            # has only small families, so there such changes should not move.
            "estimate JSON on generic families of 48-128 balls: psi's O(N^2) pair "
            "and O(N^3) triple scans dominate",
            # An odd number of slots puts the median job in the middle slot.
            slots=tuple((_estimate, count) for count in (48, 80, 128)),
            variants=12,
        ),
        Workload(
            "small-mixed",
            # Everything but large-N psi, as one round of four job kinds:
            # * 16-row CSV sweeps: psi recomputed for every n on unchanged
            #   geometry, plus the witness (r, l) grid in its linear (64) and
            #   logarithmic (4096) form; grid-aligned exponents and repeated
            #   radii force the exact fallbacks a generic-only fast path skips;
            # * a verify run over ~1150 tiny instances: the fixed per-call
            #   cost of psi, phi, Fraction and the norms; sized to sit near
            #   the sweeps, so the median job of a round is verify or a sweep;
            # * numeric_width_estimate: the only caller of `oracles` and the
            #   small-array `norms` kernels, unreachable from the CLI.
            # Sweeps and verify are sized to about 2 s each, so that a run
            # holds several rounds and its p90 job rests on about 20 jobs.
            # The instances of the oracle calls are fixed because the
            # search's run time depends strongly on them; the seeds vary.
            "degenerate 16-row CSV sweeps, a 1152-trial verify run and desk-scale "
            "numeric_width_estimate calls: small-N, witness, per-call and oracle paths",
            slots=(
                (_sweep, (16, 64, 64)),
                (_sweep, (12, 4096, 64)),
                (_verify, 128),
                *((_oracle, case) for case in ORACLE_CASES),
            ),
            variants=6,
        ),
    )
}


def pool_key(slot_index: int, variant: int) -> str:
    return f"s{slot_index}v{variant}"


def parse_key(key: str) -> tuple[int, int]:
    slot, variant = key[1:].split("v")
    return int(slot), int(variant)


def pool_entry(workload: Workload, slot_index: int, variant: int) -> dict:
    """The job for one (slot, variant); a pure function of its arguments."""
    rng = random.Random(f"{workload.name}/{slot_index}/{variant}")
    make, spec = workload.slots[slot_index]
    return make(rng, spec, variant)


def entry_digest(entry: dict) -> str:
    """Stable digest of a pool entry, stored next to its reference."""
    text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def schedule(workload: Workload, seed: int) -> list[list[str]]:
    """Seeded rounds of pool keys: one key per slot per round. Each slot
    cycles through a seeded permutation of its variants, so a run sees as
    many different inputs as it has rounds."""
    rng = random.Random(f"{workload.name}/seed/{seed}")
    count = workload.variants
    orders = [rng.sample(range(count), count) for _ in workload.slots]
    return [
        [pool_key(s, order[r % count]) for s, order in enumerate(orders)]
        for r in range(MAX_ROUNDS)
    ]
