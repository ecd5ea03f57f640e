"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` seeded from the benchmark's
``--seed`` and returns plain data (DIMACS clauses as integer tuples, or
campaign parameters).  The program under test only ever sees the files and
arguments built from these.
"""
from __future__ import annotations

import random

# analyze-large: two files of this shape.
LARGE_N = 1000
LARGE_M = 200_000

# analyze-batch: files per variable count in one round, random 3-CNF at the
# threshold ratio.  Weighted towards small n because the oracle's cost
# doubles with every variable; the median call falls inside the n=14 block.
BATCH_MIX = {12: 25, 13: 30, 14: 40, 15: 18, 16: 10, 17: 5, 18: 1, 19: 1, 20: 1}
BATCH_RATIO = 4.26
# Padded files declare n = PADDED_BASE + PADDED_STEP * i plus a seeded offset
# below the step, so every file has its own n while their bounds_for costs
# stay close; the 95th-percentile call falls inside this block.
PADDED_FILES = 14
PADDED_BASE = 1200
PADDED_STEP = 5

# screen-campaign: formulas per n in one round, n = 1..12, sizes uniform in
# [0, min(m(n), 5000)] as in the acceptance suite's soundness campaign.
SCREEN_NS = tuple(range(1, 13))
SCREEN_PER_N = 200
SCREEN_SIZE_CAP = 5000


def random_kcnf(rng: random.Random, n: int, m: int, k: int = 3) -> list[tuple[int, ...]]:
    """m clauses, each on k distinct variables with random signs."""
    out = []
    randrange = rng.randrange
    getrandbits = rng.getrandbits
    for _ in range(m):
        vs: list[int] = []
        while len(vs) < k:
            v = randrange(n) + 1
            if v not in vs:
                vs.append(v)
        signs = getrandbits(k)
        out.append(tuple(-v if signs >> i & 1 else v for i, v in enumerate(vs)))
    return out


def saturated_class(variables) -> list[tuple[int, ...]]:
    """All 2^k sign patterns on the given variables."""
    k = len(variables)
    return [
        tuple(-v if bits >> i & 1 else v for i, v in enumerate(variables))
        for bits in range(1 << k)
    ]


def large_planted(rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    """Random 3-CNF with one saturated 3-variable class planted and about 2%
    of the clauses replaced by repeats, tautologies and clauses carrying a
    repeated literal.  The saturated class makes it unsatisfiable."""
    n = LARGE_N
    planted = saturated_class(rng.sample(range(1, n + 1), 3))
    repeats, tautologies, doubled = 2000, 1000, 1000
    base = random_kcnf(rng, n, LARGE_M - len(planted) - repeats - tautologies - doubled)
    extra = []
    for _ in range(repeats):
        c = list(rng.choice(base))
        rng.shuffle(c)
        extra.append(tuple(c))
    for _ in range(tautologies):
        x, y = rng.sample(range(1, n + 1), 2)
        extra.append((x, -x, y if rng.random() < 0.5 else -y))
    for _ in range(doubled):
        x, y = rng.sample(range(1, n + 1), 2)
        lit = x if rng.random() < 0.5 else -x
        extra.append((lit, lit, y if rng.random() < 0.5 else -y))
    clauses = base + planted + extra
    rng.shuffle(clauses)
    return n, clauses


def large_clean(rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    """Plain random 3-CNF; no rule can fire, so the verdict is unknown."""
    return LARGE_N, random_kcnf(rng, LARGE_N, LARGE_M)


def batch_files(rng: random.Random) -> list[tuple[int, list[tuple[int, ...]]]]:
    """The analyze-batch inputs in their analysis order."""
    files = []
    for n, count in BATCH_MIX.items():
        for _ in range(count):
            files.append((n, random_kcnf(rng, n, round(BATCH_RATIO * n))))
    for i in range(PADDED_FILES):
        n = PADDED_BASE + PADDED_STEP * i + rng.randrange(PADDED_STEP)
        used = rng.sample(range(1, n + 1), rng.randint(3, 6))
        clauses = [
            tuple(-v if rng.random() < 0.5 else v for v in rng.sample(used, rng.randint(1, 3)))
            for _ in range(2 * len(used))
        ]
        if i % 2 == 0:
            clauses += saturated_class(rng.sample(used, 2))
        files.append((n, clauses))
    rng.shuffle(files)
    return files


def screen_cases(seed: int) -> list[tuple[int, int, int]]:
    """(n, clause count, sample seed) for every formula of one campaign round.

    Clause counts are uniform over [0, cap] by stratified draws: the i-th of
    k counts falls in the i-th of k equal slices.  The total work of a round
    then hardly depends on the seed.
    """
    cases = []
    for n in SCREEN_NS:
        rng = random.Random(f"{seed}:screen:{n}")
        cap = min(3**n - 1, SCREEN_SIZE_CAP)
        sizes = [int((i + rng.random()) * (cap + 1) / SCREEN_PER_N) for i in range(SCREEN_PER_N)]
        rng.shuffle(sizes)
        cases.extend((n, size, (seed << 32) | (n << 20) | i) for i, size in enumerate(sizes))
    return cases


def dimacs(n: int, clauses, comment: str = "") -> str:
    lines = [f"c {comment}"] if comment else []
    lines.append(f"p cnf {n} {len(clauses)}")
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"
