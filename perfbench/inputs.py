"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: no generator of the program
is used, so a change to the program's synthetic data cannot move the
inputs. Shares are written as exact decimal strings (integer units at
10^d), the way real registries print them.
"""

from __future__ import annotations

import math

import numpy as np

GROUPS = (("main", "private"), ("main", "state"), ("sme_gem", "private"), ("sme_gem", "state"))
YEARS = tuple(range(1996, 2022))
MAX_HOLDERS = 10
CSV_COLUMNS = (
    ["firm_id", "year", "board", "ownership"]
    + [f"s{i}" for i in range(1, MAX_HOLDERS + 1)]
    + ["meeting_share", "n_meetings"]
)
REGISTRY_DECIMALS = 4
SPI_HOLDERS = tuple(range(2, 12))
SPI_DECIMALS = (2, 3, 4)


def decimal_text(units: int, decimals: int) -> str:
    """Exact decimal string of units / 10**decimals (units >= 0)."""
    scale = 10**decimals
    return f"{units // scale}.{units % scale:0{decimals}d}"


def _holder_units(rng, n: int, top1: int, rest: int) -> list[int]:
    """Top holder plus n-1 co-holders splitting ``rest`` units, each in [1, top1]."""
    parts = rng.dirichlet(np.full(n - 1, 8.0)) * rest
    others = np.clip(np.rint(parts).astype(np.int64), 1, top1)
    return [top1] + sorted((int(u) for u in others), reverse=True)


def registry_rows(seed: int, firms_per_year: int = 100) -> list[list[str]]:
    """Firm-year rows: 4 groups x 26 years x ``firms_per_year`` firms.

    Each group's mean top1 share and co-holder total oscillate over the
    years (so the Fourier fits have a signal); 85% of firms disclose 10
    holders, the rest 2-9. Shares and meeting attendance are printed at
    4 decimals and meeting_share is always filled in.
    """
    rng = np.random.default_rng([seed, 1])
    scale = 10**REGISTRY_DECIMALS
    rows = []
    for board, ownership in GROUPS:
        period = rng.uniform(12.0, 20.0)
        phase1, phase2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        tag = f"{board[0]}{ownership[0]}"
        for year in YEARS:
            t = year - YEARS[0]
            mean1 = 0.278 + 0.04 * math.cos(2.0 * math.pi * t / period + phase1)
            mean2 = 0.293 + 0.04 * math.cos(4.0 * math.pi * t / period + phase2)
            for j in range(firms_per_year):
                n = MAX_HOLDERS if rng.random() < 0.85 else int(rng.integers(2, MAX_HOLDERS))
                top1 = int(np.clip(round(rng.normal(mean1, 0.10) * scale), 200, 7500))
                cap = min(scale - top1 - 20, (n - 1) * top1)
                rest = int(np.clip(round(rng.normal(mean2, 0.12) * scale), 0, cap))
                units = _holder_units(rng, n, top1, rest)
                total = sum(units)
                meeting = int(np.clip(round(rng.normal(0.87, 0.14) * total), 0, scale))
                shares = [decimal_text(u, REGISTRY_DECIMALS) for u in units]
                rows.append(
                    [f"{tag}-{year}-{j:04d}", str(year), board, ownership]
                    + shares
                    + [""] * (MAX_HOLDERS - n)
                    + [decimal_text(meeting, REGISTRY_DECIMALS), str(int(rng.integers(1, 16)))]
                )
    return rows


def registry_csv(rows: list[list[str]]) -> str:
    return "\n".join(",".join(r) for r in [CSV_COLUMNS] + rows) + "\n"


def macro_csv(seed: int) -> str:
    """One ``year,value`` macro series: a random-walk index level."""
    rng = np.random.default_rng([seed, 2])
    level = 2000.0 + np.cumsum(rng.normal(0.0, 300.0, size=len(YEARS)))
    lines = ["year,value"] + [f"{y},{v:.2f}" for y, v in zip(YEARS, level)]
    return "\n".join(lines) + "\n"


def outcome_seeds(seed: int, count: int) -> list[int]:
    """Distinct program seeds for the synthetic-outcome reports."""
    rng = np.random.default_rng([seed, 3])
    return [int(s) for s in rng.choice(2**31 - 1, size=count, replace=False)]


def spi_list(rng, n: int, decimals: int) -> list[str]:
    """One descending share list of n holders at the given decimals, sum <= 1."""
    scale = 10**decimals
    total = rng.uniform(0.3, 1.0) * scale
    units = np.maximum(np.rint(rng.dirichlet(np.ones(n)) * total).astype(np.int64), 1)
    while units.sum() > scale:
        units[int(np.argmax(units))] -= 1
    return [decimal_text(int(u), decimals) for u in sorted(units, reverse=True)]


def spi_chunks(seed: int, count: int, per_stratum: int = 2) -> list[list[list[str]]]:
    """``count`` chunks, each holding ``per_stratum`` lists per (holders, decimals) stratum.

    Every chunk has the same mix of list sizes and precisions (in shuffled
    order), so the work per invocation does not depend on the seed.
    """
    rng = np.random.default_rng([seed, 4])
    strata = [(n, d) for n in SPI_HOLDERS for d in SPI_DECIMALS] * per_stratum
    chunks = []
    for _ in range(count):
        order = rng.permutation(len(strata))
        chunks.append([spi_list(rng, *strata[k]) for k in order])
    return chunks
