"""Seeded generator of mixed numeric/categorical classification CSVs.

The benchmark's inputs come only from here, keyed by the workload seed, so
the same seed always writes the same bytes. The label depends on three of
the five numeric columns and on both categorical ones, with label noise,
so a bagged tree ensemble learns it well but not perfectly.
"""

from __future__ import annotations

import csv

import numpy as np

TARGET = "label"
NUMERIC = ("x0", "x1", "x2", "x3", "x4")
CATEGORICAL = {"color": ("red", "green", "blue"), "size": ("S", "M", "L", "XL")}


def level_counts() -> list[int | None]:
    """Per feature column in CSV order: None for numeric, else its level count."""
    return [None] * len(NUMERIC) + [len(v) for v in CATEGORICAL.values()]


def write_classification_csv(path, rows: int, seed: int) -> None:
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7001])))
    x = gen.uniform(0.0, 10.0, size=(rows, len(NUMERIC)))
    cats = {name: gen.integers(0, len(levels), size=rows) for name, levels in CATEGORICAL.items()}
    score = (
        1.2 * (x[:, 0] - 5.0)
        + 3.0 * np.sin(x[:, 1])
        - 0.8 * (x[:, 2] - 5.0)
        + np.where(cats["color"] == 0, 2.0, 0.0)
        - np.where(cats["size"] == 3, 2.5, 0.0)
    )
    positive = gen.uniform(size=rows) < 1.0 / (1.0 + np.exp(-score))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(NUMERIC) + list(CATEGORICAL) + [TARGET])
        for r in range(rows):
            cells = [f"{v:.4f}" for v in x[r]]
            cells += [levels[cats[name][r]] for name, levels in CATEGORICAL.items()]
            cells.append("yes" if positive[r] else "no")
            writer.writerow(cells)
