"""Correlation-threshold clustering of component models.

Models whose historical log scores co-move get grouped: a model joins the
first existing cluster whose every member correlates with it above the
threshold, otherwise it founds a new cluster. The pass runs in ascending
model-id order, so results are deterministic for a given matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = ["Clustering", "cluster_models"]


@dataclass(frozen=True)
class Clustering:
    """A partition of model ids into clusters plus the threshold used."""

    clusters: tuple[tuple[str, ...], ...]
    phi: float

    def __post_init__(self) -> None:
        if not all(self.clusters):
            raise ValueError("empty cluster")
        members = [m for cluster in self.clusters for m in cluster]
        if len(set(members)) < len(members):
            overlap = [m for m, n in Counter(members).items() if n > 1]
            raise ValueError(f"models in more than one cluster: {sorted(overlap)}")

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def cluster_models(corr: np.ndarray, phi: float, model_ids) -> Clustering:
    """Greedy threshold partition of models given their correlation matrix,
    whose rows and columns follow ``model_ids``.

    Models are visited in ascending id order; each joins the first cluster
    (by creation order) in which it correlates above ``phi`` with every
    member, else it starts a new one.
    """
    model_ids = list(model_ids)
    n = len(model_ids)
    corr = np.asarray(corr, dtype=float)
    if corr.shape != (n, n):
        raise ValueError(f"correlation matrix {corr.shape} does not match {n} models")
    if not 0.0 <= phi:
        raise ValueError("phi must be >= 0")
    order = sorted(range(n), key=model_ids.__getitem__)
    ids = [model_ids[k] for k in order]
    links = corr > phi
    if order != list(range(n)):
        links = links[np.ix_(order, order)]
    # Bit b of row a is set when the a-th and b-th models in id order
    # correlate above phi; a cluster's bit mask holds its members. The packed
    # rows are read as one integer and cut into one word per row.
    packed = np.packbits(links, axis=1, bitorder="little")
    width = 8 * packed.shape[1]
    whole, word = int.from_bytes(packed.tobytes(), "little"), (1 << width) - 1
    masks: list[int] = []
    clusters: list[list[str]] = []
    for a in range(n):
        row = (whole >> (a * width)) & word
        for c, mask in enumerate(masks):
            if not mask & ~row:
                masks[c] |= 1 << a
                clusters[c].append(ids[a])
                break
        else:
            masks.append(1 << a)
            clusters.append([ids[a]])
    return Clustering(tuple(map(tuple, clusters)), phi)
