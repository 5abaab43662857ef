"""Correlation-threshold clustering of component models.

Models whose historical log scores co-move get grouped: a model joins the
first existing cluster whose every member correlates with it above the
threshold, otherwise it founds a new cluster. The pass runs in ascending
model-id order, so results are deterministic for a given matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Clustering", "cluster_models"]


@dataclass(frozen=True)
class Clustering:
    """A partition of model ids into clusters plus the threshold used."""

    clusters: tuple[tuple[str, ...], ...]
    phi: float

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for members in self.clusters:
            if not members:
                raise ValueError("empty cluster")
            overlap = seen.intersection(members)
            if overlap:
                raise ValueError(f"models in more than one cluster: {sorted(overlap)}")
            seen.update(members)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def members(self) -> frozenset[str]:
        return frozenset(m for cluster in self.clusters for m in cluster)


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
    # Bit b of linked[a] is set when the a-th and b-th models in id order
    # correlate above phi; a cluster's bit mask holds its members.
    rows = np.packbits((corr > phi)[order][:, order], axis=1, bitorder="little")
    linked = [int.from_bytes(row.tobytes(), "little") for row in rows]
    masks: list[int] = []
    clusters: list[list[int]] = []
    for a, row in enumerate(linked):
        for c, mask in enumerate(masks):
            if not mask & ~row:
                masks[c] |= 1 << a
                clusters[c].append(a)
                break
        else:
            masks.append(1 << a)
            clusters.append([a])
    result = Clustering(tuple(tuple(ids[a] for a in c) for c in clusters), phi)
    if result.members() != set(ids):
        raise AssertionError("partition does not cover the model set")
    return result
