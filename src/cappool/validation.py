"""Input validation shared by the array-facing estimator API."""

from __future__ import annotations

import inspect

import numpy as np

from .pmf import N_BINS, normalize_pmfs

__all__ = ["check_forecast_array", "check_truths", "ParamsMixin"]


def check_forecast_array(F) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (n_obs, n_models, 131) stack of component forecasts.

    A model's forecast for an observation may be missing, encoded as an
    all-NaN slice. Present slices are validated and normalized. Returns the
    cleaned array plus a boolean availability mask of shape (n_obs, n_models).
    """
    arr = np.asarray(F, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != N_BINS:
        raise ValueError(f"forecast array must be (n_obs, n_models, {N_BINS}), got {arr.shape}")
    out = np.array(arr, copy=True)
    nan = np.isnan(arr)
    available = ~nan.all(axis=2)
    partial = nan.any(axis=2) & available
    if partial.any():
        j, c = np.argwhere(partial)[0]
        raise ValueError(f"forecast ({j}, {c}) mixes NaN and finite entries")
    out[available] = normalize_pmfs(arr[available])
    return out, available


def check_truths(y, n_obs: int) -> np.ndarray:
    arr = np.asarray(y, dtype=float).ravel()
    if arr.shape != (n_obs,):
        raise ValueError(f"expected {n_obs} truth values, got {arr.shape}")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 100.0):
        raise ValueError("truth values must be finite and within [0, 100]")
    return arr


class ParamsMixin:
    """get_params/set_params over constructor arguments, estimator style."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"unknown parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self
