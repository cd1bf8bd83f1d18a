"""Series preprocessing: robust scaling and patching.

The scaling transform is asinh((x - loc) / scale) with loc/scale estimated
from observed context points only, so statistics can never leak future
values. Missing positions carry value 0 and mask 0; no interpolation.

These functions work on one series row and are the reference for the
batch form in ``model.assemble_batch``, which must give the same bits:
there fully observed rows take their (mean, std) in one axis-1 pass and
every row is scaled in one expression, while rows with gaps take
``fit_scaling`` one at a time, so an all-missing row still raises.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError

SCALE_FLOOR = 1e-6


@dataclass(frozen=True)
class ScalingState:
    """Invertible per-series normalization parameters, in original units."""

    loc: float
    scale: float


@dataclass(frozen=True)
class MetaFeatures:
    """Per-position side channels: relative time index and observed mask."""

    rel_time: np.ndarray
    observed_mask: np.ndarray


@dataclass(frozen=True)
class PatchSequence:
    """Non-overlapping patches covering a left-padded series exactly.

    patches: (n_patches, patch_len, 3) with channel layout
    [value, rel_time, mask]; pad positions carry value 0 and mask 0.
    """

    patches: np.ndarray
    patch_len: int
    pad_count: int


def fit_scaling(series: np.ndarray, mask: np.ndarray) -> ScalingState:
    """Estimate (loc, scale) = (mean, std) of observed points; scale is floored."""
    series = np.asarray(series, dtype=np.float64)
    mask = np.asarray(mask)
    obs = series[mask > 0]
    if obs.size == 0:
        raise DegenerateInputError("cannot scale an all-missing series")
    return ScalingState(loc=float(np.mean(obs)), scale=max(float(np.std(obs)), SCALE_FLOOR))


def robust_scale(series: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ScalingState]:
    """asinh-scale a series; unobserved positions become exactly 0."""
    state = fit_scaling(series, mask)
    return apply_scaling(series, mask, state), state


def apply_scaling(series: np.ndarray, mask: np.ndarray, state: ScalingState) -> np.ndarray:
    series = np.asarray(series, dtype=np.float64)
    mask = np.asarray(mask)
    scaled = np.arcsinh((series - state.loc) / state.scale)
    return np.where(mask > 0, scaled, 0.0)


def scale_rows(values: np.ndarray, loc: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """asinh((x - loc) / scale) of each row of values (R, n) under its own
    loc[r] and scale[r]: apply_scaling row by row, before the mask."""
    return np.arcsinh((values - loc[:, None]) / scale[:, None])


def inverse_scale(scaled: np.ndarray, state: ScalingState) -> np.ndarray:
    """Map scaled values back to original units: sinh(s)*scale + loc."""
    return np.sinh(np.asarray(scaled, dtype=np.float64)) * state.scale + state.loc


def make_rel_time(context_len: int, horizon_len: int) -> np.ndarray:
    """Relative time index over context + horizon positions, strictly
    increasing: the first context position is 0 and the last horizon
    position is 1. Pad positions left of the context take pad_rel_time,
    which extrapolates below 0.
    """
    span = context_len + horizon_len
    return np.arange(span, dtype=np.float64) / float(max(span - 1, 1))


def pad_rel_time(rel: np.ndarray, pad: int) -> np.ndarray:
    """rel_time of the pad positions left of rel: its first step, extended."""
    step = rel[1] - rel[0] if rel.shape[0] > 1 else 1.0
    return rel[0] + step * np.arange(-pad, 0, dtype=np.float64)


def patchify(scaled: np.ndarray, meta: MetaFeatures, patch_len: int) -> PatchSequence:
    """Left-pad to a multiple of patch_len and split into patches.

    Channel layout per position: [value, rel_time, mask]. Padding carries
    value 0 / mask 0 and extends rel_time below its first entry so it stays
    strictly increasing.
    """
    if patch_len <= 0:
        raise ConfigError(f"patch length must be positive, got {patch_len}")
    scaled = np.asarray(scaled, dtype=np.float64)
    n = scaled.shape[0]
    pad = (-n) % patch_len
    rel = np.asarray(meta.rel_time, dtype=np.float64)
    mask = np.asarray(meta.observed_mask, dtype=np.float64)
    if rel.shape[0] != n or mask.shape[0] != n:
        raise ConfigError("meta feature lengths must match the series length")
    if pad:
        values = np.concatenate([np.zeros(pad), scaled])
        rel = np.concatenate([pad_rel_time(rel, pad), rel])
        mask = np.concatenate([np.zeros(pad), mask])
    else:
        values = scaled
    chans = np.stack([values, rel, mask], axis=-1)
    patches = chans.reshape(-1, patch_len, 3)
    return PatchSequence(patches=patches, patch_len=patch_len, pad_count=pad)

