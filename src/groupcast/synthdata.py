"""Synthetic pretraining data.

Four generator families:

* trend/seasonality/noise blends (TsiSpec) for univariate series;
* temporal-causal autoregressive panels (TcmSpec) over a stationary
  lagged adjacency;
* derived panels: lag-shifted copies of one AR(1) base plus independent
  noise, a leader and 2 followers whose futures the leader's context
  reveals;
* panels of 3 mutually independent noise series.

A spec checks itself when it is built, so a spec that exists is valid and
the generators check nothing: a field of the wrong kind (config.same_kind,
the rule every config class applies) or a bad value raises ConfigError, a
non-stationary TcmSpec StabilityError (a ConfigError too).

All randomness flows through PortableRng, so identical specs and seeds
reproduce identical datasets byte-for-byte. Parameter ranges used by the
sample_* helpers are artifact choices and are recorded in the provenance
JSON written next to each dataset. The sampled tcm specs take their
spectral radius from TCM_RADIUS_RANGE; a derived panel's 2 followers and
an independent panel's 3 series are fixed too: constants, not parameters.
"""

import csv
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import DictConfig
from .errors import ConfigError, DataError, StabilityError
from .panels import FLOAT_FMT, atomic_open, open_text
from .rng import PortableRng

TCM_RADIUS_RANGE = (0.5, 0.95)  # the companion spectral radius of a sampled tcm spec


@dataclass(frozen=True)
class TsiSpec(DictConfig):
    """Trend + seasonality + noise recipe for one univariate series."""

    KIND = "tsi"

    length: int
    trend_slope: float = 0.0
    trend_curvature: float = 0.0
    seasonal: tuple[tuple[float, float, float], ...] = ()  # (period, amplitude, phase) triples
    noise_family: str = "gaussian"  # or "student_t"
    noise_scale: float = 0.0
    noise_df: int = 4
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.length < 1:
            raise ConfigError(f"length must be >= 1, got {self.length}")
        for term in self.seasonal:
            if term[0] < 2:
                raise ConfigError(f"a seasonal term is (period >= 2, amplitude, phase), got {term}")
        if self.noise_df < 1:
            raise ConfigError(f"noise_df must be >= 1, got {self.noise_df}")
        if self.noise_scale < 0:
            raise ConfigError(f"noise scale must be >= 0, got {self.noise_scale}")
        if self.noise_family not in ("gaussian", "student_t"):
            raise ConfigError(f"unknown noise family {self.noise_family!r}")


@dataclass(frozen=True)
class TcmSpec(DictConfig):
    """Lagged vector-autoregression over a causal graph.

    adjacency has shape (K, K, L); entry [i, j, l] is the effect of series
    j at lag l+1 on series i. The companion-matrix spectral radius must be
    below 1: building a spec whose radius is not raises StabilityError with
    the measured radius, so a TcmSpec that exists is stationary. to_dict
    writes adjacency as float64 values.
    """

    KIND = "tcm"

    n_series: int
    lag_order: int
    adjacency: tuple[tuple[tuple[float, ...], ...], ...]  # shape (K, K, L)
    innovation_scale: float = 1.0
    length: int = 512
    seed: int = 0

    def adjacency_array(self) -> np.ndarray:
        arr = np.asarray(self.adjacency, dtype=np.float64)
        if arr.shape != (self.n_series, self.n_series, self.lag_order):
            raise ConfigError(
                f"adjacency shape {arr.shape} != (K, K, L) = "
                f"({self.n_series}, {self.n_series}, {self.lag_order})"
            )
        return arr

    def __post_init__(self):
        super().__post_init__()
        if self.lag_order < 1:
            raise ConfigError(f"lag order must be >= 1, got {self.lag_order}")
        if self.n_series < 1 or self.length < 1:
            raise ConfigError("n_series and length must be >= 1")
        if self.innovation_scale < 0:
            raise ConfigError("innovation scale must be >= 0")
        radius = spectral_radius(companion_matrix(self.adjacency_array()))
        if radius >= 1.0:
            raise StabilityError(f"companion spectral radius {radius:.6f} >= 1; spec is non-stationary")

    def to_dict(self) -> dict:
        return {**super().to_dict(), "adjacency": np.asarray(self.adjacency, dtype=np.float64).tolist()}


# ---------------------------------------------------------------------------
# stationarity


def companion_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Stack (K, K, L) lag matrices into the (K*L, K*L) companion form."""
    K, _, L = adjacency.shape
    top = np.concatenate([adjacency[:, :, l] for l in range(L)], axis=1)
    comp = np.zeros((K * L, K * L), dtype=np.float64)
    comp[:K, :] = top
    if L > 1:
        comp[K:, : K * (L - 1)] = np.eye(K * (L - 1))
    return comp


def spectral_radius(M: np.ndarray) -> float:
    """Spectral radius by block power iteration (2-column orthogonal
    iteration), which also converges for complex-conjugate dominant pairs.

    The 2x2 projected matrix's eigenvalue magnitudes come from the
    quadratic formula; iteration stops when the estimate is stable to 1e-8
    (relative, three times running) or after 5000 steps.
    """
    n = M.shape[0]
    if n == 1:
        return float(abs(M[0, 0]))
    q = np.stack([np.ones(n), np.arange(1, n + 1, dtype=np.float64)], axis=1)
    q, _ = np.linalg.qr(q)
    prev = None
    stable = 0
    est = 0.0
    z = M @ q
    for _ in range(5000):
        if not np.isfinite(z).all() or float(np.abs(z).max()) == 0.0:
            return 0.0 if float(np.abs(z).max()) == 0.0 else float("inf")
        q, _ = np.linalg.qr(z)
        z = M @ q  # the next iterate, and the product the projection needs
        t = q.T @ z
        tr = t[0, 0] + t[1, 1]
        det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
        disc = tr * tr - 4.0 * det
        if disc >= 0:
            r = math.sqrt(disc)
            est = max(abs((tr + r) / 2.0), abs((tr - r) / 2.0))
        else:
            est = math.sqrt(det)
        if prev is not None and abs(est - prev) <= 1e-8 * max(abs(est), 1.0):
            stable += 1
            if stable >= 3:
                return float(est)
        else:
            stable = 0
        prev = est
    return float(est)


# ---------------------------------------------------------------------------
# generators


def tsi_generate(spec: TsiSpec) -> np.ndarray:
    """x_t = trend(t) + sum of sinusoids + noise, deterministic per seed.

    Seasonal terms use (t mod period) inside the angle so integer periods
    repeat exactly.
    """
    t = np.arange(spec.length, dtype=np.float64)
    x = spec.trend_slope * t + spec.trend_curvature * t * t
    for period, amplitude, phase in spec.seasonal:
        angle = 2.0 * np.pi * np.mod(t, period) / period + phase
        x = x + amplitude * np.sin(angle)
    if spec.noise_scale > 0:
        rng = PortableRng(spec.seed).spawn(7)
        if spec.noise_family == "gaussian":
            noise = rng.normal(spec.length)
        else:
            noise = rng.student_t(spec.length, spec.noise_df)
        x = x + spec.noise_scale * noise
    return x


def tcm_generate(spec: TcmSpec) -> np.ndarray:
    """Simulate the lagged autoregression; returns (K, length).

    Burn-in of 10 * L * K steps is discarded. The spec is stationary:
    every TcmSpec checks that when it is built."""
    adj = spec.adjacency_array()
    K, L = spec.n_series, spec.lag_order
    burn = 10 * L * K
    total = spec.length + burn
    rng = PortableRng(spec.seed).spawn(11)
    innov = (rng.normal(total * K) * spec.innovation_scale).reshape(total, K)
    coeffs = np.ascontiguousarray(np.transpose(adj, (2, 0, 1)))  # (L, K, K)
    x = kernels.var_recursion(coeffs, innov)
    return np.ascontiguousarray(x[burn:].T)


def derive_multivariate(base: np.ndarray, lags, seed: int, noise_scale: float = 0.0) -> np.ndarray:
    """Lag-shifted copies of one base plus optional independent noise.

    base: (Tb,); lags: one non-negative offset per output series. Output
    (K, Tb - max_lag) with out[i, t] = base[t + max_lag - lags[i]] plus
    noise_scale times a normal draw of PortableRng(seed).spawn(13). Each
    row is 0.0 plus the shifted slice, so a -0.0 base value reads +0.0.
    A lag outside [0, Tb - 1] raises ConfigError.
    """
    base = np.asarray(base, dtype=np.float64)
    lags = np.asarray(lags, dtype=np.int64)
    Tb = base.shape[0]
    max_lag = int(lags.max(initial=0))
    if lags.min(initial=0) < 0 or max_lag >= Tb:
        raise ConfigError(f"lags must lie in [0, {Tb - 1}], got {lags.tolist()}")
    K, To = len(lags), Tb - max_lag
    out = np.zeros((K, To), dtype=np.float64)
    for i, lag in enumerate(lags.tolist()):
        out[i] += base[max_lag - lag : max_lag - lag + To]
    if noise_scale > 0:
        rng = PortableRng(seed).spawn(13)
        out = out + noise_scale * rng.normal(K * To).reshape(K, To)
    return out


# ---------------------------------------------------------------------------
# spec samplers; parameter ranges are library defaults, recorded in provenance


def sample_tsi_spec(rng: PortableRng, length: int, seed: int) -> TsiSpec:
    n_seasonal = int(rng.integers(1, 3)[0])
    seasonal = []
    for _ in range(n_seasonal):
        period = 2.0 + float(rng.uniform(1)[0]) * 98.0
        amplitude = 0.2 + float(rng.uniform(1)[0]) * 2.8
        phase = float(rng.uniform(1)[0]) * 2.0 * np.pi
        seasonal.append((period, amplitude, phase))
    family = "gaussian" if float(rng.uniform(1)[0]) < 0.8 else "student_t"
    return TsiSpec(
        length=length,
        trend_slope=float(rng.normal(1)[0]) * 0.02,
        trend_curvature=float(rng.normal(1)[0]) * 1e-5,
        seasonal=tuple(seasonal),
        noise_family=family,
        noise_scale=0.05 + float(rng.uniform(1)[0]) * 0.5,
        noise_df=4,
        seed=seed,
    )


def check_tcm_ranges(n_series_range, lag_range, edge_prob) -> None:
    """Raise ConfigError unless both ranges are [lo, hi] with 1 <= lo <= hi
    and edge_prob lies in [0, 1]."""
    for name, r in (("n_series_range", n_series_range), ("lag_range", lag_range)):
        if len(r) != 2 or not 1 <= r[0] <= r[1]:
            raise ConfigError(f"{name} needs [lo, hi] with 1 <= lo <= hi, got {list(r)}")
    if not 0 <= edge_prob <= 1:
        raise ConfigError(f"edge_prob must lie in [0, 1], got {edge_prob}")


def sample_tcm_spec(
    rng: PortableRng,
    length: int,
    seed: int,
    n_series_range: tuple[int, int] = (2, 5),
    lag_range: tuple[int, int] = (1, 2),
    edge_prob: float = 0.4,
) -> TcmSpec:
    """Random DAG-over-lags adjacency rescaled to a spectral radius drawn
    from TCM_RADIUS_RANGE.

    A random variate order makes the cross-series graph acyclic; self-lags
    are always candidates. Scaling lag-l matrices by c**l scales the
    companion spectrum by c, which pins the radius exactly. Ranges that
    fail check_tcm_ranges raise ConfigError.
    """
    check_tcm_ranges(n_series_range, lag_range, edge_prob)
    K = int(rng.integers(1, n_series_range[1] - n_series_range[0] + 1)[0]) + n_series_range[0]
    L = int(rng.integers(1, lag_range[1] - lag_range[0] + 1)[0]) + lag_range[0]
    order = np.argsort(rng.uniform(K))
    rank = np.empty(K, dtype=np.int64)
    rank[order] = np.arange(K)
    adj = np.zeros((K, K, L), dtype=np.float64)
    for i in range(K):
        for j in range(K):
            if rank[j] > rank[i]:
                continue  # DAG: only upstream-or-self edges
            for l in range(L):
                keep = i == j and l == 0  # own first lag always present
                if not keep and float(rng.uniform(1)[0]) >= edge_prob:
                    continue
                adj[i, j, l] = float(rng.normal(1)[0]) * 0.5
    raw_radius = spectral_radius(companion_matrix(adj))
    lo, hi = TCM_RADIUS_RANGE
    target = lo + float(rng.uniform(1)[0]) * (hi - lo)
    if raw_radius > 0:
        c = target / raw_radius
        for l in range(L):
            adj[:, :, l] *= c ** (l + 1)
    return TcmSpec(
        n_series=K,
        lag_order=L,
        adjacency=tuple(tuple(tuple(row) for row in mat) for mat in adj),
        innovation_scale=0.5 + float(rng.uniform(1)[0]),
        length=length,
        seed=seed,
    )


def make_ar1_base(rng_seed: int, length: int, phi: float) -> np.ndarray:
    """The stationary AR(1) base series of a derived panel, unit innovations."""
    spec = TcmSpec(n_series=1, lag_order=1, adjacency=(((phi,),),), length=length, seed=rng_seed)
    return tcm_generate(spec)[0]


def make_cross_link_panel(
    rng: PortableRng,
    length: int,
    lag_choices: tuple[int, ...] = (8, 16),
    noise_scale: float = 0.05,
) -> tuple[np.ndarray, dict]:
    """A leader and 2 followers that replay one AR(1) base with a lag drawn
    from lag_choices (the leader's lag is 0), each plus its own noise.

    The followers' futures are readable from the leader's context, so a
    model that shares information within a group can beat any single-series
    forecast on them. Returns (panel (3, length), provenance dict).
    """
    seed = int(rng.raw64(1)[0] & 0x7FFFFFFF)
    phi = 0.85 + float(rng.uniform(1)[0]) * 0.12
    base = make_ar1_base(seed, length + max(lag_choices), phi)
    lags = [0] + [int(lag_choices[int(rng.integers(1, len(lag_choices))[0])]) for _ in range(2)]
    panel = derive_multivariate(base, lags, seed=seed + 1, noise_scale=noise_scale)
    prov = {"kind": "derived", "base": "ar1", "phi": phi, "lags": lags, "noise_scale": noise_scale, "seed": seed}
    return panel[:, -length:], prov


def make_independent_panel(rng: PortableRng, length: int) -> tuple[np.ndarray, dict]:
    """3 mutually independent noise series, each with its own offset and
    scale; cross-series info is worthless. Returns (panel (3, length),
    provenance dict)."""
    seed = int(rng.raw64(1)[0] & 0x7FFFFFFF)
    sub = PortableRng(seed).spawn(29)
    panel = np.empty((3, length), dtype=np.float64)
    scales = 0.5 + sub.uniform(3) * 2.0
    offsets = sub.normal(3) * 5.0
    for i in range(3):
        panel[i] = offsets[i] + scales[i] * sub.normal(length)
    return panel, {"kind": "independent", "seed": seed, "n_series": 3}


# ---------------------------------------------------------------------------
# dataset files: CSV long format plus provenance JSON


@functools.lru_cache(maxsize=8)
def _row_pieces(length: int) -> tuple[str, ...]:
    """The row template of a series of ``length`` values, cut where the id
    goes: joining the pieces with an id gives ``<id>,<t>,%.17g\r\n`` for
    t = 0 .. length-1 (and "" for length 0)."""
    return ("",) + tuple(f",{t},{FLOAT_FMT}\r\n" for t in range(length))


def save_panel_dataset(path, panel: np.ndarray) -> None:
    """Write a (K, T) panel, or one (T,) series, as ``series_id,t,value``
    rows with CRLF line ends, in one atomic write. The ids are s0..s{K-1}.

    Each series is formatted by one ``%`` over its values: the row template
    of its length (cached per length, without the id) joined around the id.
    The bytes are those csv.writer gives.
    """
    panel = np.asarray(panel, dtype=np.float64)
    if panel.ndim == 1:
        panel = panel[None, :]
    pieces = _row_pieces(panel.shape[1])
    lines = ["series_id,t,value\r\n"]
    for k, row in enumerate(panel.tolist()):
        lines.append(f"s{k}".join(pieces) % tuple(row))
    with atomic_open(path) as fh:
        fh.write("".join(lines))


def load_panel_dataset(path) -> tuple[list[str], np.ndarray]:
    """Read a dataset CSV that save_panel_dataset wrote: (ids in order of
    first appearance, (K, T) values). Each series' t must run 0, 1, 2, ...
    in file order; a malformed row, an unparseable or non-finite value or
    a t out of order raises DataError naming the file and line."""
    by_series: dict[str, list[float]] = {}
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["series_id", "t", "value"]:
            raise DataError(f"{path}: expected header series_id,t,value, got {header}")
        for row in reader:
            if len(row) != 3:
                raise DataError(f"{path}, line {reader.line_num}: malformed row {row}")
            values = by_series.setdefault(row[0], [])
            if row[1] != str(len(values)):
                raise DataError(
                    f"{path}, line {reader.line_num}: series {row[0]!r} has t={row[1]!r}, "
                    f"expected {len(values)}"
                )
            try:
                value = float(row[2])
            except ValueError:
                raise DataError(f"{path}, line {reader.line_num}: unparseable value {row[2]!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}, line {reader.line_num}, column value: non-finite value {row[2]!r}")
            values.append(value)
    ids = list(by_series)
    if not ids:
        raise DataError(f"{path}: empty dataset")
    lengths = {len(v) for v in by_series.values()}
    if len(lengths) != 1:
        raise DataError(f"{path}: series lengths differ: {sorted(lengths)}")
    return ids, np.array([by_series[i] for i in ids], dtype=np.float64)


def save_provenance(path, prov: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(prov, sort_keys=True, indent=1) + "\n")
