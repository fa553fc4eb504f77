"""Per-pixel SNR maps of confocal scans, with bicubic upsampling.

A scan stores four count planes: {mw_off, mw_on} x {gated, ungated}. The SNR
plane is metrics.snr of the raw per-pixel counts, so a pixel with zero total
counts reads 0 (the metrics module states the rule); such pixels are also
marked in a flag plane so they stay distinguishable from genuinely
zero-difference pixels.

Upsampling uses the Catmull-Rom bicubic kernel, separable and edge-clamped.
Output sample j maps to input coordinate j/factor, so every original node
lands exactly on an output sample. The four kernel weights are normalized by
their sum (analytically 1) so constant inputs are reproduced bit-exactly.
"""

from __future__ import annotations

import numpy as np

from . import reader
from .errors import ParseError
from .metrics import snr
from .record import Record, frozen_array
from .report import format_value

CHANNEL_KINDS = ("gated", "ungated")
_SCAN_PLANES = ("mw_off_gated", "mw_on_gated", "mw_off_ungated", "mw_on_ungated")


class ScanMap(Record):
    """Raster scan: four (ny, nx) count planes plus geometry."""

    pitch: float  # um between pixel centers
    dwell: float  # s per pixel
    mw_off_gated: np.ndarray
    mw_on_gated: np.ndarray
    mw_off_ungated: np.ndarray
    mw_on_ungated: np.ndarray

    def __post_init__(self):
        if not self.pitch > 0:
            raise ValueError("pitch must be > 0")
        if not self.dwell > 0:
            raise ValueError("dwell must be > 0")
        planes = {}
        shape = None
        for name in _SCAN_PLANES:
            p = frozen_array(getattr(self, name))
            if p.ndim != 2 or p.size == 0:
                raise ValueError(f"{name} must be a non-empty 2-D array")
            if np.any(p < 0):
                raise ValueError(f"{name} must be non-negative")
            if shape is None:
                shape = p.shape
            elif p.shape != shape:
                raise ValueError(f"count planes disagree in shape: {p.shape} vs {shape}")
            planes[name] = p
        for name, p in planes.items():
            object.__setattr__(self, name, p)

    def channel_planes(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(mw_off, mw_on) planes for 'gated' or 'ungated'."""
        if kind == "gated":
            return self.mw_off_gated, self.mw_on_gated
        if kind == "ungated":
            return self.mw_off_ungated, self.mw_on_ungated
        raise ValueError(f"unknown channel kind {kind!r}, expected one of {CHANNEL_KINDS}")


class SnrMap(Record):
    """Upsampled SNR plane plus the pixel-resolution zero-count flags."""

    values: np.ndarray  # (ny * factor, nx * factor)
    factor: int
    zero_flags: np.ndarray  # (ny, nx) bool: True where total counts were zero

    def __post_init__(self):
        values = frozen_array(self.values)
        flags = frozen_array(self.zero_flags, bool)
        if values.ndim != 2 or flags.ndim != 2:
            raise ValueError("values and zero_flags must be 2-D")
        if not np.all(np.isfinite(values)):
            raise ValueError("SNR values must be finite")
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if values.shape != (flags.shape[0] * self.factor, flags.shape[1] * self.factor):
            raise ValueError("values shape must be pixel shape times factor")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "zero_flags", flags)


def _catmull_rom_weights(s: np.ndarray) -> np.ndarray:
    """Weights for samples at offsets -1, 0, 1, 2 around fractional position s."""
    s2 = s * s
    s3 = s2 * s
    w = np.stack(
        [
            -0.5 * s3 + s2 - 0.5 * s,
            1.5 * s3 - 2.5 * s2 + 1.0,
            -1.5 * s3 + 2.0 * s2 + 0.5 * s,
            0.5 * s3 - 0.5 * s2,
        ],
        axis=-1,
    )
    # Analytic row sum is 1; normalizing removes float residue so constants
    # pass through bit-exactly.
    return w / w.sum(axis=-1, keepdims=True)


def _upsample_axis(arr: np.ndarray, factor: int) -> np.ndarray:
    """Catmull-Rom upsample along the last axis, edge-clamped.

    Evaluated in delta form, center + sum w_k (v_k - center): identical
    analytically (the weights sum to 1) but exact for constant data and at
    grid nodes, where every difference vanishes.
    """
    n = arr.shape[-1]
    out_n = n * factor
    pos = np.arange(out_n) / factor
    base = np.floor(pos).astype(int)
    frac = pos - base
    weights = _catmull_rom_weights(frac)  # (out_n, 4)
    idx = np.clip(base[:, None] + np.arange(-1, 3)[None, :], 0, n - 1)  # (out_n, 4)
    gathered = arr[..., idx]  # (..., out_n, 4)
    center = gathered[..., 1]
    return center + np.einsum("...ok,ok->...o", gathered - center[..., None], weights)


def catmull_rom_upsample(arr: np.ndarray, factor: int) -> np.ndarray:
    """Separable bicubic upsample of a 2-D array by an integer factor."""
    if int(factor) != factor or factor < 1:
        raise ValueError(f"interpolation factor must be a positive integer, got {factor}")
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    if factor == 1:
        return arr.copy()
    step = _upsample_axis(arr, int(factor))
    return _upsample_axis(np.swapaxes(step, 0, 1), int(factor)).swapaxes(0, 1)


def snr_map(scan: ScanMap, channel: str, interp_factor: int = 4) -> SnrMap:
    """Per-pixel SNR plane of one channel kind, bicubically upsampled."""
    off, on = scan.channel_planes(channel)
    return SnrMap(
        values=catmull_rom_upsample(snr((off, on)), interp_factor),
        factor=int(interp_factor),
        zero_flags=off + on == 0,
    )


def _read_scan(path: str) -> ScanMap:
    table = reader.read_report(path, ("ix", "iy") + _SCAN_PLANES)
    meta = table.metadata
    nx, ny = (int(reader.metadata_number(path, meta, k, whole=True)) for k in ("nx", "ny"))
    pitch, dwell = (reader.metadata_number(path, meta, k, 1.0) for k in ("pitch_um", "dwell_s"))
    ix, iy = table.data["ix"], table.data["iy"]

    def pixel(i: int) -> str:
        return f"pixel ({format_value(ix[i])}, {format_value(iy[i])})"

    # checked as floats, before the cast to ints, so nan and +-inf fail too
    fractional = np.flatnonzero((ix != np.floor(ix)) | (iy != np.floor(iy)))
    if fractional.size:
        raise ParseError(f"{pixel(fractional[0])} is not an integer index", path=path)
    outside = np.flatnonzero(~((ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)))
    if outside.size:
        raise ParseError(f"{pixel(outside[0])} outside the {nx}x{ny} grid", path=path)
    # sorted by pixel, so nothing is allocated by the header's nx * ny: a
    # repeat sits next to its pixel's first row, and without repeats only
    # nx * ny rows fill the grid
    flat = iy.astype(np.int64) * nx + ix.astype(np.int64)
    order = np.argsort(flat, kind="stable")
    repeats = flat[order[1:]] == flat[order[:-1]]
    if repeats.any():
        first = order[:-1][repeats].min()
        raise ParseError(f"{pixel(first)} appears in more than one row", path=path)
    if flat.size < nx * ny:
        raise ParseError(f"plane {_SCAN_PLANES[0]} has missing pixels", path=path)
    planes = {name: table.data[name][order].reshape(ny, nx) for name in _SCAN_PLANES}
    for name, plane in planes.items():
        if np.any(np.isnan(plane)):
            raise ParseError(f"plane {name} has missing pixels", path=path)
    return ScanMap(pitch=pitch, dwell=dwell, **planes)


# Command-line handler: handler(args, run, seed) -> (metadata, columns).


def cmd_snr_map(args, run, seed):
    scan = _read_scan(args.input)
    result = snr_map(scan, args.channel, args.factor)
    meta = dict(
        channel=args.channel,
        factor=result.factor,
        method="catmull-rom",
        zero_pixels=int(result.zero_flags.sum()),
        pitch_um=scan.pitch / result.factor,
    )
    iy, ix = np.indices(result.values.shape)
    return meta, {"ix": ix.ravel(), "iy": iy.ravel(), "snr": result.values.ravel()}
