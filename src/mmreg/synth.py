"""Synthetic volume-pair generator for benchmarks and end-to-end tests.

Each pair is a textured two-blob phantom: the target is the source warped by
a known smooth deformation, with additive noise in one half of the volume
and a monotone intensity remapping in the other half. Absolute-difference
metrics stay informative where intensities match and break down in the
remapped half, which correlation/information metrics handle.
"""

from dataclasses import dataclass, fields

import numpy as np

from .volume import (
    DeformationField,
    SegmentationMask,
    Volume,
    check_fields,
    gaussian_smooth,
    interpolate_dense,
    make_control_grid,
    parse_value,
    read_settings,
    warp,
    warp_mask,
)

GT_MODES = ("identity", "translate", "random_ffd")


@dataclass(frozen=True)
class SynthSpec:
    """Generator configuration; all lengths in mm unless noted."""
    dims: tuple[int, ...] = (48, 48, 40)
    spacing_mm: tuple[float, ...] = (2.5, 2.5, 2.5)
    n_pairs: int = 1
    organ_radii_mm: tuple[float, ...] = (11.0, 11.0)
    organ_centers_frac: tuple[tuple[float, ...], ...] = ((0.30, 0.5, 0.5), (0.72, 0.5, 0.5))
    center_jitter_mm: float = 3.0
    radius_jitter_mm: float = 1.5
    base_levels: tuple[float, ...] = (0.25, 0.65, 0.80)      # background, organ 1, organ 2
    texture_amp: tuple[float, ...] = (0.06, 0.02, 0.12)
    texture_sigma_vox: float = 1.5
    noise_sigma: float = 0.02
    # decoy blobs: intensity structures absent from the masks; a decoy with
    # a level between background and an organ confuses scale-free metrics
    decoy_centers_frac: tuple[tuple[float, ...], ...] = ()
    decoy_radii_mm: tuple[float, ...] = ()
    decoy_levels: tuple[float, ...] = ()
    remap_region_x_frac: float = 0.5             # x beyond this fraction is remapped
    remap_gamma: float = 0.45
    remap_offset: float = 0.18
    remap_scale: float = 0.80
    gt_mode: str = "random_ffd"
    gt_translate_mm: tuple[float, ...] = (6.0, 0.0, 0.0)
    gt_grid_spacing_mm: float = 45.0
    max_gt_disp_mm: float = 8.0

    def __post_init__(self):
        check_fields(self, {
            f"gt_mode in {GT_MODES}": self.gt_mode in GT_MODES,
            "n_pairs >= 1": self.n_pairs >= 1,
            "3 dims >= 1": len(self.dims) == 3 and min(self.dims) >= 1,
            "3 spacing_mm > 0": len(self.spacing_mm) == 3 and min(self.spacing_mm) > 0,
            "noise_sigma >= 0": self.noise_sigma >= 0,
            "texture_sigma_vox >= 0": self.texture_sigma_vox >= 0,
            "remap_gamma >= 0": self.remap_gamma >= 0,
            "max_gt_disp_mm >= 0": self.max_gt_disp_mm >= 0,
            "center_jitter_mm >= 0": self.center_jitter_mm >= 0,
            "radius_jitter_mm >= 0": self.radius_jitter_mm >= 0,
            "one organ center per radius": len(self.organ_radii_mm) == len(self.organ_centers_frac),
            "3 fractions in each organ and decoy center": all(
                len(c) == 3 for c in self.organ_centers_frac + self.decoy_centers_frac),
            "one decoy radius and level per decoy center": (
                len(self.decoy_centers_frac) == len(self.decoy_radii_mm) == len(self.decoy_levels)),
            "3 gt_translate_mm": len(self.gt_translate_mm) == 3,
            "gt_grid_spacing_mm > 0": self.gt_grid_spacing_mm > 0,
            "base_levels and texture_amp non-empty": bool(self.base_levels and self.texture_amp),
        })


@dataclass
class SynthPair:
    pair_id: str
    source: Volume
    target: Volume
    source_mask: SegmentationMask
    target_mask: SegmentationMask


def _ball(spec, frac, radius, rng, jitter_radius):
    """Mask of a ball centred at the fraction `frac` of the volume's extent.
    The centre jitter is drawn first, then, if `jitter_radius`, the radius
    jitter."""
    center = np.array([frac[a] * (spec.spacing_mm[a] * (spec.dims[a] - 1)) for a in range(3)])
    center = center + rng.uniform(-spec.center_jitter_mm, spec.center_jitter_mm, 3)
    if jitter_radius:
        radius = radius + rng.uniform(-spec.radius_jitter_mm, spec.radius_jitter_mm)
    # the positions broadcast along one axis each, so only dist2 is a volume
    px, py, pz = np.meshgrid(*(np.arange(spec.dims[a], dtype=np.float64) * spec.spacing_mm[a]
                               for a in range(3)), indexing="ij", sparse=True)
    dist2 = (px - center[0]) ** 2 + (py - center[1]) ** 2 + (pz - center[2]) ** 2
    return dist2 <= radius * radius


def _make_source(spec, rng):
    labels = np.zeros(spec.dims, dtype=np.uint8)
    for k, (frac, radius) in enumerate(zip(spec.organ_centers_frac, spec.organ_radii_mm)):
        labels[_ball(spec, frac, radius, rng, True)] = k + 1

    base = np.full(spec.dims, spec.base_levels[0], dtype=np.float64)
    amp = np.full(spec.dims, spec.texture_amp[0], dtype=np.float64)
    for k in range(len(spec.organ_radii_mm)):
        base[labels == k + 1] = spec.base_levels[min(k + 1, len(spec.base_levels) - 1)]
        amp[labels == k + 1] = spec.texture_amp[min(k + 1, len(spec.texture_amp) - 1)]
    for frac, radius, level in zip(spec.decoy_centers_frac, spec.decoy_radii_mm,
                                   spec.decoy_levels):
        base[_ball(spec, frac, radius, rng, False) & (labels == 0)] = level
    tex = gaussian_smooth(rng.standard_normal(spec.dims), spec.texture_sigma_vox, "reflect")
    tex /= max(tex.std(), 1e-12)
    vol = Volume((base + amp * tex).astype(np.float32), spec.spacing_mm)
    return vol, SegmentationMask(labels, spec.spacing_mm)


def _make_deformation(spec, vol, rng):
    dims = vol.dims
    if spec.gt_mode == "identity":
        dense = np.zeros(dims + (3,), dtype=np.float64)
    elif spec.gt_mode == "translate":
        t = np.asarray(spec.gt_translate_mm, dtype=np.float64)
        dense = np.broadcast_to(t, dims + (3,)).copy()
    else:
        grid = make_control_grid(vol, spec.gt_grid_spacing_mm)
        ctrl = rng.uniform(-spec.max_gt_disp_mm, spec.max_gt_disp_mm, (grid.n_nodes, 3))
        dense = interpolate_dense(grid, ctrl, vol).dense
    if np.abs(dense).max() > spec.max_gt_disp_mm + 1e-9:
        raise ValueError(
            f"ground-truth deformation exceeds the declared bound "
            f"{spec.max_gt_disp_mm} mm (max component {np.abs(dense).max():.3f})"
        )
    return DeformationField(dense=dense, spacing=vol.spacing, origin=vol.origin)


def _remap(values, lo, hi, spec):
    t = np.clip((values - lo) / max(hi - lo, 1e-12), 0.0, 1.0)
    return lo + (spec.remap_offset + spec.remap_scale * t ** spec.remap_gamma) * (hi - lo)


def _make_target(spec, src, src_mask, gt, rng):
    warped = warp(src, gt)
    tgt_mask = warp_mask(src_mask, gt)
    data = warped.data.astype(np.float64)
    lo, hi = float(src.data.min()), float(src.data.max())
    x_mm = np.arange(spec.dims[0], dtype=np.float64)[:, None, None] * spec.spacing_mm[0]
    split = spec.remap_region_x_frac * spec.spacing_mm[0] * (spec.dims[0] - 1)
    region = np.broadcast_to(x_mm > split, spec.dims)
    data = np.where(region, _remap(data, lo, hi, spec), data)
    data = data + rng.normal(0.0, spec.noise_sigma, spec.dims)
    return Volume(data.astype(np.float32), src.spacing, src.origin), tgt_mask


def synth_dataset(spec, seed):
    """Generate spec.n_pairs source/target pairs, bit-reproducible per seed."""
    pairs = []
    for idx in range(spec.n_pairs):
        rng = np.random.default_rng([int(seed), idx])
        src, src_mask = _make_source(spec, rng)
        gt = _make_deformation(spec, src, rng)
        tgt, tgt_mask = _make_target(spec, src, src_mask, gt, rng)
        pairs.append(SynthPair(f"pair{idx:03d}", src, tgt, src_mask, tgt_mask))
    return pairs


# ---------------------------------------------------------------------------
# generator config files (key=value)
# ---------------------------------------------------------------------------

def read_synth_spec(path):
    """Parse a generator config file of key=value lines; each value is read
    as its SynthSpec field's annotation says."""
    kinds = {f.name: f.type for f in fields(SynthSpec)}
    kwargs = {}
    for where, key, value in read_settings(path, "=", ValueError):
        if key not in kinds:
            raise ValueError(f"{where}: unknown generator key {key!r}")
        try:
            kwargs[key] = parse_value(value, kinds[key])
        except ValueError as e:
            raise ValueError(f"{where}: bad value {value!r} for {key}: {e}") from e
    return SynthSpec(**kwargs)
