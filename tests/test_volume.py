"""Tests for the volumetric data model, file I/O, and preprocessing ops."""

import json

import numpy as np
import pytest

from lungsev.errors import EmptyMaskError, GeometryError, HeaderError, InputError
from lungsev.volume import (
    AIR_HU,
    LabelMask,
    Volume,
    WindowSpec,
    apply_augment,
    check_same_geometry,
    clip_normalize,
    crop_box,
    flip,
    lung_center,
    read_mask,
    read_volume,
    resample,
    resample_mask,
    sample_augment,
    write_volume,
)


def make_volume(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data), spacing)


# ---------------------------------------------------------------------------
# Construction and invariants
# ---------------------------------------------------------------------------

def test_volume_rejects_bad_geometry():
    with pytest.raises(InputError):
        Volume(np.zeros((2, 2)), (1, 1, 1))
    with pytest.raises(InputError):
        Volume(np.zeros((2, 2, 2)), (1, 0, 1))
    with pytest.raises(InputError):
        Volume(np.zeros((2, 2, 2)), (1, -3, 1))
    with pytest.raises(InputError):
        Volume(np.zeros((2, 2, 2)), (1, float("nan"), 1))


def test_volume_data_is_frozen():
    v = make_volume(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1.0


def test_mask_rejects_labels_outside_declared_set():
    with pytest.raises(InputError):
        LabelMask(np.full((2, 2, 2), 6, dtype=np.uint8), (1, 1, 1))
    with pytest.raises(InputError):
        LabelMask(np.full((2, 2, 2), 2, dtype=np.uint8), (1, 1, 1), allowed_labels=(1,))
    LabelMask(np.full((2, 2, 2), 5, dtype=np.uint8), (1, 1, 1))  # ok


def test_mask_rejects_float_dtype():
    with pytest.raises(InputError):
        LabelMask(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))


def test_geometry_check():
    a = make_volume(np.zeros((2, 2, 2)))
    b = make_volume(np.zeros((2, 2, 3)))
    c = make_volume(np.zeros((2, 2, 2)), spacing=(1, 1, 2))
    check_same_geometry(a, a)
    with pytest.raises(GeometryError):
        check_same_geometry(a, b)
    with pytest.raises(GeometryError):
        check_same_geometry(a, c)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def test_roundtrip_identity_int16(tmp_path):
    v = Volume(np.full((2, 2, 2), -1024, dtype=np.int16), (1.0, 1.0, 1.0))
    write_volume(v, tmp_path / "case")
    back = read_volume(tmp_path / "case")
    assert back.data.dtype == np.int16
    assert back.spacing_mm == v.spacing_mm
    np.testing.assert_array_equal(back.data, v.data)


@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.uint8])
def test_roundtrip_bit_identical_all_dtypes(tmp_path, dtype):
    rng = np.random.default_rng(7)
    if np.issubdtype(dtype, np.integer):
        data = rng.integers(np.iinfo(dtype).min, np.iinfo(dtype).max, size=(5, 4, 3)).astype(dtype)
    else:
        data = rng.standard_normal((5, 4, 3)).astype(dtype)
    v = Volume(data, (3.0, 0.7, 0.7))
    write_volume(v, tmp_path / "vol.json")
    back = read_volume(tmp_path / "vol.raw")
    assert back.data.tobytes() == v.data.tobytes()
    assert back.spacing_mm == (3.0, 0.7, 0.7)


def test_roundtrip_phantom_sized_volume(tmp_path):
    rng = np.random.default_rng(11)
    data = rng.integers(-1100, 200, size=(64, 64, 64)).astype(np.int16)
    v = Volume(data, (1.0, 1.0, 1.0))
    write_volume(v, tmp_path / "big")
    back = read_volume(tmp_path / "big")
    assert int(np.max(np.abs(back.data.astype(np.int64) - data.astype(np.int64)))) == 0


def test_read_rejects_length_mismatch(tmp_path):
    header = {"dims": [2, 2, 2], "spacing_mm": [1, 1, 1], "dtype": "int16", "byte_order": "little"}
    (tmp_path / "bad.json").write_text(json.dumps(header))
    (tmp_path / "bad.raw").write_bytes(np.zeros(7, dtype="<i2").tobytes())
    with pytest.raises(HeaderError, match="length mismatch"):
        read_volume(tmp_path / "bad")


def test_read_rejects_missing_or_malformed_header(tmp_path):
    with pytest.raises(HeaderError, match="missing header"):
        read_volume(tmp_path / "nothere")
    (tmp_path / "junk.json").write_text("{not json")
    (tmp_path / "junk.raw").write_bytes(b"")
    with pytest.raises(HeaderError, match="ill-formed"):
        read_volume(tmp_path / "junk")
    header = {"dims": [1, 1, 1], "spacing_mm": [1, 1, 1], "dtype": "float64", "byte_order": "little"}
    (tmp_path / "dt.json").write_text(json.dumps(header))
    (tmp_path / "dt.raw").write_bytes(b"\x00" * 8)
    with pytest.raises(HeaderError, match="unsupported dtype"):
        read_volume(tmp_path / "dt")
    header = {"spacing_mm": [1, 1, 1], "dtype": "int16", "byte_order": "little"}
    (tmp_path / "nf.json").write_text(json.dumps(header))
    with pytest.raises(HeaderError, match="missing field"):
        read_volume(tmp_path / "nf")
    (tmp_path / "list.json").write_text("[1, 2, 3]")
    with pytest.raises(HeaderError, match="list.json is not a JSON object"):
        read_volume(tmp_path / "list")
    good = {"dims": [1, 1, 1], "spacing_mm": [1.0, 1.0, 1.0], "dtype": "int16", "byte_order": "little"}
    for name, field, value in [
        ("unit", "spacing_mm", [1.0, 1.0, "1.0mm"]),
        ("scalar_spacing", "spacing_mm", 1.0),
        ("scalar_dims", "dims", 1),
    ]:
        (tmp_path / f"{name}.json").write_text(json.dumps({**good, field: value}))
        (tmp_path / f"{name}.raw").write_bytes(b"\x00" * 2)
        with pytest.raises(HeaderError, match=rf"bad {field} .* in .*{name}\.json"):
            read_volume(tmp_path / name)


def test_write_rejects_unsupported_dtype(tmp_path):
    v = Volume(np.zeros((2, 2, 2), dtype=np.float64), (1, 1, 1))
    with pytest.raises(InputError, match="unsupported dtype"):
        write_volume(v, tmp_path / "v")


def test_mask_roundtrip(tmp_path):
    m = LabelMask(np.arange(6, dtype=np.uint8).reshape(1, 2, 3) % 6, (2.0, 1.0, 1.0))
    write_volume(m, tmp_path / "m")
    back = read_mask(tmp_path / "m")
    np.testing.assert_array_equal(back.data, m.data)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def test_resample_constant_volume_stays_constant():
    v = make_volume(np.full((4, 5, 6), -600.0), spacing=(2.0, 1.0, 1.0))
    out = resample(v, (1.0, 0.5, 2.0), mode="trilinear")
    assert out.dims == (8, 10, 3)
    np.testing.assert_allclose(out.data, -600.0, rtol=0, atol=0)


def test_resample_identity_spacing():
    rng = np.random.default_rng(3)
    v = make_volume(rng.standard_normal((4, 5, 6)), spacing=(1.5, 1.0, 0.5))
    tri = resample(v, v.spacing_mm, mode="trilinear")
    near = resample(v, v.spacing_mm, mode="nearest")
    np.testing.assert_array_equal(tri.data, v.data)
    np.testing.assert_array_equal(near.data, v.data)


def test_resample_trilinear_reproduces_affine_ramp():
    # f(z,y,x) = x on a 1 mm grid; resample to 0.5 mm. Each output voxel j
    # samples source coordinate clamp(j*0.5, 0, X-1), where the ramp value
    # is the coordinate itself.
    X = 8
    data = np.broadcast_to(np.arange(X, dtype=np.float64), (4, 4, X)).copy()
    v = make_volume(data)
    out = resample(v, (1.0, 1.0, 0.5), mode="trilinear")
    assert out.dims == (4, 4, 16)
    expected_x = np.clip(np.arange(16) * 0.5, 0, X - 1)
    expected = np.broadcast_to(expected_x, (4, 4, 16))
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_resample_nearest_values_subset_of_input():
    rng = np.random.default_rng(5)
    v = make_volume(rng.integers(-1000, 200, size=(5, 7, 6)).astype(np.int16), spacing=(3, 1, 1))
    out = resample(v, (1.0, 0.7, 1.3), mode="nearest")
    assert out.data.dtype == np.int16
    assert set(np.unique(out.data)) <= set(np.unique(v.data))


def test_resample_mask_preserves_labels():
    m = LabelMask(np.random.default_rng(0).integers(0, 6, size=(6, 6, 6)).astype(np.uint8), (2, 1, 1))
    out = resample_mask(m, (1.0, 1.0, 1.0))
    assert set(np.unique(out.data)) <= set(np.unique(m.data))
    assert out.dims == (12, 6, 6)


def test_resample_rejects_bad_spacing():
    v = make_volume(np.zeros((2, 2, 2)))
    with pytest.raises(InputError):
        resample(v, (0.0, 1.0, 1.0))
    with pytest.raises(InputError):
        resample(v, (1.0, 1.0, -1.0))


# ---------------------------------------------------------------------------
# clip_normalize
# ---------------------------------------------------------------------------

def test_clip_normalize_known_values():
    v = make_volume(np.array([[[-1350.0, 150.0, -600.0, -1024.0, -5000.0, 5000.0]]]))
    out = clip_normalize(v)
    expected = [0.0, 1.0, 0.5, (-1024.0 + 1350.0) / 1500.0, 0.0, 1.0]
    np.testing.assert_allclose(out.data[0, 0], expected, rtol=0, atol=1e-15)
    assert abs(out.data[0, 0, 3] - 0.21733333333333332) < 1e-12


def test_clip_normalize_bounds_and_monotone():
    rng = np.random.default_rng(9)
    a = rng.uniform(-3000, 3000, size=(4, 4, 4))
    b = a + rng.uniform(0, 500, size=a.shape)  # b >= a pointwise
    wa = clip_normalize(make_volume(a), WindowSpec(level=-500, width=1200))
    wb = clip_normalize(make_volume(b), WindowSpec(level=-500, width=1200))
    assert np.all(wa.data >= 0.0) and np.all(wa.data <= 1.0)
    assert np.all(wb.data >= wa.data)


def test_window_spec_rejects_nonpositive_width():
    with pytest.raises(InputError):
        WindowSpec(level=0, width=0)


# ---------------------------------------------------------------------------
# lung_center and crop
# ---------------------------------------------------------------------------

def test_lung_center_single_voxel():
    m = np.zeros((8, 8, 8), dtype=np.uint8)
    m[3, 4, 5] = 1
    assert lung_center(LabelMask(m, (1, 1, 1))) == (3, 4, 5)


def test_lung_center_midpoint():
    m = np.zeros((4, 4, 4), dtype=np.uint8)
    m[0, 0, 0] = 1
    m[2, 2, 2] = 1
    assert lung_center(LabelMask(m, (1, 1, 1))) == (1, 1, 1)


def test_lung_center_rounding_is_half_up():
    m = np.zeros((4, 4, 4), dtype=np.uint8)
    m[0, 0, 0] = 1
    m[1, 1, 1] = 1  # means are 0.5 -> round away from zero -> 1
    assert lung_center(LabelMask(m, (1, 1, 1))) == (1, 1, 1)


def test_lung_center_empty_mask_raises():
    with pytest.raises(EmptyMaskError):
        lung_center(LabelMask(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))


def test_crop_box_inside():
    rng = np.random.default_rng(1)
    v = make_volume(rng.standard_normal((8, 8, 8)))
    out = crop_box(v, center=(4, 4, 4), box=(4, 4, 4), pad_value=0)
    np.testing.assert_array_equal(out.data, v.data[2:6, 2:6, 2:6])


def test_crop_box_at_corner_pads():
    v = make_volume(np.ones((4, 4, 4)))
    out = crop_box(v, center=(0, 0, 0), box=(4, 4, 4), pad_value=AIR_HU)
    # box [-2, 2) per axis: only the (2:,2:,2:) corner of the output overlaps
    assert np.all(out.data[:2] == AIR_HU)
    assert np.all(out.data[:, :2] == AIR_HU)
    assert np.all(out.data[:, :, :2] == AIR_HU)
    assert np.all(out.data[2:, 2:, 2:] == 1.0)


def test_crop_box_preserves_center_value():
    rng = np.random.default_rng(2)
    v = make_volume(rng.standard_normal((9, 7, 5)))
    for box in [(3, 3, 3), (4, 4, 4), (6, 2, 8)]:
        center = (4, 3, 2)
        out = crop_box(v, center, box, pad_value=0)
        assert out.data[box[0] // 2, box[1] // 2, box[2] // 2] == v.data[center]


def test_crop_counts_match_bruteforce_bounds_check():
    rng = np.random.default_rng(8)
    mask = (rng.random((10, 11, 12)) < 0.3).astype(np.uint8)
    m = Volume(mask, (1, 1, 1))
    center, box = (5, 5, 5), (6, 7, 4)
    out = crop_box(m, center, box, pad_value=0)
    assert out.data.dtype == np.uint8  # integer data with an integral pad keeps its dtype
    # brute-force: count mask voxels whose index falls inside the box bounds
    expected = 0
    starts = [c - b // 2 for c, b in zip(center, box)]
    for z in range(10):
        for y in range(11):
            for x in range(12):
                if mask[z, y, x] and all(
                    s <= i < s + b for i, s, b in zip((z, y, x), starts, box)
                ):
                    expected += 1
    assert int(np.count_nonzero(out.data)) == expected


def test_crop_box_rejects_empty_box():
    v = make_volume(np.zeros((4, 4, 4)))
    with pytest.raises(InputError):
        crop_box(v, (2, 2, 2), (0, 4, 4))


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def test_augment_deterministic():
    rng = np.random.default_rng(0)
    v = make_volume(rng.integers(-1000, 100, size=(4, 4, 4)).astype(np.int16))
    a = apply_augment(v, sample_augment(123))
    b = apply_augment(v, sample_augment(123))
    np.testing.assert_array_equal(a.data, b.data)
    assert sample_augment(99) == sample_augment(99)


def test_flip_is_involution():
    rng = np.random.default_rng(4)
    v = make_volume(rng.standard_normal((3, 4, 5)))
    for axis in (0, 1, 2):
        np.testing.assert_array_equal(flip(flip(v, axis), axis).data, v.data)


def test_augment_shift_within_bounds_and_uniform_flip_rates():
    counts = {None: 0, 0: 0, 1: 0, 2: 0}
    for seed in range(10_000):
        plan = sample_augment(seed)
        assert -20.0 <= plan.intensity_shift_hu <= 20.0
        counts[plan.flip_axis] += 1
    assert abs(counts[None] / 10_000 - 0.5) < 0.02
    for axis in (0, 1, 2):
        assert abs(counts[axis] / 10_000 - 1 / 6) < 0.02


def test_apply_augment_matches_manual_composition():
    rng = np.random.default_rng(17)
    v = make_volume(rng.standard_normal((4, 4, 4)))
    plan = sample_augment(5)
    out = apply_augment(v, plan)
    manual = v.data + plan.intensity_shift_hu
    if plan.flip_axis is not None:
        manual = np.flip(manual, axis=plan.flip_axis)
    np.testing.assert_array_equal(out.data, manual)


def test_augment_does_not_mutate_input():
    data = np.zeros((2, 2, 2), dtype=np.float64)
    v = Volume(data, (1, 1, 1))
    before = v.data.copy()
    apply_augment(v, sample_augment(1))
    np.testing.assert_array_equal(v.data, before)
