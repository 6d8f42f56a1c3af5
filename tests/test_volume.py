"""Tests for the volumetric data model, file I/O, and preprocessing ops."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lungsev.errors import EmptyMaskError, GeometryError, HeaderError, InputError
from lungsev.volume import (
    AIR_HU,
    LOBE_LABELS,
    RESAMPLE_SPACING_MM,
    VOXEL_BUDGET,
    GridFile,
    LabelMask,
    Volume,
    check_same_geometry,
    clip_normalize,
    crop_box,
    lung_center,
    open_mask,
    open_volume,
    read_mask,
    read_volume,
    resample,
    resample_mask,
    resampled_dims,
    write_volume,
)
import lungsev.volume as volume_mod


def make_volume(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data), spacing)


# ---------------------------------------------------------------------------
# Construction and invariants
# ---------------------------------------------------------------------------

# Every grid goes through Volume's constructor; a lobe mask is a Volume with labels.
GRID_KINDS = pytest.mark.parametrize("kind, dtype", [(Volume, np.float64), (LabelMask, np.uint8)],
                                     ids=["Volume", "LabelMask"])


@GRID_KINDS
def test_volume_rejects_bad_geometry(kind, dtype):
    with pytest.raises(InputError, match="grid data must be 3D"):
        kind(np.zeros((2, 2), dtype), (1, 1, 1))
    with pytest.raises(InputError, match="grid dims must all be >= 1"):
        kind(np.zeros((2, 0, 2), dtype), (1, 1, 1))
    with pytest.raises(InputError, match="spacing_mm must have 3 components"):
        kind(np.zeros((2, 2, 2), dtype), (1, 1))
    with pytest.raises(InputError):
        kind(np.zeros((2, 2, 2), dtype), (1, 0, 1))
    with pytest.raises(InputError):
        kind(np.zeros((2, 2, 2), dtype), (1, -3, 1))
    with pytest.raises(InputError, match="positive and finite"):
        kind(np.zeros((2, 2, 2), dtype), (1, float("nan"), 1))


@pytest.mark.parametrize(
    "spacing", [(1e300, 1e300, 1e300), (1e-200, 1e-200, 1e-200), (1e154, 1e154, 1.0)],
    ids=["voxel_overflows", "voxel_underflows", "grid_overflows"],
)
def test_volume_rejects_spacing_whose_grid_volume_is_not_finite_and_positive(spacing):
    with pytest.raises(InputError, match=r"^spacing_mm .* gives a grid of (inf|0\.0) mm\^3$"):
        Volume(np.zeros((4, 4, 4)), spacing)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_rejects_a_float_payload_with_non_finite_values(bad, tmp_path):
    data = np.full((2, 3, 4), -500.0, dtype=np.float32)
    data[1, 2, 3] = bad
    with pytest.raises(HeaderError, match=r"^payload .*v\.raw holds non-finite values$"):
        write_volume(Volume(data, (1.0, 1.0, 1.0)), tmp_path / "v")  # refused with the reader's message
    assert not list(tmp_path.iterdir())
    header = {"dims": [2, 3, 4], "spacing_mm": [1.0, 1.0, 1.0], "dtype": "float32", "byte_order": "little"}
    (tmp_path / "v.json").write_text(json.dumps(header))
    (tmp_path / "v.raw").write_bytes(data.astype("<f4").tobytes())
    with pytest.raises(HeaderError, match=r"v\.json: payload .*v\.raw holds non-finite values"):
        read_volume(tmp_path / "v")


@GRID_KINDS
def test_volume_data_is_frozen(kind, dtype):
    v = kind(np.zeros((2, 2, 2), dtype), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1


def test_mask_rejects_labels_outside_declared_set():
    with pytest.raises(InputError):
        LabelMask(np.full((2, 2, 2), 6, dtype=np.uint8), (1, 1, 1))
    with pytest.raises(InputError):
        LabelMask(np.full((2, 2, 2), 2, dtype=np.uint8), (1, 1, 1), allowed_labels=(1,))
    LabelMask(np.full((2, 2, 2), 5, dtype=np.uint8), (1, 1, 1))  # ok


@pytest.mark.parametrize(
    "labels, dtype, allowed, message",
    [
        ([0, -1, 3], np.int16, (1, 2, 3, 4, 5), "[-1] outside allowed set (0, 1, 2, 3, 4, 5)"),
        ([-3, 7, 5], np.int16, (1, 2, 3, 4, 5), "[-3, 7] outside allowed set (0, 1, 2, 3, 4, 5)"),
        ([0, 6, 1], np.uint8, (1, 2, 3, 4, 5), "[6] outside allowed set (0, 1, 2, 3, 4, 5)"),
        ([0, 2, 1], np.uint8, (1,), "[2] outside allowed set (0, 1)"),
        ([0, -1, 1], np.int16, (1,), "[-1] outside allowed set (0, 1)"),
    ],
)
def test_mask_rejection_names_labels_and_allowed_set(labels, dtype, allowed, message):
    data = np.array(labels, dtype=dtype).reshape(1, 1, 3)
    with pytest.raises(InputError) as exc:
        LabelMask(data, (1, 1, 1), allowed)
    assert str(exc.value) == f"mask contains labels {message}"


@pytest.mark.parametrize(
    "labels, dtype, allowed",
    [
        ([0, 0, 0], np.int16, (1, 2, 3, 4, 5)),
        ([0, 0, 0], np.uint8, (1,)),
        ([0, 1, 1], np.int16, (1,)),
        ([4, 2, 3], np.uint8, (1, 2, 3, 4, 5)),
        ([5, 0, 1], np.int16, (1, 2, 3, 4, 5)),
    ],
)
def test_mask_accepts_labels_in_allowed_set(labels, dtype, allowed):
    data = np.array(labels, dtype=dtype).reshape(1, 1, 3)
    assert LabelMask(data, (1, 1, 1), allowed).data.tolist() == [[labels]]


@pytest.mark.parametrize("allowed", [(1, 3), (2, 3), (0, 1), (1, 2), (1, 2, 3, 4, 5, 6), (), [1]])
def test_a_label_set_other_than_the_lobes_or_abnormal_is_refused_naming_allowed_labels(allowed, tmp_path):
    # A mask holds the five lobe labels or the one abnormal label; the file
    # readers refuse any other set before they read the file.
    data = np.zeros((1, 1, 3), np.uint8)
    write_volume(LabelMask(data, (1, 1, 1)), tmp_path / "m")
    makers = [
        lambda: LabelMask(data, (1, 1, 1), allowed),
        lambda: GridFile(tmp_path / "m.json", tmp_path / "m.raw", data, (1.0, 1.0, 1.0), allowed),
        lambda: open_mask(tmp_path / "m", allowed),
        lambda: read_mask(tmp_path / "m", allowed),
        lambda: open_mask(tmp_path / "missing", allowed),
        lambda: read_mask(tmp_path / "missing", allowed),
    ]
    for make in makers:
        with pytest.raises(InputError, match=r"^allowed_labels: unsupported value "):
            make()


def test_mask_rejects_float_dtype():
    with pytest.raises(InputError):
        LabelMask(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))


def test_geometry_check():
    a = make_volume(np.zeros((2, 2, 2)))
    b = make_volume(np.zeros((2, 2, 3)))
    c = make_volume(np.zeros((2, 2, 2)), spacing=(1, 1, 2))
    check_same_geometry(("a", a), ("a again", a))
    with pytest.raises(GeometryError) as exc:
        check_same_geometry(("a", a), ("b", b))
    assert str(exc.value) == (
        "geometry mismatch: a: dims (2, 2, 2) spacing (1.0, 1.0, 1.0) vs b: dims (2, 2, 3) spacing (1.0, 1.0, 1.0)")
    with pytest.raises(GeometryError) as exc:
        check_same_geometry(("a", a), ("a again", a), ("c", c))
    assert str(exc.value).startswith("geometry mismatch: a: dims ")
    assert " vs c: dims (2, 2, 2) spacing (1.0, 1.0, 2.0)" in str(exc.value)


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
    with pytest.raises(HeaderError, match=r"dt\.json: dtype: unsupported value 'float64'"):
        read_volume(tmp_path / "dt")
    header = {"spacing_mm": [1, 1, 1], "dtype": "int16", "byte_order": "little"}
    (tmp_path / "nf.json").write_text(json.dumps(header))
    with pytest.raises(HeaderError, match="missing field"):
        read_volume(tmp_path / "nf")
    (tmp_path / "list.json").write_text("[1, 2, 3]")
    with pytest.raises(HeaderError, match=r"list\.json: expected a JSON object, got list"):
        read_volume(tmp_path / "list")
    good = {"dims": [1, 1, 1], "spacing_mm": [1.0, 1.0, 1.0], "dtype": "int16", "byte_order": "little"}
    for name, field, value in [
        ("unit", "spacing_mm", [1.0, 1.0, "1.0mm"]),
        ("scalar_spacing", "spacing_mm", 1.0),
        ("scalar_dims", "dims", 1),
    ]:
        (tmp_path / f"{name}.json").write_text(json.dumps({**good, field: value}))
        (tmp_path / f"{name}.raw").write_bytes(b"\x00" * 2)
        with pytest.raises(HeaderError, match=rf"{name}\.json: {field}: "):
            read_volume(tmp_path / name)


def test_write_rejects_unsupported_dtype(tmp_path):
    v = Volume(np.zeros((2, 2, 2), dtype=np.float64), (1, 1, 1))
    with pytest.raises(InputError, match="unsupported dtype"):
        write_volume(v, tmp_path / "v")


@settings(max_examples=150, deadline=None)
@given(
    array=hnp.arrays(st.sampled_from([np.dtype(d) for d in ("int16", "float32", "uint8")]),
                     st.tuples(*[st.integers(1, 4)] * 3)),
    spacing=st.tuples(*[st.floats(1e-90, 1e90)] * 3),
)
def test_every_grid_write_volume_accepts_reads_back_equal(array, spacing):
    """Any payload, NaN and infinities included: write_volume refuses exactly
    the non-finite float grids, and every grid it writes reads back with
    equal dtype, dims, spacing and bytes."""
    grid = Volume(array, spacing)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "grid"
        if not np.isfinite(array).all():
            with pytest.raises(HeaderError, match="holds non-finite values"):
                write_volume(grid, base)
            assert not list(Path(tmp).iterdir())
            return
        write_volume(grid, base)
        back = read_volume(base)
    assert back.data.dtype == grid.data.dtype
    assert back.dims == grid.dims
    assert back.spacing_mm == grid.spacing_mm
    assert back.data.tobytes() == grid.data.tobytes()


@pytest.mark.parametrize("make", [
    lambda a: a[:, ::2],  # a strided view
    lambda a: a.astype(">i2"),  # big-endian
], ids=["strided_view", "big_endian"])
def test_write_volume_of_a_non_native_layout_writes_little_endian_c_order(make, tmp_path):
    data = make(np.arange(-60, 60, dtype=np.int16).reshape(3, 8, 5) * 271)
    assert not (data.flags.c_contiguous and data.dtype == np.dtype("<i2"))
    write_volume(Volume(data, (1.0, 1.0, 1.0)), tmp_path / "g")
    assert (tmp_path / "g.raw").read_bytes() == np.ascontiguousarray(data, dtype="<i2").tobytes()
    np.testing.assert_array_equal(read_volume(tmp_path / "g").data, data)


def test_mask_roundtrip(tmp_path):
    m = LabelMask(np.arange(6, dtype=np.uint8).reshape(1, 2, 3) % 6, (2.0, 1.0, 1.0))
    write_volume(m, tmp_path / "m")
    back = read_mask(tmp_path / "m")
    np.testing.assert_array_equal(back.data, m.data)


# ---------------------------------------------------------------------------
# Grid files read in z-slabs
# ---------------------------------------------------------------------------

# 9 planes of 256x256: the slab size fits 4 planes, so the slabs hold 4, 4 and 1.
SLABBED_DIMS = (9, 256, 256)


def _slabbed_mask(tmp_path, bad=()):
    """A uint8 lobe mask file of SLABBED_DIMS; each (z, label) in `bad` puts
    `label` at one voxel of plane z."""
    data = (np.arange(np.prod(SLABBED_DIMS)) % 6).astype(np.uint8).reshape(SLABBED_DIMS)
    for z, label in bad:
        data[z, 100, 200] = label
    (tmp_path / "m.json").write_text(json.dumps(
        {"dims": list(SLABBED_DIMS), "spacing_mm": [1.0, 0.7, 0.7], "dtype": "uint8", "byte_order": "little"}))
    (tmp_path / "m.raw").write_bytes(data.tobytes())
    return data


def test_a_grid_is_read_in_slabs_of_whole_planes_that_need_not_divide_its_depth(tmp_path):
    data = _slabbed_mask(tmp_path)
    grid = open_mask(tmp_path / "m")
    in_memory = read_mask(tmp_path / "m")
    for slabs in (list(grid.slabs()), list(in_memory.slabs())):
        assert [s.shape[0] for s in slabs] == [4, 4, 1]
        assert np.array_equal(np.concatenate(slabs), data)
    # The grid file holds no voxels: its data is a zero-stride shell.
    assert grid.data.shape == SLABBED_DIMS and grid.data.strides == (0, 0, 0)
    assert grid.data.size == in_memory.data.size and not grid.data.flags.writeable
    assert (grid.dims, grid.spacing_mm, grid.voxel_volume_mm3) == (
        in_memory.dims, in_memory.spacing_mm, in_memory.voxel_volume_mm3)
    # A plane larger than the slab size is a slab of its own; a small case is one slab.
    assert [s.shape for s in Volume(np.zeros((3, 1025, 1024), np.uint8), (1, 1, 1)).slabs()] == [(1, 1025, 1024)] * 3
    assert [s.shape for s in Volume(np.zeros((16, 28, 28), np.uint8), (1, 1, 1)).slabs()] == [(16, 28, 28)]


@pytest.mark.parametrize("bad, labels", [
    ([(8, 7)], "[7]"),  # only in the last slab
    ([(1, 9), (8, 7)], "[7, 9]"),  # in the first slab and the last: every bad label is named
])
def test_a_bad_label_in_a_slab_gives_the_whole_mask_message(bad, labels, tmp_path):
    _slabbed_mask(tmp_path, bad)
    with pytest.raises(HeaderError) as whole:
        read_mask(tmp_path / "m")
    assert str(whole.value) == f"{tmp_path / 'm.json'}: mask contains labels {labels} outside allowed set (0, 1, 2, 3, 4, 5)"
    read = []
    with pytest.raises(HeaderError) as slabbed:
        for slab in open_mask(tmp_path / "m").slabs():
            read.append(slab)
    assert str(slabbed.value) == str(whole.value)
    assert len(read) == bad[0][0] // 4  # no slab with a bad label is handed out


def test_a_float_slab_with_nan_names_the_file(tmp_path):
    data = np.full(SLABBED_DIMS, -700.0, dtype=np.float32)
    data[-1, 0, 0] = np.nan
    (tmp_path / "v.json").write_text(json.dumps(
        {"dims": list(SLABBED_DIMS), "spacing_mm": [1.0, 1.0, 1.0], "dtype": "float32", "byte_order": "little"}))
    (tmp_path / "v.raw").write_bytes(data.tobytes())
    grid = open_volume(tmp_path / "v")
    with pytest.raises(HeaderError, match=rf"^{tmp_path / 'v.json'}: payload {tmp_path / 'v.raw'} holds non-finite"):
        list(grid.slabs())


def test_a_payload_that_shrinks_after_its_header_is_checked_names_the_raw_file(tmp_path):
    _slabbed_mask(tmp_path)
    grid = open_mask(tmp_path / "m")
    raw = tmp_path / "m.raw"
    raw.write_bytes(raw.read_bytes()[:-10])
    with pytest.raises(HeaderError, match=rf"^{tmp_path / 'm.json'}: payload {raw} ended 10 bytes short"):
        list(grid.slabs())


def test_opening_a_grid_checks_its_header_as_reading_does(tmp_path):
    header = {"dims": [2, 3, 4], "spacing_mm": [1.0, 1.0, 1.0], "dtype": "float32", "byte_order": "little"}
    cases = {
        "short": (header, 2 * 3 * 4 * 4 - 1),
        "spacing": ({**header, "spacing_mm": [1.0, -1.0, 1.0]}, 96),
        "huge": ({**header, "dims": [100000, 100000, 100000]}, 96),
    }
    for name, (doc, size) in cases.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        (tmp_path / f"{name}.raw").write_bytes(b"\0" * size)
        with pytest.raises(HeaderError) as read:
            read_volume(tmp_path / name)
        with pytest.raises(HeaderError) as opened:
            open_volume(tmp_path / name)
        assert str(opened.value) == str(read.value)
        assert str(opened.value).startswith(f"{tmp_path / name}.json: ")
    (tmp_path / "f.json").write_text(json.dumps(header))
    (tmp_path / "f.raw").write_bytes(b"\0" * 96)
    with pytest.raises(HeaderError, match=r"f\.json: mask dtype must be integer, got float32"):
        open_mask(tmp_path / "f")


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

# Both resamplers put every grid at RESAMPLE_SPACING_MM, so the tests below
# reach each up- and down-sampling ratio through the input spacing.

def test_resample_constant_volume_stays_constant():
    v = make_volume(np.full((4, 5, 6), -600.0), spacing=(6.0, 2.0, 0.5))
    out = resample(v)
    assert out.dims == (8, 10, 3)
    assert out.spacing_mm == RESAMPLE_SPACING_MM
    np.testing.assert_allclose(out.data, -600.0, rtol=0, atol=0)


def test_resample_identity_spacing():
    rng = np.random.default_rng(3)
    v = make_volume(rng.standard_normal((4, 5, 6)), spacing=(3.0, 1.0, 1.0))
    tri = resample(v)
    np.testing.assert_array_equal(tri.data, v.data)
    m = LabelMask(rng.integers(0, 6, size=(4, 5, 6)).astype(np.uint8), v.spacing_mm)
    near = resample_mask(m)
    np.testing.assert_array_equal(near.data, m.data)


def test_resample_trilinear_reproduces_affine_ramp():
    # f(z,y,x) = x on a 2 mm x axis; resample to 1 mm. Each output voxel j
    # samples source coordinate clamp(j*0.5, 0, X-1), where the ramp value
    # is the coordinate itself.
    X = 8
    data = np.broadcast_to(np.arange(X, dtype=np.float64), (4, 4, X)).copy()
    v = make_volume(data, spacing=(3.0, 1.0, 2.0))
    out = resample(v)
    assert out.dims == (4, 4, 16)
    expected_x = np.clip(np.arange(16) * 0.5, 0, X - 1)
    expected = np.broadcast_to(expected_x, (4, 4, 16))
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def nearest_gather(data, spacing):
    """Reference: per axis, output voxel j takes the source voxel nearest to
    j * target / spacing, rounded half up and clamped to the last index."""
    out = data
    for axis, (d, s, t) in enumerate(zip(data.shape, spacing, RESAMPLE_SPACING_MM)):
        n = max(1, int(np.floor(d * s / t + 0.5)))
        idx = np.minimum(np.floor(np.arange(n) * t / s + 0.5).astype(np.intp), d - 1)
        out = np.take(out, idx, axis=axis)
    return out


def test_resample_mask_equals_a_nearest_index_gather():
    # Up by 3 in z and by 1/0.6 in y (the last y voxels clamp to the edge),
    # down by 1.4 in x; no output voxel centre sits halfway between two
    # source voxels, where float rounding could pick either.
    rng = np.random.default_rng(5)
    data = rng.integers(0, 6, size=(5, 7, 6)).astype(np.int16)
    spacing = (9.0, 1.0 / 0.6, 1.0 / 1.4)
    out = resample_mask(LabelMask(data, spacing))
    want = nearest_gather(data, spacing)
    assert out.dims == want.shape == (15, 12, 4)
    assert out.data.dtype == np.int16 and out.allowed_labels == LOBE_LABELS
    np.testing.assert_array_equal(out.data, want)


def test_resample_mask_preserves_labels():
    m = LabelMask(np.random.default_rng(0).integers(0, 6, size=(6, 6, 6)).astype(np.uint8), (6, 1, 1))
    out = resample_mask(m)
    assert set(np.unique(out.data)) <= set(np.unique(m.data))
    assert out.dims == (12, 6, 6)


def eight_corner_trilinear(data, spacing, target):
    """Reference: interpolate the eight corners of each cell, x first, on a float64 copy.

    Returns the output grid and a mask of the output voxels whose eight
    corners hold one value.
    """
    dims = tuple(
        max(1, int(np.floor(d * si / so + 0.5))) for d, si, so in zip(data.shape, spacing, target)
    )
    coords = [
        np.clip(np.arange(od, dtype=np.float64) * (so / si), 0.0, d - 1)
        for od, d, si, so in zip(dims, data.shape, spacing, target)
    ]
    data = data.astype(np.float64)
    lo = [np.minimum(np.floor(c).astype(np.intp), d - 1) for c, d in zip(coords, data.shape)]
    hi = [np.minimum(l + 1, d - 1) for l, d in zip(lo, data.shape)]
    fz, fy, fx = (c - l for c, l in zip(coords, lo))
    fz, fy, fx = fz[:, None, None], fy[None, :, None], fx[None, None, :]

    def lerp(a, b, f):
        return a + f * (b - a)

    corners = {
        (iz, iy, ix): data[np.ix_(pz, py, px)]
        for iz, pz in enumerate((lo[0], hi[0]))
        for iy, py in enumerate((lo[1], hi[1]))
        for ix, px in enumerate((lo[2], hi[2]))
    }
    c00 = lerp(corners[0, 0, 0], corners[0, 0, 1], fx)
    c01 = lerp(corners[0, 1, 0], corners[0, 1, 1], fx)
    c10 = lerp(corners[1, 0, 0], corners[1, 0, 1], fx)
    c11 = lerp(corners[1, 1, 0], corners[1, 1, 1], fx)
    out = lerp(lerp(c00, c01, fy), lerp(c10, c11, fy), fz)
    flat = corners[0, 0, 0]
    constant = np.logical_and.reduce([c == flat for c in corners.values()])
    return out, constant


_axis_dims = st.integers(min_value=1, max_value=9)
_spacings = st.sampled_from([0.3, 0.7, 1.0, 1.5, 3.0, 5.0])


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dims=st.tuples(_axis_dims, _axis_dims, _axis_dims),
    spacing=st.tuples(_spacings, _spacings, _spacings),
    target=st.tuples(_spacings, _spacings, _spacings),
    dtype=st.sampled_from(["int16", "float64"]),
)
def test_resample_trilinear_matches_eight_corner_reference(seed, dims, spacing, target, dtype):
    # Covers downsampling, upsampling and size-1 axes (input or output): each
    # axis's input spacing makes its ratio to the output spacing spacing/target.
    rng = np.random.default_rng(seed)
    if dtype == "int16":
        data = rng.integers(-32768, 32768, size=dims).astype(np.int16)
    else:
        data = rng.uniform(-3000.0, 3000.0, size=dims)
    spacing = tuple(r * s / t for r, s, t in zip(RESAMPLE_SPACING_MM, spacing, target))
    out = resample(Volume(data, spacing))
    want, _ = eight_corner_trilinear(data, spacing, RESAMPLE_SPACING_MM)
    assert out.data.dtype == np.float64
    assert out.dims == want.shape
    assert np.max(np.abs(out.data - want)) <= 1e-9


@pytest.mark.parametrize("spacing", [(1.0, 0.7, 0.7), (6.0, 2.0, 2.0), (3.0 / 7.0, 0.7 / 0.3, 0.7 / 9.0)])
def test_resample_trilinear_keeps_constant_regions_exact(spacing):
    # Piecewise-constant HU blocks: wherever all eight corners of a cell hold
    # one value, the output is that value bit for bit.
    rng = np.random.default_rng(11)
    blocks = rng.integers(-1024, 400, size=(3, 4, 4)).astype(np.int16)
    data = np.repeat(np.repeat(np.repeat(blocks, 6, axis=0), 9, axis=1), 9, axis=2)
    out = resample(Volume(data, spacing))
    want, constant = eight_corner_trilinear(data, spacing, RESAMPLE_SPACING_MM)
    assert constant.any() and not constant.all()
    np.testing.assert_array_equal(out.data[constant], want[constant])
    assert np.max(np.abs(out.data - want)) <= 1e-9


def whole_grid_passes(data, spacing, target):
    """Trilinear resampling as three whole-grid 1-D passes (z, y, x), each
    voxel computed as lo + f*(hi - lo) in float64."""
    out = data
    for axis, (d, si, so) in enumerate(zip(data.shape, spacing, target)):
        n = max(1, int(np.floor(d * si / so + 0.5)))
        c = np.clip(np.arange(n, dtype=np.float64) * (so / si), 0.0, d - 1)
        lo = np.minimum(np.floor(c).astype(np.intp), d - 1)
        hi = np.minimum(lo + 1, d - 1)
        shape = [1, 1, 1]
        shape[axis] = -1
        f = (c - lo).reshape(shape)
        a_lo = np.take(out, lo, axis=axis).astype(np.float64)
        a_hi = np.take(out, hi, axis=axis).astype(np.float64)
        out = a_lo + f * (a_hi - a_lo)
    return out


def random_grid(rng, shape, dtype):
    """Random voxels over the whole range of an integer dtype, or HU-like
    float32 values with a tenth of them -0.0."""
    if dtype == "float32":
        data = rng.uniform(-3000.0, 3000.0, size=shape).astype(np.float32)
        data[rng.random(shape) < 0.1] = -0.0
        return data
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=shape, endpoint=True).astype(dtype)


@pytest.mark.parametrize("out_z", [1, 5, 11])
@pytest.mark.parametrize("dtype", ["int16", "uint8", "float32"])
def test_resample_in_slabs_equals_whole_grid_passes_bit_for_bit(dtype, out_z, monkeypatch):
    # Every grid is split over three workers, so 5 and 11 output planes split unevenly.
    monkeypatch.setattr(volume_mod, "SLAB_VOXELS", 0)
    monkeypatch.setattr(volume_mod, "WORKERS", 3)
    data = random_grid(np.random.default_rng(out_z), (7, 11, 10), dtype)
    spacing = (3.0 * out_z / 7.0, 0.7, 0.7)
    out = resample(Volume(data, spacing))
    assert out.dims[0] == out_z
    assert out_z == 1 or out_z % volume_mod.WORKERS
    want = whole_grid_passes(data, spacing, RESAMPLE_SPACING_MM)
    assert out.data.dtype == want.dtype and out.dims == want.shape
    assert out.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("z_mm", [1.0, 0.5, 1.25], ids=["z-ratio-3", "z-ratio-6", "z-ratio-2.4"])
@pytest.mark.parametrize("dtype", ["int16", "uint8", "float32"])
def test_resample_and_clip_normalize_bytes_do_not_depend_on_the_worker_count(dtype, z_mm, monkeypatch):
    # Each grid resamples to more than SLAB_VOXELS voxels, so it is split
    # over the workers whenever there is more than one. On 1 mm rows and
    # columns every y and x sample is exact, so a float -0.0 on an exact
    # z-plane keeps its sign through to the output unless the z-lerp, as in
    # whole_grid_passes, makes it +0.0.
    data = random_grid(np.random.default_rng(7), (36, 256, 256), dtype)
    grid = Volume(data, (z_mm, 1.0, 1.0))
    assert np.prod(resampled_dims(grid)) > volume_mod.SLAB_VOXELS
    window = np.clip(data, -1350.0, 150.0, dtype=np.float64)
    want = (whole_grid_passes(data, grid.spacing_mm, RESAMPLE_SPACING_MM).tobytes(),
            ((window + 1350.0) / 1500.0).astype(np.float32).tobytes())
    for workers in (1, volume_mod.WORKERS, 3):
        monkeypatch.setattr(volume_mod, "WORKERS", workers)
        assert (resample(grid).data.tobytes(), clip_normalize(grid).data.tobytes()) == want, workers


@pytest.mark.parametrize("workers", [1, 2])
def test_resample_and_clip_normalize_hold_a_few_planes_per_worker(workers, monkeypatch):
    """numpy reports its buffers to tracemalloc: above the input and the
    output, each call holds at most four float64 source planes per worker,
    where a window through a whole float64 grid holds 40."""
    monkeypatch.setattr(volume_mod, "WORKERS", workers)
    rng = np.random.default_rng(5)
    grid = Volume(rng.integers(-1024, 400, size=(40, 256, 256)).astype(np.int16), (1.0, 0.7, 0.7))
    plane_bytes = 256 * 256 * 8
    for op in (resample, clip_normalize):
        tracemalloc.start()
        try:
            out = op(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes <= 4 * workers * plane_bytes, op.__name__


def test_resampled_dims_admit_a_chest_and_the_default_box_and_refuse_more_than_the_budget():
    def shell(dims, spacing):
        return Volume(np.broadcast_to(np.int16(0), dims), spacing)

    assert resampled_dims(shell((300, 512, 512), (1.0, 0.7, 0.7))) == (100, 358, 358)
    assert resampled_dims(shell((384, 384, 384), RESAMPLE_SPACING_MM)) == (384, 384, 384)
    assert resampled_dims(shell((512, 512, 512), RESAMPLE_SPACING_MM)) == (512, 512, 512)
    assert 512 ** 3 == VOXEL_BUDGET
    for dims, spacing, shown in [((512, 512, 513), RESAMPLE_SPACING_MM, "512x512x513"),
                                 ((8, 32, 32), (1e6, 1.5, 1.0), "2666667x48x32"),
                                 ((8, 32, 32), (1e300, 1.0, 1.0), "2.67e+300x32x32"),
                                 ((8, 32, 32), (1e308, 1e-10, 1e-10), "infx1x1")]:
        with pytest.raises(InputError) as caught:
            resample(shell(dims, spacing))
        assert str(caught.value) == (f"spacing_mm: resampling to 3x1x1 mm makes {shown} voxels, "
                                     f"over the budget of {VOXEL_BUDGET}")


# ---------------------------------------------------------------------------
# clip_normalize
# ---------------------------------------------------------------------------

def test_clip_normalize_known_values():
    # The window is computed in float64, then cast to float32.
    hu = np.array([[[-1350.0, 150.0, -600.0, -1024.0, -5000.0, 5000.0]]])
    out = clip_normalize(make_volume(hu))
    assert out.data.dtype == np.float32
    expected = np.array([0.0, 1.0, 0.5, (-1024.0 + 1350.0) / 1500.0, 0.0, 1.0]).astype(np.float32)
    np.testing.assert_array_equal(out.data[0, 0], expected)
    np.testing.assert_array_equal(out.data, ((np.clip(hu, -1350.0, 150.0) + 1350.0) / 1500.0).astype(np.float32))
    assert out.data[0, 0, 3] == np.float32(0.21733333333333332)


def test_clip_normalize_bounds_and_monotone():
    rng = np.random.default_rng(9)
    a = rng.uniform(-3000, 3000, size=(4, 4, 4))
    b = a + rng.uniform(0, 500, size=a.shape)  # b >= a pointwise
    wa = clip_normalize(make_volume(a))
    wb = clip_normalize(make_volume(b))
    assert np.all(wa.data >= 0.0) and np.all(wa.data <= 1.0)
    assert np.all(wb.data >= wa.data)


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


def nonzero_mean_center(mask):
    """Mean of each axis's np.nonzero indices, rounded half up."""
    return tuple(int(np.floor(float(np.mean(idx)) + 0.5)) for idx in np.nonzero(mask))


def _center_cases():
    rng = np.random.default_rng(13)
    for _ in range(300):
        shape = tuple(rng.integers(1, 12, size=3))
        mask = rng.random(shape) < rng.uniform(0.01, 0.9)
        mask.flat[rng.integers(mask.size)] = True
        yield mask.astype(rng.choice([np.uint8, np.int16]))
    one = np.zeros((5, 6, 7), dtype=np.uint8)
    one[4, 0, 6] = 3
    yield one
    faces = np.zeros((5, 6, 7), dtype=np.uint8)
    faces[[0, -1]] = 1
    faces[:, [0, -1]] = 2
    faces[:, :, [0, -1]] = 5
    yield faces
    for axis in range(3):  # the mean on `axis` is k + 0.5
        tie = np.zeros((4, 4, 4), dtype=np.uint8)
        tie[(1,) * axis + (slice(1, 3),) + (1,) * (2 - axis)] = 1
        yield tie


def test_lung_center_equals_the_rounded_mean_of_nonzero_indices():
    for mask in _center_cases():
        assert lung_center(LabelMask(mask, (1, 1, 1))) == nonzero_mean_center(mask)


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


def test_crop_box_keeps_dtype_and_rejects_a_pad_it_cannot_hold():
    v = make_volume(np.arange(64, dtype=np.int16).reshape(4, 4, 4))
    out = crop_box(v, center=(0, 0, 0), box=(4, 4, 4), pad_value=AIR_HU)
    assert out.data.dtype == np.int16
    assert out.data[0, 0, 0] == AIR_HU
    np.testing.assert_array_equal(out.data[2:, 2:, 2:], v.data[:2, :2, :2])
    with pytest.raises(InputError, match="pad value 0.5"):
        crop_box(v, center=(0, 0, 0), box=(4, 4, 4), pad_value=0.5)
