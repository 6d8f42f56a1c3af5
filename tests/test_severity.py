"""Severity measure tests with brute-force per-voxel oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungsev import phantom
from lungsev import volume as volume_mod
from lungsev.errors import EmptyMaskError, GeometryError, InputError
from lungsev.severity import (
    LobeRecord,
    SeverityReport,
    compute_report,
    lobe_score,
)
from lungsev.volume import LOBE_LABELS, LabelMask, Volume, open_mask, open_volume, read_mask, read_volume, write_volume

SPACING = (1.0, 1.0, 1.0)


def lobes_mask(arr, spacing=SPACING):
    return LabelMask(np.asarray(arr, dtype=np.uint8), spacing)


def abn_mask(arr, spacing=SPACING):
    return LabelMask(np.asarray(arr, dtype=np.uint8), spacing, allowed_labels=(1,))


def po_of(lobes, abn):
    """PO from compute_report, on a uniform raw-HU volume of the lobes' grid."""
    hu = Volume(np.full(lobes.dims, -800.0, dtype=np.float32), lobes.spacing_mm)
    return compute_report(hu, lobes, abn).po


def random_case(seed, dims=(12, 14, 10), spacing=SPACING):
    rng = np.random.default_rng(seed)
    lobes = rng.integers(0, 6, size=dims).astype(np.uint8)
    abn = (rng.random(dims) < 0.3).astype(np.uint8)
    hu = rng.uniform(-1000.0, 100.0, size=dims).astype(np.float32)
    return (
        Volume(hu, spacing),
        lobes_mask(lobes, spacing),
        abn_mask(abn, spacing),
    )


def report_oracle(v, lobes, abn, threshold=-200.0):
    """Independent single-pass voxel loop over plain Python lists."""
    hu = v.data.tolist()
    lab = lobes.data.tolist()
    ab = abn.data.tolist()
    zdim, ydim, xdim = lobes.dims
    n = {k: 0 for k in (1, 2, 3, 4, 5)}
    na = {k: 0 for k in (1, 2, 3, 4, 5)}
    nh = {k: 0 for k in (1, 2, 3, 4, 5)}
    for z in range(zdim):
        for y in range(ydim):
            for x in range(xdim):
                label = lab[z][y][x]
                if label == 0:
                    continue
                n[label] += 1
                if ab[z][y][x] > 0:
                    na[label] += 1
                    if hu[z][y][x] >= threshold:
                        nh[label] += 1

    def score(f):
        if f == 0:
            return 0
        if f <= 0.25:
            return 1
        if f <= 0.5:
            return 2
        if f <= 0.75:
            return 3
        return 4

    lung = sum(n.values())
    abn_total = sum(na.values())
    high_total = sum(nh.values())
    fracs = {k: (na[k] / n[k] if n[k] else 0.0) for k in n}
    hfracs = {k: (nh[k] / n[k] if n[k] else 0.0) for k in n}
    return {
        "po": 100.0 * abn_total / lung,
        "pho": 100.0 * high_total / lung,
        "lss": sum(score(fracs[k]) for k in fracs),
        "lhos": sum(score(hfracs[k]) for k in hfracs),
        "fracs": fracs,
        "hfracs": hfracs,
        "lobe_counts": n,
        "lung": lung,
        "abn": abn_total,
        "high": high_total,
    }


# ---------------------------------------------------------------------------
# PO
# ---------------------------------------------------------------------------

def test_po_empty_abnormality_is_zero():
    lobes = lobes_mask(np.ones((4, 4, 4)))
    abn = abn_mask(np.zeros((4, 4, 4)))
    assert po_of(lobes, abn) == 0.0


def test_po_simple_ratio():
    lobes = lobes_mask(np.ones((10, 10, 10)))
    abn = np.zeros((10, 10, 10))
    abn[:, :5, :5] = 1  # 250 voxels
    assert po_of(lobes, abn_mask(abn)) == 25.0


def test_po_ignores_abnormality_outside_lung():
    lobes = np.zeros((4, 4, 4))
    lobes[0] = 1
    abn = np.ones((4, 4, 4))  # covers lung and background alike
    assert po_of(lobes_mask(lobes), abn_mask(abn)) == 100.0


def test_po_empty_lung_raises():
    with pytest.raises(EmptyMaskError):
        po_of(lobes_mask(np.zeros((3, 3, 3))), abn_mask(np.zeros((3, 3, 3))))


def test_po_geometry_mismatch_raises():
    with pytest.raises(GeometryError):
        po_of(lobes_mask(np.ones((3, 3, 3))), abn_mask(np.zeros((3, 3, 4))))


@pytest.mark.parametrize("role", ["lobes", "abnorm"])
def test_geometry_mismatch_names_the_grids_by_role(role):
    grids = {"lobes": lobes_mask(np.ones((3, 3, 3))), "abnorm": abn_mask(np.zeros((3, 3, 3)))}
    grids[role] = LabelMask(grids[role].data, (1.0, 1.0, 2.0), grids[role].allowed_labels)
    hu = Volume(np.full((3, 3, 3), -800.0), SPACING)
    with pytest.raises(GeometryError) as exc:
        compute_report(hu, grids["lobes"], grids["abnorm"])
    assert str(exc.value).startswith("geometry mismatch: volume: dims (3, 3, 3) spacing (1.0, 1.0, 1.0) vs ")
    assert str(exc.value).endswith(f" vs {role}: dims (3, 3, 3) spacing (1.0, 1.0, 2.0)")


# ---------------------------------------------------------------------------
# PHO
# ---------------------------------------------------------------------------

def test_pho_threshold_example():
    lobes = lobes_mask(np.ones((2, 2, 2)))
    abn = np.zeros((2, 2, 2))
    abn[0] = 1  # 4 abnormal voxels
    hu = np.full((2, 2, 2), -800.0, dtype=np.float32)
    hu[0, 0, 0] = -500.0
    hu[0, 0, 1] = -300.0
    hu[0, 1, 0] = -100.0
    hu[0, 1, 1] = 0.0
    pho = compute_report(Volume(hu, SPACING), lobes, abn_mask(abn)).pho
    assert pho == 25.0  # two of eight lung voxels at or above -200


def test_pho_all_below_threshold_is_zero():
    lobes = lobes_mask(np.ones((3, 3, 3)))
    abn = abn_mask(np.ones((3, 3, 3)))
    hu = Volume(np.full((3, 3, 3), -700.0, dtype=np.float32), SPACING)
    assert compute_report(hu, lobes, abn).pho == 0.0


def test_pho_threshold_boundary_inclusive():
    lobes = lobes_mask(np.ones((1, 1, 2)))
    abn = abn_mask(np.ones((1, 1, 2)))
    hu = Volume(np.array([[[-200.0, -200.0000001]]]), SPACING)
    assert compute_report(hu, lobes, abn).pho == 50.0


def test_pho_never_exceeds_po():
    for seed in range(10):
        v, lobes, abn = random_case(seed)
        report = compute_report(v, lobes, abn)
        assert report.pho <= report.po


def test_pho_rejects_normalized_volume():
    lobes = lobes_mask(np.ones((3, 3, 3)))
    abn = abn_mask(np.ones((3, 3, 3)))
    normalized = Volume(np.random.default_rng(0).random((3, 3, 3)), SPACING)
    with pytest.raises(InputError):
        compute_report(normalized, lobes, abn)


def test_report_rejects_an_unsigned_volume():
    lobes = lobes_mask(np.full((3, 3, 3), 2))
    abn = abn_mask(np.ones((3, 3, 3)))
    labels = Volume(lobes.data.copy(), SPACING)  # a label grid given as the volume: every voxel 2 "HU"
    with pytest.raises(InputError, match=r"^volume dtype uint8 is unsigned; high-opacity thresholding needs raw HU$"):
        compute_report(labels, lobes, abn)


# ---------------------------------------------------------------------------
# Lobe score binning
# ---------------------------------------------------------------------------

def test_lobe_score_bins():
    assert lobe_score(0.0) == 0
    assert lobe_score(1e-9) == 1
    assert lobe_score(0.25) == 1
    assert lobe_score(0.250001) == 2
    assert lobe_score(0.50) == 2
    assert lobe_score(0.75) == 3
    assert lobe_score(0.750001) == 4
    assert lobe_score(1.0) == 4


def test_lobe_score_vector_example():
    fractions = (0.30, 0, 0.10, 0.60, 0.90)
    scores = tuple(lobe_score(f) for f in fractions)
    assert scores == (2, 0, 1, 3, 4)
    assert sum(scores) == 10


def test_lobe_score_domain_errors():
    for bad in (-0.01, 1.01, float("nan"), float("inf")):
        with pytest.raises(InputError):
            lobe_score(bad)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_lobe_score_monotone(f1, f2):
    lo, hi = sorted((f1, f2))
    assert lobe_score(lo) <= lobe_score(hi)
    assert (lobe_score(lo) == 0) == (lo == 0.0)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def test_report_empty_abnormality_all_zero():
    dims = (6, 6, 6)
    rng = np.random.default_rng(1)
    lobes = lobes_mask(rng.integers(1, 6, size=dims))
    abn = abn_mask(np.zeros(dims))
    hu = Volume(np.full(dims, -600.0, dtype=np.float32), SPACING)
    rep = compute_report(hu, lobes, abn)
    assert rep.po == 0.0 and rep.pho == 0.0
    assert rep.lss == 0 and rep.lhos == 0
    assert all(r.lobe_score == 0 and r.lobe_ho_score == 0 for r in rep.per_lobe)


def test_report_single_saturated_lobe():
    dims = (5, 5, 5)
    lobes = np.ones(dims)  # everything lobe 1
    lobes[0] = 2  # give lobe 2 some volume, clean
    abn = np.where(lobes == 1, 1, 0)
    hu = np.where(lobes == 1, -50.0, -800.0).astype(np.float32)
    rep = compute_report(Volume(hu, SPACING), lobes_mask(lobes), abn_mask(abn))
    assert rep.lss == 4 and rep.lhos == 4
    assert rep.per_lobe[0].lobe_score == 4 and rep.per_lobe[0].lobe_ho_score == 4
    assert rep.per_lobe[1].lobe_score == 0


def test_report_absent_lobes_contribute_zero():
    dims = (4, 4, 4)
    lobes = np.zeros(dims)
    lobes[:2] = 1
    lobes[2:] = 2  # labels 3..5 absent
    abn = np.zeros(dims)
    abn[0] = 1
    hu = Volume(np.full(dims, -100.0, dtype=np.float32), SPACING)
    rep = compute_report(hu, lobes_mask(lobes), abn_mask(abn))
    for rec in rep.per_lobe[2:]:
        assert rec.lobe_volume_mm3 == 0.0
        assert rec.affected_fraction == 0.0
        assert rec.lobe_score == 0 and rec.lobe_ho_score == 0
    assert rep.lss == rep.per_lobe[0].lobe_score


def test_report_matches_bruteforce_oracle():
    for seed in range(8):
        v, lobes, abn = random_case(seed)
        rep = compute_report(v, lobes, abn)
        ref = report_oracle(v, lobes, abn)
        assert abs(rep.po - ref["po"]) <= 1e-12 * max(1.0, abs(ref["po"]))
        assert abs(rep.pho - ref["pho"]) <= 1e-12 * max(1.0, abs(ref["pho"]))
        assert rep.lss == ref["lss"]
        assert rep.lhos == ref["lhos"]
        for rec in rep.per_lobe:
            k = rec.lobe_label
            assert abs(rec.affected_fraction - ref["fracs"][k]) <= 1e-12
            assert abs(rec.high_opacity_fraction - ref["hfracs"][k]) <= 1e-12
            assert rec.lobe_volume_mm3 == ref["lobe_counts"][k] * lobes.voxel_volume_mm3
        assert rep.lung_volume_mm3 == ref["lung"] * lobes.voxel_volume_mm3
        assert rep.abnormal_volume_mm3 == ref["abn"] * lobes.voxel_volume_mm3


def test_report_internal_invariants():
    for seed in range(20, 30):
        v, lobes, abn = random_case(seed)
        rep = compute_report(v, lobes, abn)
        assert rep.pho <= rep.po
        assert rep.lhos <= rep.lss
        assert rep.lss == sum(r.lobe_score for r in rep.per_lobe)
        assert rep.lhos == sum(r.lobe_ho_score for r in rep.per_lobe)
        for rec in rep.per_lobe:
            assert rec.high_opacity_fraction <= rec.affected_fraction
            assert rec.lobe_score in (0, 1, 2, 3, 4)
        assert rep.po == 100.0 * rep.abnormal_volume_mm3 / rep.lung_volume_mm3
        assert rep.high_opacity_volume_mm3 <= rep.abnormal_volume_mm3
        total_lobe = sum(r.lobe_volume_mm3 for r in rep.per_lobe)
        assert abs(total_lobe - rep.lung_volume_mm3) <= 1e-9 * rep.lung_volume_mm3


def test_report_spacing_invariance():
    v, lobes, abn = random_case(99)
    rep1 = compute_report(v, lobes, abn)
    s = (2.5, 2.5, 2.5)
    rep2 = compute_report(
        Volume(v.data, s),
        LabelMask(lobes.data, s),
        LabelMask(abn.data, s, allowed_labels=(1,)),
    )
    assert rep1.po == rep2.po
    assert rep1.pho == rep2.pho
    assert rep1.lss == rep2.lss
    assert rep1.lhos == rep2.lhos
    assert rep2.lung_volume_mm3 > rep1.lung_volume_mm3


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_adding_abnormal_voxels_never_decreases_measures(seed):
    v, lobes, abn = random_case(seed, dims=(6, 8, 7))
    rep_before = compute_report(v, lobes, abn)
    grown = np.asarray(abn.data).copy()
    lung_clear = (np.asarray(lobes.data) > 0) & (grown == 0)
    idx = np.argwhere(lung_clear)
    if len(idx) == 0:
        return
    rng = np.random.default_rng(seed + 1)
    for pick in rng.choice(len(idx), size=min(5, len(idx)), replace=False):
        z, y, x = idx[pick]
        grown[z, y, x] = 1
    rep_after = compute_report(v, lobes, abn_mask(grown))
    assert rep_after.po >= rep_before.po
    assert rep_after.pho >= rep_before.pho
    assert rep_after.lss >= rep_before.lss
    assert rep_after.lhos >= rep_before.lhos


def test_report_deterministic():
    v, lobes, abn = random_case(7)
    assert compute_report(v, lobes, abn) == compute_report(v, lobes, abn)


def test_report_json_round_trip():
    v, lobes, abn = random_case(42)
    rep = compute_report(v, lobes, abn)
    d = json.loads(json.dumps(rep.to_json_dict()))
    assert SeverityReport.from_json_dict(d) == rep
    assert SeverityReport.from_json_dict(rep.to_json_dict()) == rep
    assert set(d) == {
        "po",
        "pho",
        "lss",
        "lhos",
        "per_lobe",
        "lung_volume_mm3",
        "abnormal_volume_mm3",
        "high_opacity_volume_mm3",
        "threshold_hu",
    }
    assert isinstance(d["lss"], int)
    assert len(d["per_lobe"]) == 5


def test_report_malformed_json_raises():
    with pytest.raises(InputError):
        SeverityReport.from_json_dict({"po": 1.0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "1.0", None])
def test_report_from_json_rejects_a_float_field_that_is_not_a_finite_number(value):
    v, lobes, abn = random_case(42)
    d = json.loads(json.dumps(compute_report(v, lobes, abn).to_json_dict()))
    for field in ("lung_volume_mm3", "abnormal_volume_mm3", "high_opacity_volume_mm3", "threshold_hu"):
        with pytest.raises(InputError, match=f"^{field}: expected a finite number"):
            SeverityReport.from_json_dict({**d, field: value})
    records = [dict(rec) for rec in d["per_lobe"]]
    records[2]["lobe_volume_mm3"] = value
    with pytest.raises(InputError, match="^per_lobe: lobe_volume_mm3: expected a finite number"):
        SeverityReport.from_json_dict({**d, "per_lobe": records})


@pytest.mark.parametrize("value", [1.0, True, "1"])
def test_report_from_json_rejects_an_integer_field_that_is_not_an_exact_int(value):
    v, lobes, abn = random_case(42)
    d = json.loads(json.dumps(compute_report(v, lobes, abn).to_json_dict()))
    records = [dict(rec) for rec in d["per_lobe"]]
    records[0]["lobe_label"] = value
    with pytest.raises(InputError, match="^per_lobe: lobe_label: expected int"):
        SeverityReport.from_json_dict({**d, "per_lobe": records})
    with pytest.raises(InputError, match="^lhos: expected int"):
        SeverityReport.from_json_dict({**d, "lhos": value})


def test_custom_threshold_changes_pho_only():
    v, lobes, abn = random_case(5)
    strict = compute_report(v, lobes, abn, threshold=0.0)
    loose = compute_report(v, lobes, abn, threshold=-400.0)
    assert strict.po == loose.po
    assert strict.pho <= loose.pho
    assert strict.threshold_hu == 0.0


# ---------------------------------------------------------------------------
# Counting against full-volume boolean masks
# ---------------------------------------------------------------------------

def boolean_mask_report(v, lobes, abn, threshold):
    """Reference: count with one full-volume boolean mask per lobe and measure."""
    lung = lobes.data > 0
    lung_count = int(lung.sum())
    abn_in_lung = (abn.data > 0) & lung
    high_in_lung = abn_in_lung & (v.data >= threshold)
    voxel_mm3 = lobes.voxel_volume_mm3
    records = []
    for label in LOBE_LABELS:
        in_lobe = lobes.data == label
        n_lobe = int(in_lobe.sum())
        affected = int((abn_in_lung & in_lobe).sum()) / n_lobe if n_lobe else 0.0
        high_frac = int((high_in_lung & in_lobe).sum()) / n_lobe if n_lobe else 0.0
        records.append(
            LobeRecord(
                label, n_lobe * voxel_mm3, affected, high_frac, lobe_score(affected), lobe_score(high_frac)
            )
        )
    n_abn, n_high = int(abn_in_lung.sum()), int(high_in_lung.sum())
    return SeverityReport(
        po=100.0 * n_abn / lung_count,
        pho=100.0 * n_high / lung_count,
        lss=sum(r.lobe_score for r in records),
        lhos=sum(r.lobe_ho_score for r in records),
        per_lobe=tuple(records),
        lung_volume_mm3=lung_count * voxel_mm3,
        abnormal_volume_mm3=n_abn * voxel_mm3,
        high_opacity_volume_mm3=n_high * voxel_mm3,
        threshold_hu=float(threshold),
    )


_dim = st.integers(min_value=1, max_value=8)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dims=st.tuples(_dim, _dim, _dim),
    lobe_dtype=st.sampled_from([np.uint8, np.int16]),
    max_label=st.integers(min_value=5, max_value=8),
    present=st.sets(st.integers(min_value=1, max_value=8), min_size=1),
    abn_rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    hu_dtype=st.sampled_from([np.int16, np.float32, np.float64]),
    threshold=st.sampled_from([-200.0, -200.5, 0.0, -1000.0]),
    spacing=st.sampled_from([(1.0, 1.0, 1.0), (2.5, 0.7, 0.7)]),
)
def test_report_counts_equal_boolean_mask_reference(
    seed, dims, lobe_dtype, max_label, present, abn_rate, hu_dtype, threshold, spacing
):
    # Lobe masks may allow labels above 5 (lung, but no lobe), leave lobes
    # empty, and abnormal voxels fall outside the lung as often as inside.
    rng = np.random.default_rng(seed)
    labels = sorted(label for label in present if label <= max_label) or [1]
    lobe_data = rng.choice(np.array([0, *labels]), size=dims).astype(lobe_dtype)
    lobe_data.flat[0] = labels[0]
    abn_data = (rng.random(dims) < abn_rate).astype(np.uint8)
    # HU at the threshold, one step either side of it, and far from it.
    t = np.asarray(threshold, dtype=np.float64)
    choices = np.array([-1024.0, t - 1, t, t + 1, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), 60.0])
    hu_data = rng.choice(choices.astype(hu_dtype), size=dims)
    hu_data.flat[-1] = -1024
    v = Volume(hu_data, spacing)
    lobes = LabelMask(lobe_data, spacing, allowed_labels=tuple(range(1, max_label + 1)))
    abn = LabelMask(abn_data, spacing, allowed_labels=(1,))
    got = compute_report(v, lobes, abn, threshold)
    assert got == boolean_mask_report(v, lobes, abn, threshold)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_report_rejects_a_volume_with_non_finite_hu(bad):
    v, lobes, abn = random_case(3)
    hu = v.data.copy()
    hu.flat[np.flatnonzero(lobes.data)[0]] = bad
    with pytest.raises(InputError, match="non-finite"):
        compute_report(Volume(hu, v.spacing_mm), lobes, abn)


_extreme_spacing = st.floats(min_value=1e-120, max_value=1e120)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dims=st.tuples(_dim, _dim, _dim),
    spacing=st.tuples(_extreme_spacing, _extreme_spacing, _extreme_spacing),
    hu_scale=st.sampled_from([1.0, 1e30, 1e300]),
    threshold=st.floats(),
)
def test_every_report_is_strict_json_that_reads_back(seed, dims, spacing, hu_scale, threshold):
    # A grid whose physical volume is not a finite number > 0 and a
    # non-finite threshold are refused before any counting; every report
    # that is returned writes without NaN or infinity and reads back equal.
    rng = np.random.default_rng(seed)
    lobe_data = rng.integers(0, 6, size=dims).astype(np.uint8)
    lobe_data.flat[0] = 1
    abn_data = (rng.random(dims) < 0.5).astype(np.uint8)
    hu = rng.uniform(-1.0, 1.0, size=dims) * hu_scale
    hu.flat[0] = -1024.0

    def report():
        return compute_report(
            Volume(hu, spacing),
            LabelMask(lobe_data, spacing),
            LabelMask(abn_data, spacing, allowed_labels=(1,)),
            threshold,
        )

    grid_mm3 = spacing[0] * spacing[1] * spacing[2] * lobe_data.size
    if not (0 < grid_mm3 < float("inf") and np.isfinite(threshold)):
        with pytest.raises(InputError):
            report()
        return
    got = report()
    text = json.dumps(got.to_json_dict(), allow_nan=False)
    assert SeverityReport.from_json_dict(json.loads(text)) == got


@pytest.mark.parametrize("slab_planes", [None, 3], ids=["one_slab", "slabs_of_3_planes"])
def test_report_from_grid_files_equals_report_from_grids_in_memory(slab_planes, tmp_path, monkeypatch):
    # GridFile.data is a shell of zeros: a count that read it instead of the
    # slabs would differ here, on the ground truth and on noisy predictions.
    dims = (16, 28, 28)
    if slab_planes is not None:  # 16 planes in slabs of 3: the last slab has 1
        monkeypatch.setattr(volume_mod, "SLAB_VOXELS", slab_planes * dims[1] * dims[2])
    reports = []
    for seed in range(8):
        case = phantom.generate(phantom.random_spec(seed, dims=dims, noise_sigma_hu=10.0))
        case_dir = tmp_path / f"case_{seed}"
        phantom.write_case(case, case_dir)
        noisy = phantom.make_noisy_prediction(case, dilate_vox=seed % 2, erode_vox=1 - seed % 2, seed=seed)
        write_volume(noisy, case_dir / "noisy")
        for mask in ("abnorm", "noisy"):
            on_disk = compute_report(
                open_volume(case_dir / "volume"), open_mask(case_dir / "lobes"),
                open_mask(case_dir / mask, allowed_labels=(1,)))
            in_memory = compute_report(
                read_volume(case_dir / "volume"), read_mask(case_dir / "lobes"),
                read_mask(case_dir / mask, allowed_labels=(1,)))
            assert on_disk == in_memory
            reports.append(on_disk)
            if mask == "abnorm":
                assert in_memory == compute_report(case.volume, case.lobes, case.abnorm_gt)
    assert any(0 < r.pho < r.po for r in reports)  # lesions with HU on both sides of the threshold
