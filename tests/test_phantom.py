"""Phantom generator tests: determinism, geometry, oracle cross-checks."""

import json
from dataclasses import replace

import numpy as np
import pytest

from lungsev.errors import InputError
from lungsev.phantom import (
    Ellipsoid,
    Lesion,
    PhantomSpec,
    _neighbours,
    generate,
    make_noisy_prediction,
    oracle_report,
    random_spec,
    write_case,
)
from lungsev.severity import compute_report
from lungsev.volume import read_mask, read_volume


def simple_spec(lesions=(), noise=0.0, seed=0):
    return PhantomSpec(
        dims=(12, 20, 20),
        spacing_mm=(1.5, 1.0, 1.0),
        lungs=(
            Ellipsoid((8.0, 9.0, 5.0), (7.0, 6.0, 3.5)),
            Ellipsoid((8.0, 9.0, 14.0), (7.0, 6.0, 3.5)),
        ),
        lesions=lesions,
        noise_sigma_hu=noise,
        seed=seed,
    )


def numpy_recount(case):
    """Severity recount via numpy set arithmetic, coded unlike the module oracle."""
    lab = np.asarray(case.lobes.data)
    ab = np.asarray(case.abnorm_gt.data) > 0
    hu = np.asarray(case.volume.data)
    lung = lab > 0
    n_lung = int(np.count_nonzero(lung))
    abn = ab & lung
    high = abn & (hu >= -200.0)
    fracs = {}
    hfracs = {}
    for k in range(1, 6):
        sel = lab == k
        nk = int(np.count_nonzero(sel))
        fracs[k] = int(np.count_nonzero(abn & sel)) / nk if nk else 0.0
        hfracs[k] = int(np.count_nonzero(high & sel)) / nk if nk else 0.0
    return {
        "po": 100.0 * int(np.count_nonzero(abn)) / n_lung,
        "pho": 100.0 * int(np.count_nonzero(high)) / n_lung,
        "fracs": fracs,
        "hfracs": hfracs,
    }


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_small_dims():
    with pytest.raises(InputError):
        PhantomSpec(
            dims=(4, 20, 20),
            spacing_mm=(1.0, 1.0, 1.0),
            lungs=(Ellipsoid((2, 10, 5), (2, 5, 3)), Ellipsoid((2, 10, 15), (2, 5, 3))),
        )


def test_lesion_intensity_class_bounds():
    shape = Ellipsoid((8, 9, 5), (2, 2, 2))
    with pytest.raises(InputError):
        Lesion(shape, -250.0, "consolidation")
    with pytest.raises(InputError):
        Lesion(shape, -100.0, "ggo")
    with pytest.raises(InputError):
        Lesion(shape, -800.0, "ggo")
    with pytest.raises(InputError):
        Lesion(shape, -500.0, "fibrosis")


@pytest.mark.parametrize(
    "field, build",
    [
        ("radii_mm", lambda: Ellipsoid((8.0, 9.0, 5.0), (1, -1, 1))),
        ("radii_mm", lambda: Ellipsoid((8.0, 9.0, 5.0), ("big", 1, 1))),
        ("center_mm", lambda: Ellipsoid((8.0, float("nan"), 5.0), (1, 1, 1))),
        ("type", lambda: Lesion(Ellipsoid((8, 9, 5), (2, 2, 2)), -500.0, "fibrosis")),
        ("spacing_mm", lambda: replace(simple_spec(), spacing_mm=(1, 0, 1))),
        ("dims", lambda: replace(simple_spec(), dims=(12, 20, 7))),
        ("noise_sigma_hu", lambda: replace(simple_spec(), noise_sigma_hu=-1.0)),
        ("seed", lambda: replace(simple_spec(), seed=1.5)),
        ("lungs", lambda: replace(simple_spec(), spacing_mm=(1.5, 1.0, 20.0))),  # x centres step over both lungs
    ],
)
def test_spec_values_are_rejected_naming_their_field(field, build):
    with pytest.raises(InputError, match=f"^{field}: "):
        build()


def test_noise_margin_enforced():
    shape = Ellipsoid((8.0, 9.0, 5.0), (3.0, 3.0, 2.0))
    # valid without noise, too close to the threshold with it
    near_consol = Lesion(shape, -190.0, "consolidation")
    near_ggo = Lesion(shape, -210.0, "ggo")
    simple_spec(lesions=(near_consol,), noise=0.0)
    simple_spec(lesions=(near_ggo,), noise=0.0)
    with pytest.raises(InputError):
        simple_spec(lesions=(near_consol,), noise=5.0)
    with pytest.raises(InputError):
        simple_spec(lesions=(near_ggo,), noise=5.0)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_no_lesions_oracle_is_clean():
    case = generate(simple_spec())
    assert case.oracle.po == 0.0
    assert case.oracle.pho == 0.0
    assert case.oracle.lss == 0
    assert case.oracle.lhos == 0
    assert int(np.count_nonzero(case.abnorm_gt.data)) == 0
    assert int(np.count_nonzero(case.lobes.data)) > 0


def test_lesion_covering_left_lung_saturates_both_left_lobes():
    left = Ellipsoid((8.0, 9.0, 14.0), (7.0, 6.0, 3.5))
    blob = Lesion(Ellipsoid(left.center_mm, left.radii_mm), -50.0, "consolidation")
    case = generate(simple_spec(lesions=(blob,)))
    by_label = {rec.lobe_label: rec for rec in case.oracle.per_lobe}
    for label in (4, 5):
        assert by_label[label].affected_fraction == 1.0
        assert by_label[label].lobe_score == 4
        assert by_label[label].lobe_ho_score == 4
    for label in (1, 2, 3):
        assert by_label[label].lobe_score == 0
    assert case.oracle.lss == 8
    assert case.oracle.lhos == 8


def test_generation_is_deterministic():
    spec = random_spec(11, noise_sigma_hu=7.0)
    a = generate(spec)
    b = generate(spec)
    assert a.volume.data.tobytes() == b.volume.data.tobytes()
    assert np.array_equal(a.lobes.data, b.lobes.data)
    assert np.array_equal(a.abnorm_gt.data, b.abnorm_gt.data)
    assert a.oracle == b.oracle


def test_lobes_partition_lung_analytically():
    for seed in (0, 5, 9):
        spec = random_spec(seed)
        case = generate(spec)
        zdim, ydim, xdim = spec.dims
        sz, sy, sx = spec.spacing_mm
        pz = (np.arange(zdim) * sz)[:, None, None]
        py = (np.arange(ydim) * sy)[None, :, None]
        px = (np.arange(xdim) * sx)[None, None, :]

        def inside(e):
            return (
                ((pz - e.center_mm[0]) / e.radii_mm[0]) ** 2
                + ((py - e.center_mm[1]) / e.radii_mm[1]) ** 2
                + ((px - e.center_mm[2]) / e.radii_mm[2]) ** 2
            ) <= 1.0

        lung = inside(spec.lungs[0]) | inside(spec.lungs[1])
        lab = np.asarray(case.lobes.data)
        assert np.array_equal(lab > 0, lung)
        # right lobes only inside right ellipsoid, left only in the left one
        assert not np.any(np.isin(lab, (1, 2, 3)) & ~inside(spec.lungs[0]))
        assert not np.any(np.isin(lab, (4, 5)) & ~inside(spec.lungs[1]))


def test_upper_lobes_sit_at_higher_z():
    case = generate(simple_spec())
    lab = np.asarray(case.lobes.data)
    z_ru = np.argwhere(lab == 1)[:, 0]
    z_rl = np.argwhere(lab == 3)[:, 0]
    assert z_ru.min() > z_rl.max()
    z_lu = np.argwhere(lab == 4)[:, 0]
    z_ll = np.argwhere(lab == 5)[:, 0]
    assert z_lu.min() > z_ll.max()


def test_abnormality_clipped_inside_lung():
    huge = Lesion(Ellipsoid((8.0, 9.0, 5.0), (50.0, 50.0, 50.0)), -300.0, "ggo")
    case = generate(simple_spec(lesions=(huge,)))
    ab = np.asarray(case.abnorm_gt.data) > 0
    lab = np.asarray(case.lobes.data)
    assert np.all(lab[ab] > 0)
    assert case.oracle.po == 100.0  # lesion covers every lung voxel


def test_oracle_matches_severity_module_on_random_specs():
    for seed in range(15):
        case = generate(random_spec(seed, noise_sigma_hu=4.0 if seed % 3 == 0 else 0.0))
        rep = compute_report(case.volume, case.lobes, case.abnorm_gt)
        assert rep.lss == case.oracle.lss
        assert rep.lhos == case.oracle.lhos
        assert abs(rep.po - case.oracle.po) <= 1e-12 * max(1.0, case.oracle.po)
        assert abs(rep.pho - case.oracle.pho) <= 1e-12 * max(1.0, case.oracle.pho)
        for got, ref in zip(rep.per_lobe, case.oracle.per_lobe):
            assert got.lobe_score == ref.lobe_score
            assert got.lobe_ho_score == ref.lobe_ho_score
            assert abs(got.affected_fraction - ref.affected_fraction) <= 1e-12


def test_oracle_matches_numpy_recount():
    for seed in range(10):
        case = generate(random_spec(seed + 100))
        ref = numpy_recount(case)
        assert case.oracle.po == ref["po"]
        assert case.oracle.pho == ref["pho"]
        for rec in case.oracle.per_lobe:
            assert rec.affected_fraction == ref["fracs"][rec.lobe_label]
            assert rec.high_opacity_fraction == ref["hfracs"][rec.lobe_label]


def test_noise_never_moves_pho():
    spec_clean = random_spec(21, n_lesions=4, noise_sigma_hu=0.0)
    spec_noisy = random_spec(21, n_lesions=4, noise_sigma_hu=10.0)
    assert spec_clean.lesions == spec_noisy.lesions
    clean = generate(spec_clean)
    noisy = generate(spec_noisy)
    assert noisy.oracle.pho == clean.oracle.pho
    assert noisy.oracle.po == clean.oracle.po
    delta = np.abs(
        np.asarray(noisy.volume.data, dtype=np.float64)
        - np.asarray(clean.volume.data, dtype=np.float64)
    )
    assert float(delta.max()) <= 24.0 + 1e-3
    assert float(delta.max()) > 0.0


# ---------------------------------------------------------------------------
# Noisy predictions
# ---------------------------------------------------------------------------

def test_prediction_identity_when_no_morphology():
    case = generate(random_spec(30, n_lesions=3))
    pred = make_noisy_prediction(case, dilate_vox=0, erode_vox=0, seed=5)
    assert np.array_equal(pred.data, case.abnorm_gt.data)


def test_erode_only_is_subset_and_lowers_po():
    for seed in range(8):
        case = generate(random_spec(seed + 40, n_lesions=4))
        if case.oracle.po == 0.0:
            continue
        pred = make_noisy_prediction(case, dilate_vox=0, erode_vox=1, seed=seed)
        gt = np.asarray(case.abnorm_gt.data) > 0
        pr = np.asarray(pred.data) > 0
        assert np.all(gt[pr])  # prediction subset of truth
        assert compute_report(case.volume, case.lobes, pred).po <= case.oracle.po


def test_dilate_only_is_superset():
    case = generate(random_spec(50, n_lesions=3))
    pred = make_noisy_prediction(case, dilate_vox=2, erode_vox=0, seed=9)
    gt = np.asarray(case.abnorm_gt.data) > 0
    pr = np.asarray(pred.data) > 0
    assert np.all(pr[gt])


def test_prediction_deterministic_and_seed_sensitive():
    case = generate(random_spec(60, n_lesions=4))
    p1 = make_noisy_prediction(case, dilate_vox=1, erode_vox=1, seed=7)
    p2 = make_noisy_prediction(case, dilate_vox=1, erode_vox=1, seed=7)
    p3 = make_noisy_prediction(case, dilate_vox=1, erode_vox=1, seed=8)
    assert np.array_equal(p1.data, p2.data)
    assert not np.array_equal(p1.data, p3.data)


def test_dilated_po_matches_independent_recount():
    for seed in range(5):
        case = generate(random_spec(seed + 70, n_lesions=3))
        pred = make_noisy_prediction(case, dilate_vox=1, erode_vox=0, seed=seed)
        po_module = compute_report(case.volume, case.lobes, pred).po
        po_oracle = oracle_report(case.volume, case.lobes, pred).po
        assert po_module == po_oracle


@pytest.mark.parametrize("shape", [(4, 5, 6), (1, 5, 6), (4, 1, 6), (4, 5, 1), (1, 1, 4), (1, 1, 1)])
@pytest.mark.parametrize("density", [0.6, 1.0])
def test_neighbours_match_a_voxel_loop(shape, density):
    mask = np.random.default_rng(sum(shape)).random(shape) < density
    steps = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
    want_any = np.zeros(shape, dtype=bool)
    want_all = np.zeros(shape, dtype=bool)
    for voxel in np.ndindex(shape):
        neighbours = [tuple(v + d for v, d in zip(voxel, step)) for step in steps]
        # out of bounds counts as unset
        values = [all(0 <= n < size for n, size in zip(nb, shape)) and bool(mask[nb]) for nb in neighbours]
        want_any[voxel] = any(values)
        want_all[voxel] = all(values)
    views = _neighbours(mask)
    np.testing.assert_array_equal(np.logical_or.reduce(views), want_any)
    np.testing.assert_array_equal(np.logical_and.reduce(views), want_all)


def test_prediction_rejects_negative_counts():
    case = generate(simple_spec())
    with pytest.raises(InputError):
        make_noisy_prediction(case, dilate_vox=-1, erode_vox=0, seed=0)


# ---------------------------------------------------------------------------
# Case emission
# ---------------------------------------------------------------------------

def test_write_case_round_trips(tmp_path):
    case = generate(random_spec(80, n_lesions=2))
    write_case(case, tmp_path / "case000")
    vol = read_volume(tmp_path / "case000" / "volume")
    lobes = read_mask(tmp_path / "case000" / "lobes")
    abn = read_mask(tmp_path / "case000" / "abnorm", allowed_labels=(1,))
    assert vol.data.tobytes() == case.volume.data.tobytes()
    assert np.array_equal(lobes.data, case.lobes.data)
    assert np.array_equal(abn.data, case.abnorm_gt.data)
    oracle = json.loads((tmp_path / "case000" / "oracle.json").read_text())
    assert oracle["po"] == case.oracle.po
    assert oracle["lss"] == case.oracle.lss
