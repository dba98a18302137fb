"""Tests for BBV profiling, k-means, SimPoint selection, validation."""

from types import SimpleNamespace

import pytest

import repro.simpoint.validation as validation
from repro.looppoint import measure_elfie_region_markers
from repro.machine.loader import StackCollisionError
from repro.pinplay import RegionSpec
from repro.simpoint import (
    collect_bbv,
    cluster_vectors,
    prediction_error,
    run_pinpoints,
    select_simpoints,
    validate_with_elfies,
)
from repro.simpoint.kmeans import project_vectors
from repro.simpoint.validation import measure_elfie_region
from repro.workloads import PhaseSpec, ProgramBuilder

TWO_PHASE = ProgramBuilder(
    name="twophase",
    phases=[
        PhaseSpec("compute", 6000, buffer_kb=16),
        PhaseSpec("pointer_chase", 6000, buffer_kb=64),
        PhaseSpec("compute", 6000, buffer_kb=16),
        PhaseSpec("pointer_chase", 6000, buffer_kb=64),
    ],
)


@pytest.fixture(scope="module")
def two_phase_profile():
    return collect_bbv(TWO_PHASE.build(), slice_size=10_000, seed=1)


def test_bbv_slices_cover_whole_program(two_phase_profile):
    profile = two_phase_profile
    assert profile.num_slices >= 10
    assert sum(profile.slice_icounts) == profile.total_icount
    # all but the last slice are full-size
    assert all(n == profile.slice_size
               for n in profile.slice_icounts[:-1])


def test_bbv_vectors_nonempty_and_plausible(two_phase_profile):
    for vector in two_phase_profile.vectors:
        assert vector
        assert all(count > 0 for count in vector.values())
        # weighted counts sum approximately to the slice size
        assert sum(vector.values()) <= two_phase_profile.slice_size + 1


def test_bbv_slice_cpi_varies_between_phases(two_phase_profile):
    cpis = [two_phase_profile.slice_cpi(i)
            for i in range(two_phase_profile.num_slices - 1)]
    assert max(cpis) > 1.3 * min(cpis)


def test_bbv_whole_program_cpi(two_phase_profile):
    profile = two_phase_profile
    assert profile.whole_program_cpi == pytest.approx(
        profile.total_cycles / profile.total_icount)


def test_bbv_deterministic_across_runs():
    image = TWO_PHASE.build()
    first = collect_bbv(image, slice_size=10_000, seed=5)
    second = collect_bbv(image, slice_size=10_000, seed=5)
    assert first.vectors == second.vectors
    assert first.total_cycles == second.total_cycles


def test_projection_shape():
    vectors = [{1: 5, 2: 5}, {2: 10}, {3: 1}]
    points = project_vectors(vectors, dim=4, seed=0)
    assert points.shape == (3, 4)


def test_kmeans_separates_distinct_phases():
    # two obviously distinct groups of vectors
    group_a = [{100: 90 + i, 200: 10} for i in range(10)]
    group_b = [{300: 80 + i, 400: 20} for i in range(10)]
    result = cluster_vectors(group_a + group_b, max_k=8, seed=3)
    labels = result.labels
    # no cluster mixes members of the two groups (BIC may further split
    # a group, which is fine)
    labels_a = set(labels[:10])
    labels_b = set(labels[10:])
    assert not labels_a & labels_b
    assert 2 <= result.k <= 6


def test_kmeans_single_cluster_for_uniform_input():
    vectors = [{7: 100} for _ in range(12)]
    result = cluster_vectors(vectors, max_k=6, seed=1)
    assert result.k == 1


def test_kmeans_rejects_empty_input():
    with pytest.raises(ValueError):
        cluster_vectors([])


def test_simpoint_weights_sum_to_one(two_phase_profile):
    result = select_simpoints(two_phase_profile, max_k=8)
    assert sum(c.weight for c in result.clusters) == pytest.approx(1.0)


def test_simpoint_representative_is_cluster_member(two_phase_profile):
    result = select_simpoints(two_phase_profile, max_k=8)
    for cluster in result.clusters:
        members = set(result.kmeans.members(cluster.cluster_id))
        assert cluster.representative in members
        for rank in range(1, 3):
            alt = cluster.alternate(rank)
            if alt is not None:
                assert alt in members
                assert alt != cluster.representative


def test_simpoint_regions_align_with_slices(two_phase_profile):
    result = select_simpoints(two_phase_profile, max_k=8)
    for region in result.regions(warmup=5000):
        assert region.start % two_phase_profile.slice_size == 0
        assert region.length == two_phase_profile.slice_size
        assert region.warmup == 5000


def test_alternate_regions_have_alt_names(two_phase_profile):
    result = select_simpoints(two_phase_profile, max_k=8)
    regions = result.regions(max_alternates=2)
    assert any(".alt1" in r.name for r in regions)


def test_prediction_error_definition():
    assert prediction_error(2.0, 2.0) == 0.0
    assert prediction_error(2.0, 1.0) == pytest.approx(0.5)
    assert prediction_error(2.0, 3.0) == pytest.approx(-0.5)
    assert prediction_error(0.0, 1.0) == 0.0


@pytest.fixture(scope="module")
def pinpoints_result():
    image = TWO_PHASE.build()
    return run_pinpoints(image, "twophase", slice_size=10_000,
                         warmup=20_000, max_k=8, max_alternates=1)


def test_pinpoints_captures_fat_pinballs(pinpoints_result):
    assert pinpoints_result.pinballs
    for pinball in pinpoints_result.pinballs.values():
        assert pinball.fat
        assert pinball.program_icount == pinpoints_result.profile.total_icount


def test_pinpoints_generates_elfies(pinpoints_result):
    assert set(pinpoints_result.elfies) == set(pinpoints_result.pinballs)


def test_pinpoints_alternates_listed(pinpoints_result):
    primaries = pinpoints_result.primary_regions
    assert primaries
    for region in primaries:
        for alt in pinpoints_result.alternates_for(region):
            assert alt.name.startswith(region.name + ".alt")


def test_elfie_validation_produces_plausible_error(pinpoints_result):
    validation = validate_with_elfies(pinpoints_result, trials=2)
    assert validation.covered_weight > 0.6
    assert validation.predicted_cpi > 0
    # the pointer-chase cluster has a long cache-warmth transient with
    # identical BBVs, so some error is physical; it must stay bounded
    assert validation.abs_error_percent < 60.0


def test_validation_measurements_reference_primary_weights(pinpoints_result):
    validation = validate_with_elfies(pinpoints_result, trials=1)
    total_weight = sum(m.region.weight for m in validation.measurements)
    assert total_weight == pytest.approx(1.0)



def _measure_icount(artifact, region):
    return measure_elfie_region(artifact, region)


def _measure_markers(artifact, region):
    return measure_elfie_region_markers(artifact, region, [0x1000],
                                        skip=1, measure=2)


@pytest.mark.parametrize("measure", [_measure_icount, _measure_markers])
def test_region_measurement_load_failures(measure, monkeypatch):
    """A loader failure is a failed region; any other error propagates."""
    artifact = SimpleNamespace(image=b"")
    region = RegionSpec(start=0, length=100, name="r0")

    def collide(image, **kwargs):
        raise StackCollisionError("stack collided")

    monkeypatch.setattr(validation, "prepare_elfie_machine", collide)
    measurement = measure(artifact, region)
    assert not measurement.ok
    assert measurement.cpi is None
    assert measurement.detail == "loader: stack collided"

    def broken(image, **kwargs):
        raise RuntimeError("machine bug")

    monkeypatch.setattr(validation, "prepare_elfie_machine", broken)
    with pytest.raises(RuntimeError, match="machine bug"):
        measure(artifact, region)
