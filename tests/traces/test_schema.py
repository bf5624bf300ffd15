"""Unit tests for the Job schema."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError, TraceFormatError
from repro.traces import FEATURE_DIMENSIONS, Job


def make_job(**overrides):
    base = dict(
        job_id="job_1", submit_time_s=10.0, duration_s=60.0, input_bytes=1e6,
        shuffle_bytes=2e5, output_bytes=5e4, map_task_seconds=120.0,
        reduce_task_seconds=30.0,
    )
    base.update(overrides)
    return Job(**base)


class TestValidation:
    def test_valid_job_constructs(self):
        job = make_job()
        assert job.job_id == "job_1"

    def test_empty_job_id_rejected(self):
        with pytest.raises(SchemaError):
            make_job(job_id="")

    def test_negative_input_rejected(self):
        with pytest.raises(SchemaError):
            make_job(input_bytes=-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SchemaError):
            make_job(duration_s=-5.0)

    def test_non_numeric_bytes_rejected(self):
        with pytest.raises(SchemaError):
            make_job(output_bytes="lots")

    def test_fractional_task_count_rejected(self):
        with pytest.raises(SchemaError):
            make_job(map_tasks=2.5)

    def test_negative_task_count_rejected(self):
        with pytest.raises(SchemaError):
            make_job(reduce_tasks=-1)

    @pytest.mark.parametrize("bad", ["x", float("nan"), float("inf"), [1], 10 ** 400])
    def test_unusable_task_count_is_a_schema_error(self, bad):
        """Not a bare ValueError/TypeError/OverflowError: the daemon maps SchemaError to 400."""
        with pytest.raises(SchemaError, match="map_tasks must be a non-negative integer"):
            make_job(map_tasks=bad)
        with pytest.raises(SchemaError):
            make_job(input_bytes=10 ** 400)

    @pytest.mark.parametrize("record", [42, None, [1, 2], "text"])
    def test_from_dict_of_a_non_object_is_a_format_error(self, record):
        with pytest.raises(TraceFormatError, match="record must be a JSON object"):
            Job.from_dict(record)

    def test_numeric_strings_coerced(self):
        job = make_job(input_bytes="123456")
        assert job.input_bytes == 123456.0

    def test_task_counts_coerced_to_int(self):
        job = make_job(map_tasks=3.0)
        assert job.map_tasks == 3 and isinstance(job.map_tasks, int)


class TestDerivedQuantities:
    def test_total_bytes_sums_three_dimensions(self):
        job = make_job(input_bytes=1.0, shuffle_bytes=2.0, output_bytes=3.0)
        assert job.total_bytes == 6.0

    def test_total_task_seconds(self):
        job = make_job(map_task_seconds=10.0, reduce_task_seconds=5.0)
        assert job.total_task_seconds == 15.0

    def test_finish_time(self):
        job = make_job(submit_time_s=100.0, duration_s=50.0)
        assert job.finish_time_s == 150.0

    def test_map_only_detection(self):
        assert make_job(shuffle_bytes=0.0, reduce_task_seconds=0.0).is_map_only
        assert not make_job().is_map_only

    def test_data_ratio_expand_and_aggregate(self):
        assert make_job(input_bytes=10.0, output_bytes=100.0).data_ratio == 10.0
        assert make_job(input_bytes=100.0, output_bytes=10.0).data_ratio == 0.1

    def test_data_ratio_zero_input(self):
        assert make_job(input_bytes=0.0, output_bytes=10.0).data_ratio == float("inf")
        assert make_job(input_bytes=0.0, output_bytes=0.0).data_ratio == 1.0

    def test_first_word_lowercased_and_stripped(self):
        assert make_job(name="INSERT overwrite table x").first_word == "insert"
        assert make_job(name="PigLatin:job-17 step2").first_word == "piglatinjob"
        assert make_job(name=None).first_word is None
        assert make_job(name="12345 67").first_word is None

    def test_feature_vector_order_matches_declared_dimensions(self):
        job = make_job()
        vector = job.feature_vector()
        assert len(vector) == len(FEATURE_DIMENSIONS)
        assert vector[0] == job.input_bytes
        assert vector[3] == job.duration_s
        assert vector[5] == job.reduce_task_seconds


class TestSerialization:
    def test_round_trip_through_dict(self):
        job = make_job(name="select x", input_path="/a/b")
        clone = Job.from_dict(job.to_dict())
        assert clone == job

    def test_from_dict_ignores_unknown_keys(self):
        data = make_job().to_dict()
        data["exotic_future_field"] = 42
        job = Job.from_dict(data)
        assert job.job_id == "job_1"

    def test_from_dict_missing_required_field_raises(self):
        data = make_job().to_dict()
        del data["input_bytes"]
        with pytest.raises(SchemaError):
            Job.from_dict(data)


@given(
    input_bytes=st.floats(min_value=0, max_value=1e18, allow_nan=False),
    shuffle_bytes=st.floats(min_value=0, max_value=1e18, allow_nan=False),
    output_bytes=st.floats(min_value=0, max_value=1e18, allow_nan=False),
    duration=st.floats(min_value=0, max_value=1e7, allow_nan=False),
)
def test_property_round_trip_preserves_numeric_dimensions(input_bytes, shuffle_bytes,
                                                          output_bytes, duration):
    """Any non-negative job survives a to_dict/from_dict round trip unchanged."""
    job = make_job(input_bytes=input_bytes, shuffle_bytes=shuffle_bytes,
                   output_bytes=output_bytes, duration_s=duration)
    clone = Job.from_dict(job.to_dict())
    assert clone.total_bytes == pytest.approx(job.total_bytes)
    assert clone.duration_s == pytest.approx(duration)
