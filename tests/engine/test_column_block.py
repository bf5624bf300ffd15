"""The column-block accessors the scan operators build on: views, recorded
masks and the dictionary-backed code path, with its range check."""

import numpy as np
import pytest

from repro.engine import ColumnBlock, StringDictionary
from repro.errors import TraceFormatError


def mixed_block():
    """Numeric input bytes (one unrecorded), a decoded string path column and
    a dictionary-backed name column whose code 0 is ``""`` (unrecorded)."""
    return ColumnBlock(
        {"input_bytes": np.array([1.0, np.nan, 3.0, 4.0]),
         "input_path": np.array(["/a", "", "/b", "/a"])},
        {"name": np.array([1, 0, 2, 1], dtype=np.uint32)},
        {"name": StringDictionary(["", "select", "insert"])})


def test_column_names_list_decoded_then_dictionary_backed_columns():
    assert mixed_block().column_names() == ["input_bytes", "input_path", "name"]


def test_codes_for_a_dictionary_backed_column():
    codes, dictionary = mixed_block().codes_for("name")
    assert codes.tolist() == [1, 0, 2, 1]
    assert dictionary.decode(codes).tolist() == ["select", "", "insert", "select"]


def test_codes_for_a_decoded_column_is_none():
    assert mixed_block().codes_for("input_bytes") is None


def test_recorded_mask_of_a_numeric_column_drops_nan():
    assert mixed_block().recorded_mask("input_bytes").tolist() == [True, False, True, True]


def test_recorded_mask_of_a_decoded_string_column_drops_empty():
    assert mixed_block().recorded_mask("input_path").tolist() == [True, False, True, True]


def test_recorded_mask_of_a_dictionary_column_compares_codes():
    assert mixed_block().recorded_mask("name").tolist() == [True, False, True, True]


def test_recorded_mask_without_an_empty_code_keeps_every_row():
    block = ColumnBlock({}, {"name": np.array([0, 1], dtype=np.uint32)},
                        {"name": StringDictionary(["select", "insert"])})
    assert block.recorded_mask("name").tolist() == [True, True]


def test_slice_is_a_view_of_the_rows():
    block = mixed_block()
    part = block.slice(1, 3)
    assert part.n_rows == 2
    assert part.codes_for("name")[0].tolist() == [0, 2]
    assert np.shares_memory(part.columns["input_bytes"], block.columns["input_bytes"])


def test_dictionary_check_accepts_codes_inside_the_table():
    StringDictionary(["", "select"]).check(np.array([0, 1, 1], dtype=np.uint32))


def test_dictionary_check_rejects_a_code_past_the_table():
    with pytest.raises(TraceFormatError, match="dictionary code 2 out of range"):
        StringDictionary(["", "select"]).check(np.array([0, 2], dtype=np.uint32))
