"""Canonical JSON and the CSV cell renderings of `wracah.serialize`."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wracah.errors import InvalidArgumentError
from wracah.serialize import dumps, fmt_cell, fmt_complex


def test_dumps_bytes_pinned():
    payload = {
        "none": None,
        "bools": [True, False],
        "text": 'say "hi" \\ ünï 漢',
        "ints": (7, np.int64(-3)),
        "floats": [-0.0, 5e-324, 0.1, 2.0**60, np.float64(1 / 3)],
        "complex": complex(0.5, -0.25),
        "real_array": np.array([[1.0, -2.5], [0.0, 3.0]]),
        "complex_array": np.array([1 + 2j, -0.0 - 1j]),
        "complex_matrix": np.array([[1 + 2j, 0.1 - 0j], [complex(-0.0, 5e-324), 3.0 + 0j]]),
        "empty_complex": np.zeros((2, 0), dtype=complex),
        "zero_d": np.array(2.5),
        "real_cube": np.arange(8.0).reshape(2, 2, 2) - 4,
        1: "int key",
        2: {"nested": []},
    }
    assert dumps(payload) == (
        '{"none": null, "bools": [true, false], '
        '"text": "say \\"hi\\" \\\\ \\u00fcn\\u00ef \\u6f22", '
        '"ints": [7, -3], '
        '"floats": [-0, 4.9406564584124654e-324, 0.10000000000000001, 1.152921504606847e+18, 0.33333333333333331], '
        '"complex": {"re": 0.5, "im": -0.25}, '
        '"real_array": [[1, -2.5], [0, 3]], '
        '"complex_array": [{"re": 1, "im": 2}, {"re": -0, "im": -1}], '
        '"complex_matrix": [[{"re": 1, "im": 2}, {"re": 0.10000000000000001, "im": 0}], '
        '[{"re": -0, "im": 4.9406564584124654e-324}, {"re": 3, "im": 0}]], '
        '"empty_complex": [[], []], '
        '"zero_d": 2.5, '
        '"real_cube": [[[-4, -3], [-2, -1]], [[0, 1], [2, 3]]], '
        '"1": "int key", "2": {"nested": []}}'
    )


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize(
    "wrap",
    (
        lambda x: x,
        lambda x: [1.0, {"deep": (x,)}],
        lambda x: {"a": {"b": [complex(1.0, x)]}},
        lambda x: [complex(x, 0.0)],
        lambda x: np.array([[0.0, x]]),
        lambda x: np.array([[1 + 1j], [complex(1.0, x)]]),
    ),
)
def test_dumps_refuses_non_finite_floats_at_any_depth(bad, wrap):
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        dumps(wrap(bad))


def test_dumps_names_the_first_non_finite_part_of_a_complex_array():
    with pytest.raises(InvalidArgumentError) as caught:
        dumps(np.array([complex(1, math.inf), complex(math.nan, 0)]))
    assert str(caught.value) == "refusing to serialize non-finite float inf"


def test_dumps_refuses_unknown_types():
    with pytest.raises(InvalidArgumentError, match="set"):
        dumps({"x": {1, 2}})


@pytest.mark.parametrize("z", (complex(1, math.nan), complex(1, math.inf), complex(1, -math.inf), complex(math.nan, 0)))
def test_complex_cells_refuse_non_finite_parts(z):
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        fmt_complex(z)
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        fmt_cell(z)


@pytest.mark.parametrize(
    ("z", "text"),
    (
        (complex(1, 2), "1+2i"),
        (complex(1, -0.0), "1-0i"),
        (complex(-0.0, 0.0), "-0+0i"),
        (complex(0.1, -0.3), "0.10000000000000001-0.29999999999999999i"),
    ),
)
def test_complex_cells_pinned(z, text):
    assert fmt_complex(z) == text


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@given(_json_values)
def test_dumps_round_trips_through_json(value):
    assert json.loads(dumps(value)) == value


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    arrays(
        complex,
        array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        elements=st.builds(complex, _finite, _finite),
    )
)
@example(np.array([[complex(-0.0, 5e-324), complex(2.2e-308, -0.0)]]))
def test_dumps_renders_a_complex_array_as_its_nested_list(a):
    assert dumps(a) == dumps(a.tolist())
