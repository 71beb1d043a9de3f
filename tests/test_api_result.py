"""Result/Series: validation and lossless JSON/CSV round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.api import ExperimentSpec, Result, ResultError, Series


def _result(**overrides) -> Result:
    fields = dict(
        experiment="fig1.storage",
        backend="analytical",
        spec=ExperimentSpec("fig1.storage"),
        data={"64": {"SECDED": 12.5}},
        series=(Series("64b word", x=("SECDED",), y=(12.5,), units="%"),),
        meta={"note": "test"},
    )
    fields.update(overrides)
    return Result(**fields)


class TestSeries:
    def test_validates_lengths(self):
        with pytest.raises(ResultError):
            Series("s", y=(1.0, 2.0), x=(1,))
        with pytest.raises(ResultError):
            Series("s", y=(1.0,), lower=(0.0, 0.1))
        with pytest.raises(ResultError):
            Series("", y=(1.0,))

    def test_coerces_to_float_tuples(self):
        series = Series("s", y=[1, 2], x=[10, 20], lower=[0, 1], upper=[2, 3])
        assert series.y == (1.0, 2.0)
        assert series.lower == (0.0, 1.0)


class TestResultJson:
    def test_round_trip_equality(self):
        result = _result()
        clone = Result.from_json(result.to_json())
        assert clone == result
        assert clone.spec == result.spec
        assert clone.spec_hash == result.spec_hash

    def test_rejects_garbage(self):
        with pytest.raises(ResultError):
            Result.from_json("not json")
        with pytest.raises(ResultError):
            Result.from_json("[1, 2, 3]")
        bad_version = _result().to_json().replace(
            '"schema_version": 1', '"schema_version": 999'
        )
        with pytest.raises(ResultError):
            Result.from_json(bad_version)

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "x", "schema_version": 1},
            {"experiment": "x", "schema_version": 1, "backend": "analytical"},
            {"experiment": "x", "schema_version": 1, "backend": "analytical",
             "spec": 5},
            {"experiment": "x", "schema_version": 1, "backend": "analytical",
             "spec": {"experiment": "x"}, "series": [1]},
            {"experiment": "x", "schema_version": 1, "backend": "analytical",
             "spec": {"experiment": "x"}, "series": [{"y": [1.0]}]},
        ],
        ids=["no-backend", "no-spec", "spec-not-object", "series-not-object",
             "series-without-name"],
    )
    def test_missing_or_malformed_keys_raise_result_error(self, payload):
        with pytest.raises(ResultError):
            Result.from_json(json.dumps(payload))

    def test_save_json(self, tmp_path):
        path = _result().save_json(tmp_path / "out.json")
        assert Result.from_json(path.read_text()) == _result()

    def test_get_series(self):
        result = _result()
        assert result.get_series("64b word").units == "%"
        with pytest.raises(KeyError):
            result.get_series("missing")


class TestResultCsv:
    def test_csv_rows_round_trip_values_exactly(self):
        series = (
            Series("a", x=(1, 2), y=(0.1, 0.2), lower=(0.0, 0.1), upper=(0.2, 0.3)),
            Series("b", y=(1 / 3,)),
        )
        result = _result(series=series)
        rows = Result.rows_from_csv(result.to_csv())
        assert [row["series"] for row in rows] == ["a", "a", "b"]
        assert rows[0]["y"] == 0.1 and rows[1]["upper"] == 0.3
        assert rows[2]["y"] == 1 / 3  # repr round-trip is exact
        assert rows[2]["lower"] is None


# ----------------------------------------------------------------------
# Property test: arbitrary well-formed results survive JSON and CSV.
# ----------------------------------------------------------------------

_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    min_size=1,
    max_size=12,
)


@st.composite
def _series(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    y = draw(st.lists(_floats, min_size=n, max_size=n))
    with_x = draw(st.booleans())
    x = tuple(draw(st.lists(_labels, min_size=n, max_size=n))) if with_x else ()
    with_bounds = draw(st.booleans())
    lower = upper = None
    if with_bounds:
        lower = draw(st.lists(_floats, min_size=n, max_size=n))
        upper = draw(st.lists(_floats, min_size=n, max_size=n))
    return Series(
        name=draw(_labels), y=y, x=x, lower=lower, upper=upper,
        units=draw(st.sampled_from(["", "%", "yield"])),
    )


@st.composite
def _results(draw):
    data = draw(
        st.dictionaries(
            _labels,
            st.one_of(_floats, st.lists(_floats, max_size=4)),
            max_size=4,
        )
    )
    return Result(
        experiment="prop.test",
        backend=draw(st.sampled_from(["analytical", "monte_carlo"])),
        spec=ExperimentSpec(
            "prop.test",
            seed=draw(st.integers(0, 2**31)),
            params=draw(st.dictionaries(_labels, st.integers(-100, 100), max_size=3)),
        ),
        data=data,
        series=tuple(draw(st.lists(_series(), max_size=3))),
    )


class TestRoundTripProperties:
    @given(_results())
    def test_json_round_trip_is_lossless(self, result):
        assert Result.from_json(result.to_json()) == result
        assert Result.from_json(result.to_json(indent=2)) == result

    @given(_results())
    def test_csv_preserves_every_point(self, result):
        rows = Result.rows_from_csv(result.to_csv())
        expected = [
            (series.name, y)
            for series in result.series
            for y in series.y
        ]
        assert [(row["series"], row["y"]) for row in rows] == expected
