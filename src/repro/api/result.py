"""Uniform, serializable experiment results.

Every experiment — analytical or Monte Carlo, single point or sweep —
returns one :class:`Result`: the raw figure payload (``data``, a
JSON-pure nested structure whose shape matches what the paper's figure
plots), a normalized list of :class:`Series` for uniform downstream
consumption (plotting, CSV export, CI assertions), and full provenance
(the originating :class:`~repro.api.spec.ExperimentSpec`, the resolved
backend, and the spec's content hash).

Serialization is lossless: ``Result.from_json(result.to_json()) ==
result`` holds exactly, including the embedded spec.  ``to_csv`` emits
one long-format row per point (series, x, y, lower, upper) for
spreadsheet-friendly consumption.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from .spec import ExperimentSpec, freeze_params, thaw_params

__all__ = ["Result", "Series", "ResultError"]

#: Bump when the JSON layout changes incompatibly.
RESULT_SCHEMA_VERSION = 1


class ResultError(ValueError):
    """Malformed result payload or serialization input."""


@dataclass(frozen=True)
class Series:
    """One named curve/bar-group of a figure.

    ``x`` may hold numbers or category labels (e.g. code names); ``y``
    holds the values.  ``lower``/``upper`` carry confidence bounds for
    Monte Carlo estimates and are ``None`` for exact analytical values.
    """

    name: str
    y: tuple[float, ...]
    x: tuple = ()
    lower: "tuple[float, ...] | None" = None
    upper: "tuple[float, ...] | None" = None
    units: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ResultError("series name must be non-empty")
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        object.__setattr__(self, "x", tuple(self.x))
        for bound in ("lower", "upper"):
            value = getattr(self, bound)
            if value is not None:
                object.__setattr__(self, bound, tuple(float(v) for v in value))
        if self.x and len(self.x) != len(self.y):
            raise ResultError(
                f"series {self.name!r}: x has {len(self.x)} points, y has {len(self.y)}"
            )
        for bound in (self.lower, self.upper):
            if bound is not None and len(bound) != len(self.y):
                raise ResultError(
                    f"series {self.name!r}: bounds must match y in length"
                )

    def to_json(self) -> dict:
        payload: dict[str, Any] = {"name": self.name, "y": list(self.y)}
        if self.x:
            payload["x"] = list(self.x)
        if self.lower is not None:
            payload["lower"] = list(self.lower)
        if self.upper is not None:
            payload["upper"] = list(self.upper)
        if self.units:
            payload["units"] = self.units
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "Series":
        return cls(
            name=payload["name"],
            y=tuple(payload["y"]),
            x=tuple(payload.get("x", ())),
            lower=tuple(payload["lower"]) if "lower" in payload else None,
            upper=tuple(payload["upper"]) if "upper" in payload else None,
            units=payload.get("units", ""),
        )


@dataclass(frozen=True)
class Result:
    """Outcome of one :meth:`repro.api.session.Session.run` call."""

    experiment: str
    backend: str
    spec: ExperimentSpec
    #: JSON-pure payload in the figure's natural shape (string keys only).
    data: Any
    series: tuple[Series, ...] = ()
    meta: Any = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", tuple(self.series))
        object.__setattr__(self, "data", freeze_params(self.data))
        object.__setattr__(self, "meta", freeze_params(self.meta or {}))

    # ------------------------------------------------------------------
    @property
    def spec_hash(self) -> str:
        """Content hash of the originating spec (provenance key)."""
        return self.spec.content_hash()

    def data_dict(self) -> Any:
        """The raw figure payload as plain dicts/lists."""
        return thaw_params(self.data)

    def meta_dict(self) -> dict:
        thawed = thaw_params(self.meta)
        return dict(thawed) if isinstance(thawed, dict) else {}

    def telemetry(self) -> "dict | None":
        """The run's ``meta["telemetry"]`` summary (or ``None``)."""
        return self.meta_dict().get("telemetry")

    def without_telemetry(self) -> "Result":
        """A copy with the observational telemetry block removed.

        Telemetry carries wall-clock timings, so two runs of the same
        spec are equal only modulo ``meta["telemetry"]``; this is the
        canonical way to compare them
        (``a.without_telemetry() == b.without_telemetry()``).
        """
        meta = self.meta_dict()
        meta.pop("telemetry", None)
        return dataclasses.replace(self, meta=meta)

    def get_series(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(
            f"no series {name!r} in result "
            f"(have: {', '.join(s.name for s in self.series)})"
        )

    # ------------------------------------------------------------------
    # JSON
    # ------------------------------------------------------------------
    def to_json(self, indent: "int | None" = None) -> str:
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "experiment": self.experiment,
            "backend": self.backend,
            "spec": self.spec.to_key(),
            "spec_hash": self.spec_hash,
            "data": self.data_dict(),
            "series": [series.to_json() for series in self.series],
            "meta": self.meta_dict(),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: "str | bytes") -> "Result":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ResultError(f"not valid result JSON: {exc}") from exc
        if not isinstance(payload, dict) or "experiment" not in payload:
            raise ResultError("not a serialized Result payload")
        version = payload.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise ResultError(
                f"unsupported result schema version {version!r} "
                f"(this build reads version {RESULT_SCHEMA_VERSION})"
            )
        try:
            return cls(
                experiment=payload["experiment"],
                backend=payload["backend"],
                spec=ExperimentSpec.from_key(payload["spec"]),
                data=payload.get("data"),
                series=tuple(Series.from_json(s) for s in payload.get("series", ())),
                meta=payload.get("meta", {}),
            )
        except KeyError as exc:
            raise ResultError(f"result payload misses key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ResultError(f"malformed result payload: {exc}") from None

    def save_json(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(self.to_json(indent=2) + "\n", encoding="utf-8")
        return path

    # ------------------------------------------------------------------
    # CSV (long format: one row per series point)
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            ["experiment", "backend", "series", "x", "y", "lower", "upper", "units"]
        )
        for series in self.series:
            xs: Iterable = series.x if series.x else range(len(series.y))
            for i, (x, y) in enumerate(zip(xs, series.y)):
                writer.writerow([
                    self.experiment,
                    self.backend,
                    series.name,
                    x,
                    repr(y),
                    repr(series.lower[i]) if series.lower is not None else "",
                    repr(series.upper[i]) if series.upper is not None else "",
                    series.units,
                ])
        return buffer.getvalue()

    @classmethod
    def rows_from_csv(cls, text: str) -> list[dict]:
        """Parse :meth:`to_csv` output back into point dicts.

        CSV is a lossy *export* format (no nested ``data`` payload), so
        the inverse returns the long-format rows rather than a full
        :class:`Result`; values round-trip exactly because floats are
        written with ``repr``.
        """
        reader = csv.DictReader(io.StringIO(text))
        rows = []
        for raw in reader:
            rows.append({
                "experiment": raw["experiment"],
                "backend": raw["backend"],
                "series": raw["series"],
                "x": raw["x"],
                "y": float(raw["y"]),
                "lower": float(raw["lower"]) if raw["lower"] else None,
                "upper": float(raw["upper"]) if raw["upper"] else None,
                "units": raw["units"],
            })
        return rows

    def save_csv(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(self.to_csv(), encoding="utf-8")
        return path
