"""The report artifacts' format: one schema table, one validator, one writer.

:data:`SCHEMAS` declares every versioned JSON artifact the package writes
— run report, attribution, health and profile — as one :class:`Rule` per
schema id: the payload's required fields and its optional ones.  A run
report's ``attribution`` / ``health`` / ``profile`` are *sections*: rules
that name another spec of the table.  :func:`validate` walks a payload
against its spec and names every violation at once; :func:`write_report`
is the one validate-then-write path, so an invalid report never reaches
disk; :class:`Artifact` gives the dataclass reports their one ``write``
and ``from_dict``.  The module imports nothing from the rest of the
package, so every artifact's module can import it.
docs/OBSERVABILITY.md §5 tabulates the specs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "HEALTH_SCHEMA",
    "PROFILE_SCHEMA",
    "RUN_REPORT_SCHEMA",
    "SCHEMAS",
    "Artifact",
    "dump_json",
    "validate",
    "write_report",
]

RUN_REPORT_SCHEMA = "senkf-run-report/1"
ATTRIBUTION_SCHEMA = "senkf-attribution/1"
HEALTH_SCHEMA = "senkf-health/1"
PROFILE_SCHEMA = "senkf-profile/2"

#: the phases the cost model prices, in display order.
MODEL_PHASES = ("read", "comm", "comp")


@dataclass(frozen=True)
class Rule:
    """What one parsed JSON value must be.

    ``types`` are the accepted Python types after ``json.loads`` (empty:
    anything), named ``what`` in error text.  A number is then held to
    ``v >= min``, ``v > above`` and ``v <= max`` (written so that NaN
    fails every bound), and ``choices`` pins an enumerated value.  An
    object must carry every key of ``fields`` and is checked on the keys
    of ``optional`` it carries; ``each`` applies to every item of a list
    or value of an object.  ``section`` names another spec of
    :data:`SCHEMAS` the value must satisfy whole.
    """

    what: str = "anything"
    types: tuple[type, ...] = ()
    min: float | None = None
    above: float | None = None
    max: float | None = None
    choices: tuple | None = None
    fields: Mapping[str, "Rule"] = field(default_factory=dict)
    optional: Mapping[str, "Rule"] = field(default_factory=dict)
    each: "Rule | None" = None
    section: str | None = None


def number(**bounds) -> Rule:
    return Rule("number", (int, float), **bounds)


def obj(*names: str, what="object", optional=None, each=None,
        **fields: Rule) -> Rule:
    """An object; ``names`` are required free-form keys, ``fields`` typed."""
    return Rule(what, (dict,), fields={**dict.fromkeys(names, ANY), **fields},
                optional=optional or {}, each=each)


def array(each: Rule) -> Rule:
    return Rule("list", (list,), each=each)


def nullable(rule: Rule) -> Rule:
    return replace(rule, what=f"{rule.what} or null",
                   types=rule.types + (type(None),))


def section(schema: str) -> Rule:
    """An embedded artifact: null, or valid against ``schema``'s spec."""
    return nullable(Rule("object", (dict,), section=schema))


ANY = Rule()
STR = Rule("str", (str,))
LIST = Rule("list", (list,))
OBJ = obj()
COUNT = Rule("int", (int,), min=0)
NON_NEGATIVE = number(min=0)
NUMBER_OR_NULL = nullable(number())

_PHASE_ROW = obj(
    phase=replace(STR, choices=MODEL_PHASES),
    predicted=NUMBER_OR_NULL, measured=NUMBER_OR_NULL,
    abs_error=NUMBER_OR_NULL, rel_error=NUMBER_OR_NULL,
)

#: schema id -> the rule its payloads satisfy.
SCHEMAS: dict[str, Rule] = {
    RUN_REPORT_SCHEMA: obj(
        what="run report",
        schema=STR,
        kind=STR,
        config=OBJ,
        seeds=OBJ,
        n_cycles=COUNT,
        fault_counts=obj(each=number()),
        phase_totals=obj(each=NON_NEGATIVE),
        metrics=obj(optional={"counters": OBJ, "gauges": OBJ,
                              "histograms": OBJ}),
        diagnostics=obj(each=array(number())),
        notes=LIST,
        optional={
            "attribution": section(ATTRIBUTION_SCHEMA),
            "supervision": nullable(OBJ),
            "health": section(HEALTH_SCHEMA),
            "profile": section(PROFILE_SCHEMA),
        },
    ),
    ATTRIBUTION_SCHEMA: obj(
        what="attribution report",
        schema=STR,
        threshold=number(above=0),
        constants=OBJ,
        fit=OBJ,
        cycles=array(obj(
            "cycle", "config", "retry_seconds", "makespan", "predicted_total",
            phases=array(_PHASE_ROW),
        )),
        aggregate=array(_PHASE_ROW),
        retry_seconds=number(),
        drift_flags=array(STR),
        metrics=OBJ,
        notes=LIST,
    ),
    HEALTH_SCHEMA: obj(
        what="health report",
        schema=STR,
        kind=STR,
        n_evaluations=COUNT,
        series=obj(each=array(NUMBER_OR_NULL)),
        alerts=array(obj(
            "rule", "metric", "cycle", "value", "threshold", "op", "severity"
        )),
        rules=array(obj(
            "name", "metric", "op", "threshold", "sustained", "severity"
        )),
        last=obj(each=NUMBER_OR_NULL),
        notes=LIST,
    ),
    PROFILE_SCHEMA: obj(
        what="profile report",
        schema=STR,
        sampler=nullable(obj(
            "interval", "n_sweeps", "n_samples", "phase_samples", "top_stacks",
            attributed_fraction=number(min=0, max=1),
        )),
        memory=nullable(obj(
            "baseline_rss_bytes", "current_rss_bytes", "peak_rss_bytes",
            "tracemalloc", "phases",
        )),
        footprint=nullable(obj(
            "predicted_peak_rss_bytes", "measured_peak_rss_bytes",
            "threshold", "drift_flags", rel_error=NUMBER_OR_NULL,
        )),
        notes=array(STR),
    ),
}


def _check(rule: Rule, value: Any, where: str, errors: list[str]) -> None:
    """Append every way ``value`` (found at ``where``) breaks ``rule``."""
    if rule.types and not isinstance(value, rule.types):
        got = type(value).__name__
        errors.append(f"{where} must be {rule.what}, got {got}")
        return
    if value is None:
        return
    if rule.section is not None:
        try:
            validate(value, rule.section)
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
        return
    if rule.min is not None and not value >= rule.min:
        errors.append(f"{where} must be >= {rule.min:g}, got {value}")
    if rule.above is not None and not value > rule.above:
        errors.append(f"{where} must be > {rule.above:g}, got {value}")
    if rule.max is not None and not value <= rule.max:
        errors.append(f"{where} must be <= {rule.max:g}, got {value}")
    if rule.choices is not None and value not in rule.choices:
        errors.append(f"{where} must be one of {rule.choices}, got {value!r}")
    if isinstance(value, dict):
        for key, expected in {**rule.fields, **rule.optional}.items():
            if key in value:
                _check(expected, value[key],
                       f"{where}.{key}" if where else key, errors)
            elif key in rule.fields:
                errors.append(f"{where} missing key {key!r}".lstrip())
    if rule.each is not None:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            _check(rule.each, item, f"{where}[{key!r}]", errors)


def validate(payload: Any, schema: str | None = None) -> Any:
    """Check one parsed payload against its spec; returns it unchanged.

    ``schema`` picks the spec from :data:`SCHEMAS`; ``None`` takes the
    payload's own ``schema`` id.  Raises ``ValueError`` naming every
    violation at once (``invalid run report: missing key 'seeds'; ...``).
    """
    if schema is None:
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema not in SCHEMAS:
            raise ValueError(f"unknown schema {schema!r} "
                             f"(expected one of {sorted(SCHEMAS)})")
    spec = SCHEMAS[schema]
    if not isinstance(payload, dict):
        raise ValueError(
            f"{spec.what} must be a JSON object, got {type(payload).__name__}"
        )
    errors: list[str] = []
    _check(spec, payload, "", errors)
    if isinstance(payload.get("schema"), str) and payload["schema"] != schema:
        errors.append(
            f"unknown schema {payload['schema']!r} (expected {schema!r})"
        )
    if errors:
        raise ValueError(f"invalid {spec.what}: " + "; ".join(errors))
    return payload


def _coerce(value):
    if hasattr(value, "tolist"):  # numpy array or scalar
        return value.tolist()
    return str(value)


def dump_json(payload: Any, indent: int | None = 2) -> str:
    """JSON text of ``payload``; numpy scalars/arrays become plain values."""
    return json.dumps(payload, indent=indent, default=_coerce)


def write_report(payload: dict, path: str | Path, schema: str) -> Path:
    """Validate ``payload`` against ``schema`` and write it; an invalid
    report never reaches disk."""
    payload = validate(json.loads(dump_json(payload)), schema)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))
    return path


class Artifact:
    """Base of the dataclass reports whose payload is ``asdict(self)``.

    A subclass validates and writes as the default of its ``schema``
    field — the class's own id, whatever an instance carries.
    ``from_dict`` is the one rule for reading one back: validate, then
    build from the fields the spec declares, ignoring any other key.
    """

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return dump_json(self.to_dict(), indent)

    def write(self, path: str | Path) -> Path:
        """Validate and write; an invalid report never reaches disk."""
        return write_report(self.to_dict(), path, type(self).schema)

    @classmethod
    def from_dict(cls, payload: dict):
        spec = SCHEMAS[cls.schema]
        validate(payload, cls.schema)
        declared = {**spec.fields, **spec.optional}
        return cls(**{k: payload[k] for k in declared if k in payload})
