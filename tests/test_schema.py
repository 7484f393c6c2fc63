"""The report schema table, its validator and writer, ``doctor --report``."""

import json
import math

import numpy as np
import pytest

from repro.experiments.cli import main
from repro.telemetry import (
    AlertRule,
    AttributionReport,
    HealthProbe,
    HealthReport,
    RunReport,
    build_profile_report,
    write_profile_report,
)
from repro.telemetry.schema import (
    ATTRIBUTION_SCHEMA,
    HEALTH_SCHEMA,
    PROFILE_SCHEMA,
    RUN_REPORT_SCHEMA,
    SCHEMAS,
    dump_json,
    validate,
)

#: a minimal valid payload per spec, each from its real producer.
MINIMAL = {
    RUN_REPORT_SCHEMA: lambda: RunReport(kind="t").to_dict(),
    ATTRIBUTION_SCHEMA: lambda: AttributionReport(cycles=[]).to_dict(),
    HEALTH_SCHEMA: lambda: HealthReport().to_dict(),
    PROFILE_SCHEMA: lambda: build_profile_report(),
}


def _supervision(recovery_fraction):
    return {
        "max_restarts": 3, "restarts": 1, "restart_errors": ["boom"],
        "backoff_seconds": 0.1, "wall_seconds": 2.0,
        "recovery_fraction": recovery_fraction,
    }


def _critical_health():
    probe = HealthProbe(rules=[AlertRule("low", "x", "<", 1.0)])
    probe.observe_stats(0, {"x": 0.5})
    return probe.report()


class TestSchemaTable:
    def test_table_covers_the_four_artifacts(self):
        assert set(SCHEMAS) == set(MINIMAL)

    @pytest.mark.parametrize(
        "schema,key",
        [(s, k) for s in sorted(SCHEMAS) for k in SCHEMAS[s].fields],
    )
    def test_minimal_payload_validates_and_each_key_is_required(
        self, schema, key
    ):
        payload = MINIMAL[schema]()
        assert validate(payload, schema) is payload
        assert validate(payload) is payload  # dispatch on its own id
        del payload[key]
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            validate(payload, schema)

    def test_unknown_schema_id_is_named(self):
        with pytest.raises(ValueError, match="unknown schema 'senkf-nope/1'"):
            validate({"schema": "senkf-nope/1"})


class TestNaNIsNotNonNegative:
    def test_nan_phase_total_never_hits_disk(self, tmp_path):
        target = tmp_path / "report.json"
        report = RunReport(kind="x", phase_totals={"io": math.nan})
        with pytest.raises(ValueError, match="phase_totals"):
            report.write(target)
        assert not target.exists()


class TestNumpyValues:
    def test_array_diagnostics_write_and_read_back(self, tmp_path):
        report = RunReport(kind="x", diagnostics={"rmse": np.arange(3.0)})
        path = report.write(tmp_path / "report.json")
        restored = RunReport.from_dict(json.loads(path.read_text()))
        assert restored.diagnostics == {"rmse": [0.0, 1.0, 2.0]}

    def test_empty_array_dumps_as_empty_list(self):
        assert json.loads(dump_json({"a": np.zeros(0)})) == {"a": []}

    def test_numpy_scalars_write_the_same_bytes(self, tmp_path):
        def write(name, total, n):
            report = RunReport(kind="x", n_cycles=n, phase_totals={"io": total})
            return report.write(tmp_path / name).read_bytes()

        assert write("np.json", np.float64(1.5), np.int64(3)) == write(
            "py.json", 1.5, 3
        )


class TestFromDictIgnoresExtraKeys:
    @pytest.mark.parametrize(
        "cls,schema",
        [
            (RunReport, RUN_REPORT_SCHEMA),
            (HealthReport, HEALTH_SCHEMA),
        ],
    )
    def test_extra_top_level_key(self, cls, schema):
        payload = MINIMAL[schema]()
        payload["written_by"] = "a newer producer"
        rebuilt = cls.from_dict(payload)
        assert rebuilt.to_dict() == MINIMAL[schema]()


class TestDoctorReport:
    def run(self, tmp_path, name, write):
        path = write(tmp_path / name)
        return main(["doctor", "--report", str(path)])

    def test_clean_run_report_exits_zero(self, tmp_path, capsys):
        report = RunReport(kind="t", supervision=_supervision(0.05))
        assert self.run(tmp_path, "run.json", report.write) == 0
        assert "recovery fraction" in capsys.readouterr().out

    def test_recovery_heavy_run_report_exits_one(self, tmp_path):
        report = RunReport(kind="t", supervision=_supervision(0.2))
        assert self.run(tmp_path, "run.json", report.write) == 1

    def test_critical_health_alert_exits_one(self, tmp_path, capsys):
        report = RunReport(kind="t", health=_critical_health().to_dict())
        assert self.run(tmp_path, "run.json", report.write) == 1
        assert "ALERT critical: low" in capsys.readouterr().out

    def test_bare_health_report_is_read_by_its_schema(self, tmp_path):
        assert self.run(tmp_path, "health.json", _critical_health().write) == 1
        clean = HealthReport()
        assert self.run(tmp_path, "clean.json", clean.write) == 0

    def test_other_artifacts_validate_and_exit_zero(self, tmp_path):
        assert self.run(
            tmp_path, "profile.json",
            lambda p: write_profile_report(build_profile_report(), p),
        ) == 0

    def test_unknown_schema_raises(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"schema": "senkf-nope/1"}))
        with pytest.raises(ValueError, match="unknown schema"):
            main(["doctor", "--report", str(path)])

    def test_invalid_report_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = RunReport(kind="t").to_dict()
        payload["n_cycles"] = -1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="invalid run report"):
            main(["doctor", "--report", str(path)])

    @pytest.mark.parametrize(
        "flag",
        ["--run-report", "--health", "--service-report", "--metrics-port",
         "--slots", "--watch"],
    )
    def test_old_flags_are_gone(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["doctor", flag, str(tmp_path / "x.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb", ["serve", "submit", "jobs"])
    def test_old_verbs_are_gone(self, verb):
        assert main([verb]) == 2
