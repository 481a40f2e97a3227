import csv
import json

import pytest

from airymax import cli
from airymax.cli import main
from airymax.errors import AirymaxError, SolverFailureError


def test_tw_f1_row_count_and_discrepancy(tmp_path):
    out = str(tmp_path / "tw.csv")
    rc = main(["tw-f1", "--s-min", "-6", "--s-max", "4", "--step", "0.1", "-o", out])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "q", "q_prime", "f1_painleve", "f1_fredholm", "abs_diff"]
    assert len(rows) - 1 == 101
    assert max(float(r[5]) for r in rows[1:]) <= 1e-6


def test_usage_error_exit_code(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["tw-f1", "--s-min", "5", "--s-max", "2", "-o", out]) == 1
    assert not (tmp_path / "x.csv").exists()
    assert main(["mc", "--steps", "100", "--samples", "10"]) == 1
    assert main(["no-such-command"]) == 1


def test_ldev_json_schema(tmp_path):
    out = str(tmp_path / "ldev.json")
    rc = main(["ldev", "-o", out, "--format", "json", "--c-step", "0.5",
               "--u-step", "0.4"])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["schema"] == 1
    assert "generated_at" in doc
    assert doc["data"][0].keys() >= {"c", "u", "varphi"}


def test_deterministic_apart_from_timestamp(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert main(["ldev", "-o", out, "--format", "json", "--c-step", "0.5",
                     "--u-step", "0.4"]) == 0
    da, db = json.load(open(a)), json.load(open(b))
    da.pop("generated_at"); db.pop("generated_at")
    assert da == db


def test_mc_subcommand(tmp_path):
    out = str(tmp_path / "mc.csv")
    dump = str(tmp_path / "mc.bin")
    rc = main(["mc", "-N", "1", "--steps", "2000", "--samples", "200",
               "--seed", "3", "-o", out, "--dump", dump])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 200
    from airymax.mc import load_ensemble
    assert len(load_ensemble(dump)) == 200


def test_validate_subset(tmp_path):
    out = str(tmp_path / "report.json")
    rc = main(["validate", "--only", "2", "-o", out, "--format", "json"])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["data"][0]["index"] == 2
    assert doc["data"][0]["passed"] is True


@pytest.mark.parametrize("exc", [
    ValueError("autodetected range of [nan, nan] is not finite"),
    SolverFailureError(1.0),
    AirymaxError("value outside the certified window; more nodes required"),
])
def test_compute_fault_exit_code(tmp_path, monkeypatch, exc):
    # only DomainError is a usage error; the message text does not matter
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "large_deviation_eval", fail)
    out = tmp_path / "ldev.csv"
    assert main(["ldev", "-o", str(out), "--c-step", "0.5", "--u-step", "0.4"]) == 2
    assert not out.exists()


def test_airy2_builds_no_psi_grid(tmp_path, monkeypatch):
    # the density reads only the Hastings-McLeod solution; no psi sweep runs
    def fail(*args, **kwargs):
        raise AssertionError("psi sweep called")

    monkeypatch.setattr("airymax.lax.solve_psi_column", fail)
    out = tmp_path / "airy2.csv"
    assert main(["airy2", "-o", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6
    assert max(float(r[4]) for r in rows[1:]) <= 1e-3
