import csv
import hashlib
import json

import numpy as np
import pytest

from airymax import cli
from airymax.cli import main
from airymax.errors import AirymaxError, SolverFailureError

from _oracles import write_csv_reference


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
    assert main(["mc", "--samples", "0"]) == 1
    assert main(["no-such-command"]) == 1


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the entry checks")


@pytest.mark.parametrize("flag,value", [("--s-min", "-inf"), ("--s-max", "inf"),
                                        ("--step", "nan")])
def test_tw_f1_refuses_nonfinite_range(tmp_path, monkeypatch, capsys, flag, value):
    # these exited 2 with numpy's "arange: cannot compute length" or
    # "Maximum allowed size exceeded"; as a separate token, -inf reaches the
    # same check (argparse read it as an option)
    monkeypatch.setattr(cli, "solve_hastings_mcleod", _no_work)
    out = tmp_path / "tw.csv"
    for argv in ([f"{flag}={value}"], [flag, value]):
        assert main(["tw-f1", *argv, "-o", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err, argv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,dest,value", [
    (["tw-f1", "--s-min", "-1e0"], "s_min", -1.0), (["tw-f1", "--s-min", "-inf"], "s_min", -np.inf),
    (["jpdf", "--s-min", "-1e1"], "s_min", -10.0), (["jpdf", "--s-min", "-.5e-3"], "s_min", -5e-4),
    (["finite-n", "--m-min", "-1e0"], "m_min", -1.0),
])
def test_negative_exponent_values_parse(argv, dest, value):
    # only the --s-min=-1e0 form parsed: argparse took -1e0 and -inf for options
    assert getattr(cli.build_parser().parse_args(argv), dest) == value


@pytest.mark.parametrize("command", ["jpdf", "marginal"])
@pytest.mark.parametrize("w_max", ["inf", "6.5"])
def test_w_max_above_the_cap_refused_at_entry(tmp_path, monkeypatch, command, w_max):
    # --w-max inf exited 2 with numpy's "Maximum allowed size exceeded"
    from airymax import airy2
    monkeypatch.setattr(airy2, "_density_columns", _no_work)
    out = tmp_path / "out.csv"
    assert main([command, "--w-max", w_max, "-o", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["jpdf", "--s-step", "0"], ["jpdf", "--w-step", "0"], ["jpdf", "--w-step", "inf"],
    ["jpdf", "--s-min", "5", "--s-max", "-5"], ["jpdf", "--s-min", "20", "--s-max", "30"],
    ["marginal", "--w-step", "0"], ["finite-n", "--m-step", "0"],
    ["ldev", "--c-step", "0"], ["ldev", "--u-step", "-1"],
    ["tw-f1", "--step", "1e-300"], ["jpdf", "--s-step", "1e-300"], ["jpdf", "--s-step", "inf"],
    ["ldev", "--c-step", "1e-300"], ["ldev", "--u-step", "inf"],
])
def test_grid_arguments_checked_at_entry(tmp_path, argv):
    # jpdf --w-step inf and --s-step inf exited 2 with numpy's "arange: cannot
    # compute length", a 1e-300 step with "Maximum allowed size exceeded", and
    # ldev --u-step inf wrote one u
    out = tmp_path / "out.csv"
    assert main([*argv, "-o", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("M", ["-1", "0", "nan", "inf"])
def test_ldev_refuses_nonpositive_or_nonfinite_m(tmp_path, M):
    # the rate function describes M >> sqrt(2N) > 0; -M would repeat M's table
    out = tmp_path / "ldev.csv"
    assert main(["ldev", "--M", M, "-o", str(out), "--c-step", "0.5", "--u-step", "0.4"]) == 1
    assert list(tmp_path.iterdir()) == []


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


def test_mc_reports_refined_windows_and_miss_bound(tmp_path, capsys):
    for N in ("1", "2"):
        assert main(["mc", "-N", N, "--steps", "2000", "--samples", "50",
                     "-o", str(tmp_path / "mc.csv")]) == 0
        fields = dict(f.split("=") for f in capsys.readouterr().out.split() if "=" in f)
        assert 0.0 < float(fields["refined"]) < 1.0
        assert 0.0 < float(fields["miss_bound"]) <= 5e-8


def test_mc_refuses_four_walkers(tmp_path):
    # samplers exist for N = 1, 2, 3 only; the refusal is a usage error
    out = tmp_path / "mc.csv"
    assert main(["mc", "-N", "4", "--samples", "5", "-o", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_mc_refuses_a_seed_outside_uint64(tmp_path, monkeypatch, seed):
    # these exited 2 with numpy's uint64 conversion errors
    from airymax import mc
    monkeypatch.setattr(mc, "_rng_for", _no_work)
    out = tmp_path / "mc.csv"
    assert main(["mc", "--seed", seed, "--samples", "5", "-o", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_validate_subset(tmp_path):
    out = str(tmp_path / "report.json")
    rc = main(["validate", "--only", "2", "-o", out, "--format", "json"])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["data"][0]["index"] == 2
    assert doc["data"][0]["passed"] is True


def test_validate_refuses_mc_samples_below_one_at_entry(monkeypatch):
    from airymax import validation

    def unreachable(*args, **kwargs):
        raise AssertionError("validate ran past its argument check")

    monkeypatch.setattr(validation, "build_context", unreachable)
    monkeypatch.setattr(cli, "solve_hastings_mcleod", unreachable)
    assert main(["validate", "--only", "12", "--mc-samples", "0"]) == 1


@pytest.mark.parametrize("only", [["99"], ["0"], ["-1"], ["2", "13"], []])
def test_validate_refuses_bad_only_at_entry(monkeypatch, only):
    # an index outside 1-12 ran no criterion and exited 0; a bare --only ran
    # all twelve
    from airymax import validation

    def unreachable(*args, **kwargs):
        raise AssertionError("validate ran past its argument check")

    monkeypatch.setattr(validation, "build_context", unreachable)
    monkeypatch.setattr(cli, "solve_hastings_mcleod", unreachable)
    assert main(["validate", "--only", *only]) == 1


def test_tw_f1_bytes_unchanged_by_the_airy_zero_range(tmp_path, monkeypatch):
    # Ai and Ai' are 0 from x = 110 on without the asymptotic series; summing
    # the series there (at x clipped to 110) gives the same CSV bytes
    from airymax import special

    fast, series = str(tmp_path / "fast.csv"), str(tmp_path / "series.csv")
    assert main(["tw-f1", "-o", fast]) == 0
    ranges = special._AIRY_RANGES[:-2] + (
        (10.0, np.inf, lambda x: special._airy_asymptotic(np.minimum(x, 110.0))),)
    monkeypatch.setattr(special, "_AIRY_RANGES", ranges)
    assert main(["tw-f1", "-o", series]) == 0
    assert open(fast, "rb").read() == open(series, "rb").read()


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


def test_finite_n_builds_one_table_per_m(tmp_path, monkeypatch):
    from airymax import finite_n
    out = str(tmp_path / "fn.csv")
    argv = ["finite-n", "-N", "2", "--m-min", "1.5", "--m-max", "2.5", "--m-step", "0.5",
            "-o", out]
    builds = []
    real_build = finite_n.build_op_tables

    def counting(M_values, N, **kw):
        builds.extend((float(M), N) for M in M_values)
        return real_build(M_values, N, **kw)
    monkeypatch.setattr(finite_n, "build_op_tables", counting)
    assert main(argv) == 0
    # N = 8, 16 and 32 tables belong to the convergence report
    assert [b for b in builds if b[1] == 2] == [(1.5, 2), (2.0, 2), (2.5, 2)]
    monkeypatch.undo()
    # the same rows as a fresh table per M with every tau in one call
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 27
    for i in range(0, 27, 9):
        M = float(rows[i][0])
        taus = np.array([float(r[1]) for r in rows[i:i + 9]])
        dens = finite_n.jpdf_finite_n(M, taus, 2)
        for (_, _, d, cdf), ref in zip(rows[i:i + 9], dens):
            assert d == format(float(ref), ".17g")
            assert cdf == format(float(finite_n.cdf_max_finite_n(M, 2)), ".17g")


_TABLE_DIGESTS = {2: "0aba3e4a86db04299349e88a4f178aeab5a30257da86d87034e154bebe175200",
                  3: "e47d1fd82d9d8aa48039edb499a1f7ac7a4ee3187755241f62792876a42a7595"}
_CONVERGENCE_DIGEST = "c54038d2454cd930643d8e3d4deac84800207f3aa4aff28b842375b5a1f0b5bb"
_EDGE_DIGESTS = {"jpdf": "955eaabf3b376bcfe675389575c95cea51c5a2b1e4c8fa0e813895e6c71a7df5",
                 "marginal": "071baa115fae49cec730f298dfa734174e9775086b68d89a224b5f395a111896"}


@pytest.mark.parametrize("command", sorted(_EDGE_DIGESTS))
def test_edge_csvs_match_frozen_digests(tmp_path, command):
    # sha256 of the default CSV; any change to the transport, the P(s, w)
    # assembly, the marginal's s sums, the axes or the CSV format shows here
    out = tmp_path / "t.csv"
    assert main([command, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _EDGE_DIGESTS[command]


@pytest.mark.parametrize("N", [2, 3])
def test_finite_n_csvs_match_frozen_digests(tmp_path, N):
    # sha256 of the bytes of both CSVs at the defaults; any change to the
    # Stieltjes kernel, the G sums, the F_N product or the CSV format shows here
    table, conv = tmp_path / "fn.csv", tmp_path / "conv.csv"
    assert main(["finite-n", "-N", str(N), "-o", str(table),
                 "--convergence-output", str(conv)]) == 0
    assert hashlib.sha256(table.read_bytes()).hexdigest() == _TABLE_DIGESTS[N]
    assert hashlib.sha256(conv.read_bytes()).hexdigest() == _CONVERGENCE_DIGEST


def _refused_before_any_work(monkeypatch, tmp_path, argv):
    from airymax import finite_n
    monkeypatch.setattr(finite_n, "_stieltjes", _no_work)
    monkeypatch.setattr(cli, "solve_hastings_mcleod", _no_work)
    out = tmp_path / "fn.csv"
    assert main(["finite-n", *argv, "-o", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--m-max", "inf"], ["--m-min", "nan"], ["--m-min=-inf"], ["--m-step", "inf"],
    ["--m-step", "nan"],
])
def test_finite_n_refuses_nonfinite_grid(tmp_path, monkeypatch, argv):
    # --m-max inf exited 2 with numpy's "Maximum allowed size exceeded"
    _refused_before_any_work(monkeypatch, tmp_path, argv)


@pytest.mark.parametrize("argv", [
    ["--m-min", "0.4"], ["--m-max", "8.1"], ["-N", "8", "--m-max", "17"],
    ["-N", "0"], ["-N", "257"],
])
def test_finite_n_refuses_m_outside_the_table_range(tmp_path, monkeypatch, argv):
    # 4 sqrt(2N) is 8 at N = 2 and 16 at N = 8
    _refused_before_any_work(monkeypatch, tmp_path, argv)


def test_finite_n_refuses_a_grid_above_the_row_ceiling(tmp_path, monkeypatch):
    # --m-step 1e-9 tried to allocate 22.4 GiB and exited 2
    _refused_before_any_work(monkeypatch, tmp_path, ["--m-step", "1e-9"])
    span = 4.0 - 1.0
    _refused_before_any_work(monkeypatch, tmp_path,
                             ["--m-step", repr(span / cli.FINITE_N_MAX_ROWS)])


_B = cli._CSV_BLOCK_ROWS


@pytest.mark.parametrize("rows", [
    np.random.default_rng(5).standard_normal((200, 3)) * np.logspace(-300, 300, 3),
    [(0.1, 1, np.float64(-0.0)), (float("inf"), -float("inf"), float("nan")), (1e-320, 2 ** 60, 7.0)],
    [],
    # around the block size of write_csv
    *(np.random.default_rng(n).standard_normal((n, 3)) * np.logspace(-300, 300, 3)
      for n in (1, _B - 1, _B, _B + 1, 2 * _B + 1)),
])
def test_write_csv_equals_csv_writer(tmp_path, rows):
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    cli.write_csv(str(ours), ["a", "b", "c"], rows)
    write_csv_reference(str(ref), ["a", "b", "c"], rows)
    assert ours.read_bytes() == ref.read_bytes()


def test_option_still_refused_as_a_value():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["tw-f1", "--s-min", "-o"])


def test_marginal_transports_its_reads_once(tmp_path, monkeypatch):
    # the table's +-w and the fit's +-w (2.5 to 4 by 0.25), 23 columns, in
    # one sweep; the parent built an 81-column grid, then swept the fit again
    from airymax import airy2
    sweeps = []
    sweep = airy2._Sweep

    class Logged(sweep):
        def __init__(self, *a):
            super().__init__(*a)
            sweeps.append([])

        def run(self, w):
            sweeps[-1].extend(w)
            return super().run(w)

    monkeypatch.setattr(airy2, "_Sweep", Logged)
    assert main(["marginal", "--w-max", "2", "--w-step", "0.5", "-o", str(tmp_path / "m.csv")]) == 0
    (cols,) = sweeps
    reads = np.r_[np.arange(0.0, 2.1, 0.5), np.arange(2.5, 4.001, 0.25)]
    assert sorted(cols) == sorted({*reads, *-reads}) and len(cols) == 23


def test_marginal_builds_no_density_grid(tmp_path, monkeypatch):
    from airymax import airy2
    monkeypatch.setattr(airy2, "build_joint_density_grid", _no_work)
    out = tmp_path / "m.csv"
    assert main(["marginal", "--w-max", "1", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 12


def test_marginal_transports_no_column_beyond_its_reads(tmp_path, monkeypatch):
    # the fit reads w <= 4 and the table w <= --w-max; the sweep stops there
    from airymax import airy2
    widest = []
    run = airy2._Sweep.run
    monkeypatch.setattr(airy2._Sweep, "run",
                        lambda self, w: widest.append(np.max(np.abs(w))) or run(self, w))
    for argv, w_top in ((["marginal"], 4.0), (["marginal", "--w-max", "3.0"], 4.0),
                        (["marginal", "--w-max", "4.2"], 4.2)):
        widest.clear()
        assert main([*argv, "-o", str(tmp_path / "m.csv")]) == 0
        assert max(widest) == w_top, argv


@pytest.mark.parametrize("argv, column", [
    (["marginal"], 0), (["jpdf", "--s-min", "-1", "--s-max", "1", "--s-step", "0.5"], 1),
], ids=["marginal", "jpdf"])
def test_w_grid_stops_at_w_max(tmp_path, argv, column):
    # w = 0, 0.07, ... 5.95: the next point, 6.02, passes --w-max and the
    # cap, and both commands exited 1 on it
    out = tmp_path / "t.csv"
    assert main([*argv, "--w-max", "6", "--w-step", "0.07", "-o", str(out)]) == 0
    w = np.loadtxt(out, delimiter=",", skiprows=1)[:, column]
    assert np.array_equal(np.unique(np.abs(w)), np.round(0.07 * np.arange(86), 12))


@pytest.mark.parametrize("argv, last", [
    (["tw-f1", "--s-min", "-1", "--s-max", "1", "--step", "0.3"], 0.8),
    (["jpdf", "--s-min", "-1", "--s-max", "1", "--s-step", "0.3", "--w-max", "1"], 0.8),
    (["finite-n", "-N", "1", "--m-min", "1", "--m-max", "1.7", "--m-step", "0.4"], 1.4),
    (["finite-n", "-N", "1", "--m-min", "5", "--m-max", "5.65", "--m-step", "0.4"], 5.4),
], ids=["tw-f1", "jpdf", "finite-n", "finite-n-top"])
def test_first_column_stops_at_its_max(tmp_path, argv, last):
    # np.arange(lo, hi + step / 2, step) wrote s = 1.1 and M = 1.8; M = 5.8
    # passed both --m-max 5.65 and 4 sqrt(2) = 5.66, and finite-n exited 1
    out = tmp_path / "t.csv"
    assert main([*argv, "-o", str(out)]) == 0
    assert np.max(np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]) == last


def test_default_coordinates_have_no_negative_zero(tmp_path):
    # np.arange put a point a hair below 0 (-6 + 60 x 0.09999999999999964 for
    # tw-f1), which rounds to -0.0: tw-f1 wrote s = -0 once, ldev u = -0 10 times
    for argv, n_coords in ((["tw-f1"], 1), (["ldev"], 2)):
        out = tmp_path / "t.csv"
        assert main([*argv, "-o", str(out)]) == 0
        with open(out) as fh:
            coords = [v for row in list(csv.reader(fh))[1:] for v in row[:n_coords]]
        assert "-0" not in coords and "0" in coords, argv


def test_jpdf_rows_in_grid_order(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["jpdf", "--s-min", "-1", "--s-max", "1", "--s-step", "0.05",
                 "--w-max", "1", "--w-step", "0.5", "-o", str(out)]) == 0
    t = np.loadtxt(out, delimiter=",", skiprows=1)
    assert t.shape == (41 * 5, 3)
    assert np.array_equal(t[:5, 0], np.full(5, -1.0)) and np.array_equal(t[:5, 1], [-1, -0.5, 0, 0.5, 1])
    assert np.array_equal(t[5:10, 0], np.full(5, -0.95))


def test_jpdf_two_point_s_grid(tmp_path, capsys):
    # two s points: the s integral of the normalization estimate is a trapezoid
    from scipy.integrate import simpson
    out = tmp_path / "p.csv"
    assert main(["jpdf", "--s-min", "0", "--s-max", "0.05", "--s-step", "0.05",
                 "-o", str(out)]) == 0
    t = np.loadtxt(out, delimiter=",", skiprows=1)
    n_w = len(t) // 2
    assert t.shape == (2 * n_w, 3) and np.array_equal(t[:, 0], np.repeat([0.0, 0.05], n_w))
    p = t[:, 2].reshape(2, n_w)
    norm = simpson(simpson(p, x=[0.0, 0.05], axis=0), x=t[:n_w, 1])
    assert f"normalization estimate {norm:.6f}" in capsys.readouterr().out
