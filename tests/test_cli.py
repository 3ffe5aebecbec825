"""CLI scenarios: CSV output, config handling, exit codes, determinism."""

import contextlib
import io
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qbouncer.cli as cli
from qbouncer.cli import main
from qbouncer.quantum import PacketSpec
from qbouncer.scaling import natural_units, neutron_units


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cell(row, header, name):
    value = row[header.index(name)]
    return None if value == "" else float(value)


def expectation_x_series_natural(x0, sigma, t, n_terms):
    from qbouncer.quantum import expectation_x_series

    return expectation_x_series(PacketSpec(x0=x0, sigma=sigma), t, n_terms)


class TestSpectrum:
    def test_first_row_carries_printed_values(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--nmax", "1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "x_n", "x_n_asymptotic", "E_n", "rel_err_percent"]
        (row,) = rows
        assert cell(row, header, "x_n") == pytest.approx(2.33811, abs=1e-5)
        assert cell(row, header, "x_n_asymptotic") == pytest.approx(2.32025, abs=1e-5)
        assert cell(row, header, "rel_err_percent") == pytest.approx(0.76372, abs=1e-3)

    def test_ten_rows_ascending(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--nmax", "10", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 10
        xs = [cell(r, header, "x_n") for r in rows]
        assert xs == sorted(xs)

    def test_energy_column_uses_units(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--nmax", "1", "--preset", "neutron", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        u = neutron_units()
        assert cell(rows[0], header, "E_n") == pytest.approx(2.33811 * u.e_g, rel=1e-4)

    def test_zero_nmax_is_usage_error(self, tmp_path, capsys):
        assert main(["spectrum", "--nmax", "0", "--out", str(tmp_path / "x.csv")]) == 2
        assert "nmax" in capsys.readouterr().err

    def test_overflowing_energy_refused_as_quantum_refuses_it(self, capsys):
        # e_g = 2.0e307 overflows from E_6 on; under pytest a numpy overflow
        # warning is an error, so the product must be checked, not computed raw
        units = ["--nmax", "26", "--mass", "1", "--gravity", "1e307", "--hbar", "1.3e154", "--out", "-"]
        errs = []
        for command in ("spectrum", "quantum"):
            assert main([command, *units]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: energy e_g x_26 overflows (e_g = 2.03681805624")


class TestClassicalScenario:
    def test_columns(self, tmp_path):
        out = tmp_path / "cl.csv"
        rc = main(["classical", "--x0", "1", "--tend", "2", "--dt", "0.25", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["t", "x_classical", "x_fourier"]
        assert len(rows) == 9
        assert cell(rows[0], header, "x_classical") == 1.0
        assert cell(rows[4], header, "x_classical") == pytest.approx(0.0, abs=1e-12)


class TestQuantumScenario:
    def test_small_run(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = main([
            "quantum", "--x0", "10", "--sigma", "1.5", "--nmax", "26",
            "--tend", "1", "--dt", "0.5", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["t", "x_quantum", "x_series", "var_x"]
        assert cell(rows[0], header, "x_quantum") == pytest.approx(10.0, rel=1e-5)
        assert cell(rows[0], header, "var_x") == pytest.approx(1.5**2 / 4, rel=1e-3)
        # a packet this narrow damps the series to its (2/3) x0 mean
        from qbouncer.quantum import expectation_x_series

        want = expectation_x_series(PacketSpec(10.0, 1.5), 0.0, 200)
        assert cell(rows[0], header, "x_series") == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(2.0 / 3.0 * 10.0, rel=1e-6)

    def test_insufficient_basis_is_numerical_failure(self, tmp_path, capsys):
        rc = main([
            "quantum", "--x0", "10", "--sigma", "1.5", "--nmax", "3",
            "--tend", "1", "--dt", "0.5", "--out", str(tmp_path / "q.csv"),
        ])
        assert rc == 3
        assert "n_max" in capsys.readouterr().err

    def test_far_packet_refused_before_quadrature(self, tmp_path, capsys):
        # the neutron preset reads the default --x0 10 --sigma 2 as metres
        # (~1.7e6 l_g), far above every basis state; a projection quadrature
        # sized to that packet would need ~1 GiB of nodes
        start = time.perf_counter()
        rc = main(["quantum", "--preset", "neutron", "--out", str(tmp_path / "q.csv")])
        elapsed = time.perf_counter() - start
        assert rc == 3
        assert "turning point" in capsys.readouterr().err
        assert elapsed < 1.0


class TestMomentsScenario:
    def test_columns_and_invariants(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["moments", "--x0", "2", "--alpha", "1", "--tend", "2", "--dt", "0.01",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["t", "x", "p", "G20", "G11", "G02", "uncertainty", "energy"]
        u = natural_units()
        unc = [cell(r, header, "uncertainty") for r in rows]
        assert max(abs(v / (u.hbar**2 / 4) - 1) for v in unc) < 1e-12
        assert cell(rows[0], header, "G02") == pytest.approx(u.l_g**2, rel=1e-14)

    def test_degenerate_tend(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["moments", "--x0", "2", "--tend", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 1 and cell(rows[0], header, "x") == 2.0


class TestCompareScenario:
    args = ["compare", "--x0", "2", "--nmax", "0", "--tend", "4", "--dt", "0.05"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.args + ["--out", str(a)]) == 0
        assert main(self.args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_tend_single_row(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["compare", "--x0", "2", "--nmax", "0", "--tend", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 1
        assert cell(rows[0], header, "x_classical") == 2.0
        assert cell(rows[0], header, "x_quantum") is None  # disabled column stays empty

    @pytest.mark.parametrize("alpha", [1.0, 0.4277])
    def test_envelope_columns(self, tmp_path, alpha):
        out = tmp_path / "c.csv"
        rc = main(self.args + ["--alpha", str(alpha), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        u = natural_units()
        half0 = cell(rows[0], header, "env_upper") - cell(rows[0], header, "x_classical")
        assert half0 == pytest.approx(math.sqrt(alpha) * u.l_g, abs=1e-12)
        widths = np.array(
            [cell(r, header, "env_upper") - cell(r, header, "env_lower") for r in rows]
        )
        assert (np.diff(widths) > 0).all()
        g02 = np.array([cell(r, header, "G02") for r in rows])
        assert np.allclose(widths, 2 * np.sqrt(g02), rtol=1e-13)

    def test_series_column_rescales_with_units(self, tmp_path):
        # in SI units the series column is l_g * series(x0/l_g, t/t_g)
        u = neutron_units()
        x0 = 10 * u.l_g
        sigma = 2 * u.l_g
        out = tmp_path / "c.csv"
        rc = main([
            "compare", "--preset", "neutron", "--x0", str(x0), "--sigma", str(sigma),
            "--nmax", "0", "--tend", str(3 * u.t_g), "--dt", str(u.t_g), "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        for i, row in enumerate(rows):
            want = u.l_g * expectation_x_series_natural(10.0, 2.0, float(i), 200)
            assert cell(row, header, "x_series") == pytest.approx(want, rel=1e-10)

    def test_series_disabled_with_zero_sigma(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(self.args + ["--sigma", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert cell(rows[0], header, "x_series") is None
        assert cell(rows[0], header, "x_classical") is not None

    def test_envelope_reset_mode(self, tmp_path):
        # x0 = 2, g = 2: period 2T = 2*sqrt(2); sample it with dt = T/2
        T = math.sqrt(2.0)
        out = tmp_path / "c.csv"
        rc = main([
            "compare", "--x0", "2", "--nmax", "0", "--tend", str(8 * T),
            "--dt", str(T / 2), "--envreset", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        widths = [cell(r, header, "env_upper") - cell(r, header, "env_lower") for r in rows]
        assert widths[4] == pytest.approx(widths[0], rel=1e-12)  # one period later
        assert widths[1] > widths[0]  # still grows inside the arc
        # G02 column keeps the continuous clock regardless
        g02 = [cell(r, header, "G02") for r in rows]
        assert g02[4] > g02[0]

    def test_quantum_failure_leaves_column_empty(self, tmp_path, capsys):
        # a basis too small for the packet fails the quantum column only;
        # the run continues and still exits 0
        out = tmp_path / "c.csv"
        rc = main([
            "compare", "--x0", "10", "--sigma", "1.5", "--nmax", "2",
            "--tend", "0.2", "--dt", "0.1", "--out", str(out),
        ])
        assert rc == 0
        assert "x_quantum" in capsys.readouterr().err
        header, rows = read_csv(out)
        assert cell(rows[0], header, "x_quantum") is None
        assert cell(rows[0], header, "x_classical") == 10.0
        assert cell(rows[0], header, "env_upper") is not None

    def test_quantum_column_present_when_enabled(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main([
            "compare", "--x0", "10", "--sigma", "1.5", "--nmax", "26",
            "--tend", "0.5", "--dt", "0.25", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert cell(rows[0], header, "x_quantum") == pytest.approx(10.0, rel=1e-5)


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nx0 = 3.0\ntend = 1.0\ndt = 0.5\nnmax = 0\n")
        out = tmp_path / "c.csv"
        rc = main(["compare", "--config", str(cfg), "--x0", "2.0", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert cell(rows[0], header, "x_classical") == 2.0  # flag wins
        assert len(rows) == 3  # tend/dt from file

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xo = 3.0\n")
        assert main(["compare", "--config", str(cfg)]) == 2
        assert "xo" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = three\n")
        assert main(["compare", "--config", str(cfg)]) == 2
        assert "x0" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["compare", "--config", "/nonexistent/run.cfg"]) == 2

    # x0 = 2, g = 2: sampled at half drop times past one period, so the
    # envelope columns tell envreset on from off
    _ENV = ["compare", "--x0", "2", "--nmax", "0", "--tend", str(8 * math.sqrt(2.0)),
            "--dt", str(math.sqrt(2.0) / 2)]
    _SPECTRUM = ["spectrum", "--nmax", "2"]

    @staticmethod
    def _stdout(argv, capsys):
        assert main([*argv, "--out", "-"]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("base,text,flags,other", [
        (_ENV, "envreset = yes", ["--envreset"], ["--no-envreset"]),
        (_ENV, "envreset = No", ["--no-envreset"], ["--envreset"]),
        (_ENV, "envreset = 0", ["--no-envreset"], ["--envreset"]),
        (_SPECTRUM, "preset = neutron", ["--preset", "neutron"], []),
        (_SPECTRUM, "mass = 2\ngravity = 3\nhbar = 0.5",
         ["--mass", "2", "--gravity", "3", "--hbar", "0.5"], []),
    ], ids=["bool-yes", "bool-No", "bool-0", "preset", "units"])
    def test_file_value_acts_as_its_flag(self, base, text, flags, other, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        from_file = self._stdout([*base, "--config", str(cfg)], capsys)
        assert from_file == self._stdout([*base, *flags], capsys)
        assert from_file != self._stdout([*base, *other], capsys)

    @pytest.mark.parametrize("base,text,flags", [
        (_SPECTRUM, "nmax = 5", ["--nmax", "3"]),
        (["classical", "--x0", "1", "--dt", "0.5"], "tend = 2", ["--tend", "1"]),
        (_SPECTRUM, "preset = neutron", ["--preset", "natural"]),
        (_ENV, "envreset = yes", ["--no-envreset"]),
    ], ids=["int", "float", "str", "bool"])
    def test_flag_overrides_file_value(self, base, text, flags, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        both = self._stdout([*base, "--config", str(cfg), *flags], capsys)
        assert both == self._stdout([*base, *flags], capsys)
        assert both != self._stdout([*base, "--config", str(cfg)], capsys)

    @pytest.mark.parametrize("text,name", [
        ("envreset = maybe", "'envreset'"),
        ("nmax = 2.5", "'nmax'"),
        ("preset = moon", "'preset'"),
        ("config = x", "'config'"),
    ], ids=["bool", "int", "preset", "config-key"])
    def test_bad_file_entry_rejected(self, text, name, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        assert main(["classical", "--x0", "1", "--tend", "0", "--config", str(cfg), "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and name in captured.err

    @staticmethod
    def _assert_one_error_line(argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"x0 = 1\xff\n")
        err = self._assert_one_error_line(["compare", "--config", str(cfg)], capsys)
        assert "cannot read config file" in err

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out(self, target, tmp_path, capsys, monkeypatch):
        # refused before the scenario runs, and no file is left behind
        def no_run(cfg):
            raise AssertionError("the scenario ran before --out was checked")

        monkeypatch.setitem(cli._RUNNERS, "quantum", no_run)
        out = tmp_path / "nonexistent" / "x.csv" if target == "missing-dir" else tmp_path
        argv = ["quantum", "--x0", "25", "--sigma", "2", "--nmax", "64", "--tend", "300",
                "--dt", "0.05", "--out", str(out)]
        err = self._assert_one_error_line(argv, capsys)
        assert "cannot write output file" in err
        assert list(tmp_path.iterdir()) == []

    def test_partial_explicit_units_rejected(self, capsys):
        assert main(["spectrum", "--nmax", "1", "--mass", "1.0"]) == 2
        err = capsys.readouterr().err
        assert "gravity" in err or "hbar" in err

    def test_explicit_units_accepted(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main([
            "spectrum", "--nmax", "1", "--mass", str(1 / math.sqrt(2)),
            "--gravity", "1", "--hbar", "1", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        # l_g = 1 for this unit choice, so E_1 = x_1 * m * g
        assert cell(rows[0], header, "E_n") == pytest.approx(2.33811 / math.sqrt(2), rel=1e-4)

    def test_negative_dt_rejected(self, capsys):
        assert main(["classical", "--x0", "1", "--dt", "-0.1"]) == 2
        assert "dt" in capsys.readouterr().err

    def test_nmax_above_checked_range_rejected(self, capsys):
        # n_max past the 10 000 states held to mpmath is refused before any zero
        assert main(["quantum", "--nmax", "10001", "--tend", "1", "--dt", "0.5", "--out", "-"]) == 2
        assert "n_max 10001" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["compare", "--alpha", "0.4", "--nmax", "0"],
        ["quantum", "--nmax", "3"],
    ], ids=["compare", "quantum"])
    def test_underflowing_sigma_rejected(self, command, tmp_path, capsys):
        # sigma**2 underflows to 0.0: both the series (compare) and the
        # projection (quantum) must refuse it by name, not fail inside
        argv = [*command, "--x0", "10", "--sigma", "1e-170", "--tend", "1", "--dt", "0.5",
                "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["quantum", "--nmax", "14"],
        ["compare", "--alpha", "0.4", "--nmax", "0"],
    ], ids=["quantum", "compare"])
    def test_overflowing_sigma_rejected(self, command, capsys):
        # sigma**2 overflows: PacketSpec once raised OverflowError (a traceback)
        # from Python float **; it must refuse sigma by name, exit 2
        argv = [*command, "--x0", "10", "--sigma", "1e300", "--tend", "1", "--dt", "0.5", "--out", "-"]
        assert main(argv) == 2
        assert "sigma" in capsys.readouterr().err

    def test_overflowing_uncertainty_is_numerical_failure(self, capsys):
        # alpha = 1e-300 keeps every moment finite, but G11^2 and G02 G20
        # overflow: the uncertainty column once raised OverflowError from
        # Python float **; integrate now refuses the product, exit 3
        assert main(["moments", "--x0", "41.7", "--alpha", "1e-300", "--tend", "10", "--dt", "0.01",
                     "--out", "-"]) == 3
        assert "uncertainty product overflows at step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["classical", "--x0", "1e-300", "--tend", "1e300", "--dt", "1e300"],
         "column x_fourier is nan at row 1 (t = 1e+300)"),
        (["compare", "--x0", "10", "--alpha", "0.4277", "--nmax", "0", "--tend", "1", "--dt", "0.5"],
         "column env_lower is -inf at row 2 (t = 1)"),
    ], ids=["classical-nan-fourier", "compare-inf-envelope"])
    def test_non_finite_cell_is_numerical_failure(self, argv, message, capsys, monkeypatch):
        # a Fourier series with nan and an envelope with -inf: both CSVs were
        # once written with exit 0.  The series and the envelope now refuse
        # the grids that gave them, so stand-ins supply the bad cells.  Every
        # table passes one finiteness gate before it is written: exit 3
        monkeypatch.setattr(cli.classical, "bounce_fourier",
                            lambda spec, t, n_terms: np.where(t < 1e300, 0.0, np.nan))
        monkeypatch.setattr(cli.moments, "envelope",
                            lambda x0, ic, m, g, t, reset_each_period: (np.where(t < 1, 0.0, -np.inf), t))
        assert main([*argv, "--out", "-"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"numerical failure: {message}\n"

    def test_overflowing_closed_form_rejected(self, capsys):
        # G02 = c0 t^2/m^2 overflows at t = 1e300: the envelope and G02 once
        # overflowed to +-inf behind a numpy warning (exit 3); the closed form
        # now refuses t by name, exit 2
        argv = ["compare", "--x0", "1e300", "--sigma", "7.875", "--alpha", "40.4", "--tend", "2", "--dt", "1e300",
                "--nmax", "0", "--out", "-"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the closed form is not finite at t=1e+300 (m=0.5, ")
        assert err.count("\n") == 1 and "RuntimeWarning" not in err

    def test_overflowing_series_phase_rejected(self, capsys):
        # pi t/T overflows at t = 1e300 for T ~ 4.5e-151: the series once
        # warned of overflow and wrote nan; it now refuses T and t by name,
        # exit 2 (a numpy warning is an error under this suite)
        argv = ["classical", "--x0", "1e-300", "--tend", "1e300", "--dt", "1e300", "--out", "-"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the series phase pi t/T overflows at T=")
        assert err.count("\n") == 1 and "t=1e+300" in err and "RuntimeWarning" not in err

    def test_overflowing_spectral_phase_rejected(self, capsys):
        # t E_26/hbar overflows at t = 1e307: the spectral columns once warned
        # three times and wrote nan (exit 3); the phase is now refused, exit 2
        argv = ["quantum", "--x0", "10", "--sigma", "1.5", "--nmax", "26", "--tend", "1e307", "--dt", "1e306"]
        assert main([*argv, "--out", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the phase t E_26/hbar overflows at t = 1e+307 ")
        assert err.count("\n") == 1 and "RuntimeWarning" not in err

    @pytest.mark.parametrize("command", [
        ["compare", "--nmax", "0", "--tend", "0.1", "--dt", "0.05"],
        ["moments"],
    ], ids=["compare", "moments"])
    def test_alpha_overflowing_c0_rejected(self, command, capsys):
        # c0 = hbar^2/(4 alpha l_g^2) overflows: both commands must refuse
        # alpha by name instead of writing or integrating inf
        assert main([*command, "--x0", "10", "--alpha", "1e-320", "--out", "-"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("tend,dt", [("1e15", "1"), ("1e300", "1e-300")], ids=["cap", "overflow"])
    @pytest.mark.parametrize("command", [
        ["classical"],
        ["quantum", "--nmax", "3"],
        ["compare", "--nmax", "0"],
        ["moments"],
    ], ids=["classical", "quantum", "compare", "moments"])
    def test_oversized_time_grid_rejected(self, command, tend, dt, capsys):
        # tend/dt above the moment integrator's 1e8 step cap, or overflowing
        # to inf, is refused before the grid is allocated, by every runner
        # with the same message
        assert main([*command, "--x0", "1", "--tend", tend, "--dt", dt, "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert "'tend'/'dt'" in err and "1e+08" in err

    @pytest.mark.parametrize("argv,name", [
        (["spectrum", "--nmax", "3", "--mass", "1e-300", "--gravity", "1", "--hbar", "1"], "l_g"),
        (["classical", "--x0", "1", "--mass", "1", "--gravity", "1e-320", "--hbar", "1"], "l_g"),
        (["classical", "--x0", "1.7e308"], "drop time"),
    ], ids=["mass-underflow", "gravity-overflow", "drop-time-overflow"])
    def test_scales_outside_doubles_rejected(self, argv, name, capsys):
        # positive, finite inputs whose derived scale is 0 or inf in doubles
        assert main([*argv, "--tend", "1", "--dt", "0.5", "--out", "-"]) == 2
        assert name in capsys.readouterr().err

    def test_stdout_output(self, capsys):
        assert main(["classical", "--x0", "1", "--tend", "0", "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "t,x_classical,x_fourier"

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["orbit"])
        assert info.value.code == 2


_USAGE = "usage: qbouncer [-h] {spectrum,classical,quantum,moments,compare} ...\n"
_MOMENTS_USAGE = """\
usage: qbouncer moments [-h] [--preset {natural,neutron}] [--mass MASS]
                        [--gravity GRAVITY] [--hbar HBAR] [--x0 X0]
                        [--sigma SIGMA] [--alpha ALPHA] [--nmax NMAX]
                        [--nterms NTERMS] [--tend TEND] [--dt DT] [--out OUT]
                        [--config CONFIG] [--envreset | --no-envreset]
"""
_HELP = _USAGE + """
Quantum bouncer scenarios: exact classical bounce, Airy-basis spectral
evolution, and semiclassical moment dynamics.

positional arguments:
  {spectrum,classical,quantum,moments,compare}
    spectrum            eigenvalue table with the asymptotic comparison
    classical           folded bounce trajectory and its Fourier series
    quantum             spectral <x>(t), the closed-form series, and Var(x)
    moments             moment-hierarchy integration from saturated initial
                        data
    compare             all descriptions on one aligned time grid

options:
  -h, --help            show this help message and exit
"""
_MOMENTS_HELP = _MOMENTS_USAGE + """
options:
  -h, --help            show this help message and exit
  --preset {natural,neutron}
                        unit preset
  --mass MASS           particle mass (overrides preset)
  --gravity GRAVITY     gravitational acceleration
  --hbar HBAR           reduced Planck constant
  --x0 X0               release height
  --sigma SIGMA         packet width (0 disables quantum columns)
  --alpha ALPHA         initial position variance in units of l_g^2
  --nmax NMAX           number of basis states (0 disables)
  --nterms NTERMS       Fourier series terms
  --tend TEND           final time
  --dt DT               time-grid spacing
  --out OUT             output CSV path, '-' for stdout
  --config CONFIG       flat key=value config file
  --envreset, --no-envreset
                        restart the dispersion clock at every bounce period in
                        the envelope columns
"""


@pytest.mark.parametrize("argv, out, err, code", [
    (["-h"], _HELP, "", 0),
    (["moments", "-h"], _MOMENTS_HELP, "", 0),
    ([], "", _USAGE + "qbouncer: error: the following arguments are required: command\n", 2),
    (["foo"], "", _USAGE + "qbouncer: error: argument command: invalid choice: 'foo' (choose from "
     "'spectrum', 'classical', 'quantum', 'moments', 'compare')\n", 2),
    (["moments", "--bogus", "1"], "", _USAGE + "qbouncer: error: unrecognized arguments: --bogus 1\n", 2),
    (["moments", "--x0"], "", _MOMENTS_USAGE + "qbouncer moments: error: argument --x0: expected one argument\n", 2),
], ids=["help", "moments-help", "no-command", "unknown-command", "unknown-option", "missing-value"])
def test_help_and_usage_text(argv, out, err, code, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    assert capsys.readouterr() == (out, err)


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    argv = ["classical", "--x0", "1", "--tend", "0", "--out", "-"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr("sys.argv", ["qbouncer", *argv])
    assert main() == 0
    assert capsys.readouterr().out == expected


def _oracle_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _oracle_csv(header, rows) -> str:
    return "".join([",".join(header) + "\n", *(",".join(map(_oracle_cell, r)) + "\n" for r in rows)])


def _oracle_table(kind, u, x0=10.0, sigma=2.0, alpha=1.0, nmax=48, nterms=200, tend=25.0, dt=0.05):
    """The CSV of `qbouncer kind` rebuilt row by row from the library API.

    Time-dependent columns come from one library call on the whole grid, as
    spectral rows depend in their last bit on the grid they share."""
    from qbouncer import classical, moments, quantum
    from qbouncer.specfun import airy_zero, airy_zero_asymptotic

    grid = np.array([0.0]) if tend == 0 else dt * np.arange(max(1, round(tend / dt)) + 1)
    bounce = classical.BounceSpec(x0=x0, g=u.g)
    if kind == "spectrum":
        rows = []
        for n in range(1, nmax + 1):
            exact, seed = airy_zero(n), airy_zero_asymptotic(n)
            rows.append([n, exact, seed, u.e_g * exact, 100.0 * abs(exact - seed) / exact])
        return _oracle_csv(["n", "x_n", "x_n_asymptotic", "E_n", "rel_err_percent"], rows)
    if kind == "classical":
        cols = [grid, classical.bounce_trajectory(bounce, grid), classical.bounce_fourier(bounce, grid, nterms)]
        return _oracle_csv(["t", "x_classical", "x_fourier"], zip(*cols))
    if kind == "moments":
        ic = moments.saturated_ic(alpha, u)
        V = moments.PolynomialPotential.gravity(u.m, u.g)
        s0 = moments.initial_state(ic, x0=x0)
        rows = [[t, s.x, s.p, s.moment(2, 0), s.moment(1, 1), s.moment(0, 2),
                 moments.uncertainty_product(s), moments.effective_hamiltonian(s, V, u.m)]
                for t, s in moments.integrate(s0, V, u.m, tend, dt, hbar=u.hbar)]
        return _oracle_csv(["t", "x", "p", "G20", "G11", "G02", "uncertainty", "energy"], rows)
    state = None
    if nmax >= 1 and sigma > 0:
        state = quantum.project_packet(quantum.PacketSpec(x0=x0, sigma=sigma), quantum.build_basis(nmax, u))
    series = u.l_g * quantum.expectation_x_series(
        quantum.PacketSpec(x0=x0 / u.l_g, sigma=sigma / u.l_g), grid / u.t_g, nterms)
    if kind == "quantum":
        cols = [grid, quantum.expectation_x_evolution(state, grid), series,
                quantum.variance_x_evolution(state, grid)]
        return _oracle_csv(["t", "x_quantum", "x_series", "var_x"], zip(*cols))
    assert kind == "compare" and sigma > 0 and alpha > 0
    ic = moments.saturated_ic(alpha, u)
    lo, hi = moments.envelope(x0, ic, u.m, u.g, grid)
    g20, g11, g02 = moments.closed_form_linear(ic, u.m, grid)
    x_qm = [None] * grid.size if state is None else quantum.expectation_x_evolution(state, grid)
    cols = [grid, classical.bounce_trajectory(bounce, grid), x_qm, series, lo, hi, g02, g11, g20]
    return _oracle_csv(["t", "x_classical", "x_quantum", "x_series",
                        "env_lower", "env_upper", "G02", "G11", "G20"], zip(*cols))


# finite doubles as bit patterns: sign, biased exponent 0 (zeros and
# subnormals) to 2046 (the largest binade), mantissa
_FINITE_BITS = st.tuples(st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1)).map(
    lambda f: (f[0] << 63) | (f[1] << 52) | f[2])


def _write_both(header, cols, path):
    """write_table's file bytes and its text on stdout."""
    cli.write_table(header, cols, str(path))
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.write_table(header, cols, "-")
    return path.read_bytes(), text.getvalue()


def _table_with_int_and_empty(floats, int_at, none_at):
    n = len(floats)
    cols = list(floats.T)
    if int_at is not None:
        cols.insert(int_at, np.arange(n))
    cols.insert(none_at, None)
    header = [f"c{i}" for i in range(len(cols))]
    return header, cols, _oracle_csv(header, zip(*[[None] * n if c is None else c for c in cols]))


class TestWriteTableProperty:
    """write_table's bytes equal the per-cell oracle for any finite doubles,
    an int column and an empty column, on both sides of its row-block bound,
    to a file and to stdout."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(block=st.integers(1, 5), data=st.data())
    def test_blocks_match_cell_oracle(self, block, data, tmp_path_factory):
        # a float column of one bit pattern is formatted once, into the row
        # template; a mix of +0.0 and -0.0 is two patterns, and without the int
        # column every column may be constant, the template alone making each row
        rows = data.draw(st.integers(1, 3 * block + 1), label="rows")
        floats = data.draw(arrays(np.uint64, (rows, data.draw(st.integers(1, 3), label="float columns")),
                                  elements=_FINITE_BITS), label="bits").view(np.float64)
        k = floats.shape[1]
        for j in range(k):
            kind = data.draw(st.sampled_from(["drawn", "constant", "signed zeros"]), label=f"column {j}")
            if kind == "constant":
                floats[:, j] = floats[0, j]
            elif kind == "signed zeros":
                floats[:, j] = np.where(data.draw(arrays(bool, rows), label=f"signs of {j}"), -0.0, 0.0)
        int_at = data.draw(st.none() | st.integers(0, k), label="int column at")
        header, cols, want = _table_with_int_and_empty(
            floats, int_at, data.draw(st.integers(0, k + (int_at is not None)), label="empty column at"))
        with mock.patch.object(cli, "_BLOCK_ROWS", block):
            got, text = _write_both(header, cols, tmp_path_factory.mktemp("csv") / "t.csv")
        assert got == want.encode() and text == want

    @pytest.mark.parametrize("extra", [-1, 0, 1, cli._BLOCK_ROWS + 1])
    def test_real_block_size(self, extra, tmp_path):
        rows = cli._BLOCK_ROWS + extra
        bits = np.random.default_rng(rows).integers(0, 2**63, (rows, 2), dtype=np.uint64, endpoint=False)
        bits[:, 1] |= np.uint64(1 << 63)  # a negative column
        floats = bits.view(np.float64)
        floats[~np.isfinite(floats)] = -0.0
        header, cols, want = _table_with_int_and_empty(floats, 0, 2)
        got, text = _write_both(header, cols, tmp_path / "t.csv")
        assert got == want.encode() and text == want


@pytest.mark.parametrize("argv", [
    "spectrum --nmax 10",
    "classical --x0 1 --tend 4 --dt 0.01",
    "quantum --x0 10 --sigma 1.5 --nmax 26 --tend 20 --dt 0.05",
    "moments --x0 2 --alpha 1 --tend 5 --dt 0.01",
    "compare --x0 10 --alpha 0.4277 --nmax 0 --tend 12 --dt 0.05",
    "compare --x0 10 --alpha 0.4277 --nmax 26 --tend 12 --dt 0.05",
    # terms up to 4.3e9 times their difference: pins the trajectory form of the
    # uncertainty product to the scalar form where the product cancels
    "moments --preset neutron --x0 2.3 --alpha 0.7 --tend 50 --dt 0.003",
    "moments --x0 2 --alpha 1 --tend 0",
])
def test_csv_bytes_match_row_oracle(argv, capsys):
    kind, *flags = argv.split()
    opts = dict(zip(flags[::2], flags[1::2]))
    u = neutron_units() if opts.pop("--preset", "natural") == "neutron" else natural_units()
    kwargs = {k[2:]: int(v) if k == "--nmax" else float(v) for k, v in opts.items()}
    assert main([kind, *flags, "--out", "-"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == _oracle_table(kind, u, **kwargs)


# the property test of main runs each command with values its options take,
# plus one edge value of one option ("abc" is malformed); grids have
# at most 26 rows (or are refused) and bases at most 26 states, so hundreds of
# runs stay cheap
_PLAIN = {
    "x0": ("10", "5", "0.3", "1e-6"),
    "sigma": ("1.5", "1", "7.875", "0"),
    "alpha": ("1", "0.4277", "40.4", "0"),
    "nterms": ("1", "7", "200"),
}
_SET = {"nmax": ("0", "1", "26"), "tend": ("0", "0.5", "2.5"), "dt": ("0.1", "0.5", "2")}
_UNITS = st.sampled_from([[], ["--preset", "natural"], ["--preset", "neutron"]]) | st.tuples(
    *[st.sampled_from(["1", "0.5", "2"])] * 3
).map(lambda v: ["--mass", v[0], "--gravity", v[1], "--hbar", v[2]])
_BAD = ("0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "abc")
_EDGES = {
    "preset": st.just("moon"),
    **{key: st.sampled_from(("1.054571817e-34", *_BAD)) for key in ("mass", "gravity", "hbar", "dt")},
    **{key: st.sampled_from(_BAD) | st.floats(allow_nan=True, allow_infinity=True).map(repr)
       for key in ("x0", "sigma", "alpha")},
    "nmax": st.sampled_from(("-3", "10001", "1.5", "abc")),
    "nterms": st.sampled_from(("0", "-1", "abc")),
    "tend": st.sampled_from(("-1", "nan", "inf", "1e300", "abc")),
}
_MAIN_ARGS = st.tuples(
    _UNITS,
    st.fixed_dictionaries({k: st.sampled_from(v) for k, v in _SET.items()},
                          optional={k: st.sampled_from(v) for k, v in _PLAIN.items()}),
    st.sampled_from([[], ["--envreset"], ["--no-envreset"]]),
    st.sampled_from(sorted(_EDGES)).flatmap(lambda k: _EDGES[k].map(lambda v: ["--" + k, v])),
).map(lambda a: [*a[0], *[part for k, v in a[1].items() for part in ("--" + k, v)], *a[2], *a[3]])


class TestMainProperty:
    """Any argv of known options exits 0, 2 or 3 without a traceback; a run
    that succeeds warns only with 'warning:' lines and writes finite cells."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(command=st.sampled_from(list(cli._RUNNERS)), flags=_MAIN_ARGS)
    def test_exit_code_output_and_cells(self, command, flags):
        # the edge value comes last, so it overrides a plain value of its key
        argv = [command, *flags, "--out", "-"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a malformed value
                code = exc.code
        err = err.getvalue()
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code != 0:
            return
        assert all(line.startswith("warning: ") for line in err.splitlines()), err
        header, *rows = out.getvalue().splitlines()
        assert rows and header.startswith(("n,", "t,"))
        for row in rows:
            cells = row.split(",")
            assert len(cells) == header.count(",") + 1
            assert all(math.isfinite(float(c)) for c in cells if c), (argv, row)
