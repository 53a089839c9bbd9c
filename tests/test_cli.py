import ast
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellsym import NumericalError, _g17kernel, cli, geometry, layers, reduced, symbols
from shellsym.geometry import ElasticityTensor
from shellsym.cli import (
    COMMANDS,
    ConfigError,
    ExperimentConfig,
    _g17,
    main,
    parse_config,
)

BASE_CFG = """
# demo configuration
chart = frozen
b_coeffs = 1,0,1
elasticity = identity
epsilon_list = 1e-2,1e-3,1e-4
N = 64
d = 1
xi1_list = 1,3
k_probe = 10
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG)
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_config_parses_every_field_type():
    every_type = BASE_CFG + """
chart = sphere-cap
chart_params = 2.5
theta = 0.75
kernel_modes = 3,5
elasticity = explicit
elasticity_membrane = 2,0.5,0,2,0,1
elasticity_bending = 1,0,0.25,1,0,0.5
f_profile = delta:4
"""
    cfg = parse_config(every_type)
    assert (cfg.chart_params, cfg.theta, cfg.zeta) == ((2.5,), 0.75, None)
    assert cfg.elasticity_bending == (1.0, 0.0, 0.25, 1.0, 0.0, 0.5)
    assert [type(k) for k in cfg.kernel_modes] == [int, int]
    assert type(cfg.n_modes) is int and type(cfg.d) is float
    cfg = parse_config(every_type + "theta = none\nzeta = 1.5\n")
    assert (cfg.theta, cfg.zeta) == (None, 1.5)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("no_such_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config("chart frozen\n")


def test_config_rejects_command_key(tmp_path):
    # the command comes from the command line; a config file that names one
    # used to be overridden silently
    with pytest.raises(ConfigError, match="unknown key 'command'"):
        parse_config("command = sensitivity\n")
    cfg = tmp_path / "cmd.cfg"
    cfg.write_text("command = sensitivity\nN = 16\n")
    out = tmp_path / "x.csv"
    assert main(["solve-reduced", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_config_rejects_output_path_key(tmp_path):
    # the output path comes from --out alone; a config file that names one
    # used to be overridden by --out
    with pytest.raises(ConfigError, match="unknown key 'output_path'"):
        parse_config("output_path = x.csv\n")
    cfg = tmp_path / "out.cfg"
    cfg.write_text("output_path = x.csv\nN = 16\n")
    out = tmp_path / "y.csv"
    assert main(["solve-reduced", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_config_has_one_spelling_of_the_cutoff(tmp_path):
    # N is the cutoff's only key; n_modes used to be a second spelling, and
    # "N = 16" then "n_modes = 8" wrote 17 rows
    with pytest.raises(ConfigError, match="unknown key 'n_modes'"):
        parse_config("N = 16\nn_modes = 8\n")
    cfg = tmp_path / "n.cfg"
    cfg.write_text("N = 16\nn_modes = 8\n")
    out = tmp_path / "x.csv"
    assert main(["solve-reduced", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    # a repeated key keeps its last value
    assert parse_config("N = 16\nN = 8\n").n_modes == 8


def test_unwritable_out_is_a_config_error(tmp_path, cfg_path, capsys):
    # the write used to escape main as a traceback with exit 1
    out = tmp_path / "no" / "such" / "x.csv"
    assert main(["solve-reduced", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert not out.parent.exists()


def test_failed_command_writes_no_file(tmp_path):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text("epsilon_list = 1e-30\nN = 8\ntheta = 1\nzeta = 1\nk_probe = 5\n")
    out = tmp_path / "x.csv"
    assert main(["sweep-epsilon", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()


def _cell_text(column) -> list:
    """The text of a typed column as the renderer must write it."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return [format(x, ".17g") for x in column.tolist()]
    if isinstance(column, np.ndarray):
        return list(map(str, column.tolist()))
    return list(column)


def test_commands_return_typed_columns(tmp_path, cfg_path):
    # each command only computes; main writes its columns, one row per index:
    # float and int arrays, and lists of text
    from shellsym.cli import _DISPATCH
    for command, run in _DISPATCH.items():
        cfg = parse_config(BASE_CFG)
        cfg.command = command
        cfg.validate()
        header, columns = run(cfg)
        assert len(columns) == header.count(",") + 1, command
        assert len({len(col) for col in columns}) == 1, command
        for col in columns:
            if isinstance(col, np.ndarray):
                assert col.ndim == 1 and col.dtype.kind in "fi", command
            else:
                assert all(type(x) is str for x in col), command
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
        rows = ["# schema=1", header, *map(",".join, zip(*map(_cell_text, columns)))]
        assert read(out).decode() == "\n".join(rows) + "\n", command


def test_write_csv_refuses_unequal_columns(tmp_path):
    # a short column used to drop rows silently from the zip of a %-template
    from shellsym.cli import write_csv
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        write_csv(str(out), "a,b", [["1", "2"], ["3"]])
    assert not out.exists()
    write_csv(str(out), "a,b", [["1", "2"], ["3", "-0"]])
    assert read(out) == b"# schema=1\na,b\n1,3\n2,-0\n"


def test_config_validation_errors():
    cfg = parse_config(BASE_CFG)
    cfg.command = "check-sl"
    cfg.epsilon_list = ()
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = parse_config(BASE_CFG)
    cfg.command = "check-sl"
    cfg.b_coeffs = (1.0, 2.0, 1.0)   # hyperbolic
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_rejects_zero_radius_and_zero_xi1(tmp_path):
    out = str(tmp_path / "x.csv")
    for command, text in (
            ("check-ellipticity", "chart = sphere-cap\nchart_params = 0.0\n"),
            ("check-ellipticity", "chart = sphere-cap\nchart_params = inf\n"),
            ("check-ellipticity", "chart = sphere-cap\nchart_params = nan\n"),
            ("check-sl", "xi1_list = 1,0\n"),
            ("layer-modes", "xi1_list = 1,0\n"),
            ("check-sl", "xi1_list =\n"),
            ("layer-modes", "xi1_list =\n"),
            ("solve-reduced", "N = 128\nf_profile = delta:-200\n"),
            ("solve-reduced", "N = 128\nf_profile = delta:200\n"),
            ("solve-reduced", "f_profile = delta:x\n"),
            ("solve-reduced", "f_profile = bogus\n"),
            ("sweep-epsilon", "N = 128\nk_probe = 500\n"),
            ("sweep-epsilon", "N = 128\nk_probe = -129\n"),
            ("solve-reduced", "theta = -1\n"),
            ("sensitivity", "theta = 1\nzeta = 0\n"),
            ("rescale-demo", "kernel_modes =\n"),
            ("rescale-demo", "N = 64\nkernel_modes = 100\n"),
            ("rescale-demo", "N = 64\nkernel_modes = 3,-65\n"),
            ("check-sl", "xi1_list = nan\n"),
            ("layer-modes", "xi1_list = nan\n"),
            ("layer-modes", "xi1_list = 1,inf\n"),
            ("sweep-epsilon", "d = nan\n"),
            ("solve-reduced", "d = nan\n"),
            ("solve-reduced", "theta = inf\nzeta = 1\n"),
            ("sensitivity", "zeta = nan\n"),
            ("check-ellipticity", "b_coeffs = nan,0,1\n"),
            ("check-ellipticity", "elasticity = explicit\n"
             "elasticity_membrane = 2,0.5,0,2,0,inf\n"
             "elasticity_bending = 1,0,0.25,1,0,0.5\n")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", out]) == 2, text
        with pytest.raises(ConfigError):
            config = parse_config(text)
            config.command = command
            config.validate()
    # a negative radius is a valid chart; its output is unchanged
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(SPHERE_CAP_CFG.replace("1.7", "-1.7"))
    assert main(["check-ellipticity", "--config", str(cfg), "--out", out]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == \
        "d28c8b4cfe5a1819c7eefc6f4c84edd85f6a0b0f3e9544d2f73e33e704645837"


def test_config_rejects_chart_outside_check_ellipticity(tmp_path):
    # only check-ellipticity reads the chart; the other commands work at the
    # frozen point of b_coeffs and used to ignore chart and chart_params
    out = str(tmp_path / "x.csv")
    cfg = tmp_path / "chart.cfg"
    # the frozen chart has no parameter: check-ellipticity used to ignore
    # chart_params = 2 there and write the bytes of no chart_params
    for text, ellipticity_exit in ((SPHERE_CAP_CFG, 0),
                                   (SPHERE_CAP_CFG.replace("1.7", "-1.7"), 0),
                                   ("chart = sphere-cap\n", 0), ("chart_params = 2\n", 2)):
        cfg.write_text(text)
        for command in set(COMMANDS) - {"check-ellipticity"}:
            assert main([command, "--config", str(cfg), "--out", out]) == 2, \
                (command, text)
            assert not os.path.exists(out)
        assert main(["check-ellipticity", "--config", str(cfg), "--out", out]) == \
            ellipticity_exit
        assert os.path.exists(out) == (ellipticity_exit == 0)
        if ellipticity_exit == 0:
            os.remove(out)


def test_config_rejects_extra_sphere_cap_params(tmp_path, capsys):
    # the sphere cap has one parameter, its radius; the extra values used to
    # be dropped silently
    cfg = tmp_path / "cap.cfg"
    out = tmp_path / "x.csv"
    cfg.write_text("chart = sphere-cap\nchart_params = 1.3,99,-4\n")
    assert main(["check-ellipticity", "--config", str(cfg), "--out", str(out)]) == 2
    assert "one chart_params value" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text("chart = sphere-cap\nchart_params = 1.3\n")
    assert main(["check-ellipticity", "--config", str(cfg), "--out", str(out)]) == 0


REDUCED_COMMANDS = ("solve-reduced", "sweep-epsilon", "sensitivity", "rescale-demo")


def test_curvature_is_refused_only_where_a_command_reads_it(tmp_path, capsys):
    # a reduced command reads b_coeffs only for the theta or zeta the config
    # leaves unset; the symbol commands always read it
    cfg = tmp_path / "hyp.cfg"
    out = str(tmp_path / "x.csv")
    base = "b_coeffs = 1,2,1\nN = 16\n"
    cfg.write_text(base + "theta = 1\nzeta = 1\n")
    for command in REDUCED_COMMANDS:
        assert main([command, "--config", str(cfg), "--out", out]) == 0, command
    # the symbol commands take neither theta nor zeta, so they meet b_coeffs
    # only with both unset
    for unset in ("theta = 1\n", "zeta = 1\n", ""):
        cfg.write_text(base + unset)
        symbol = () if unset else ("check-sl", "layer-modes")
        for command in REDUCED_COMMANDS + symbol:
            assert main([command, "--config", str(cfg), "--out", out]) == 2, \
                (command, unset)
            assert capsys.readouterr().err == ("configuration error: b_coeffs must "
                                               "be surface-elliptic for this command\n")


def test_curvature_past_the_double_range_is_refused(tmp_path, capsys):
    # b12 ** 2 overflows: the symbol commands and a reduced command with
    # theta unset refuse the curvature as not surface-elliptic, and
    # check-ellipticity reports it in its rows
    cfg = tmp_path / "huge_b12.cfg"
    cfg.write_text("b_coeffs = 2.0,1e+308,0.5\nN = 8\n")
    out = tmp_path / "x.csv"
    for command in ("check-sl", "layer-modes", "solve-reduced"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, command
        assert capsys.readouterr().err == ("configuration error: b_coeffs must "
                                           "be surface-elliptic for this command\n")
        assert not out.exists()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # the rigidity det overflows
        assert main(["check-ellipticity", "--config", str(cfg), "--out", str(out)]) == 0
    assert [line.rsplit(",", 1)[1] for line in read(out).decode().splitlines()[2:]] \
        == ["false"] * 4


def test_indefinite_explicit_rigidity_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "indef.cfg"
    out = str(tmp_path / "x.csv")
    text = ("elasticity = explicit\nelasticity_membrane = -1,0,0,1,0,1\n"
            "elasticity_bending = 1,0,0,1,0,1\nN = 16\n")
    cfg.write_text(text)
    for command in ("check-ellipticity", "check-sl", "layer-modes") + REDUCED_COMMANDS:
        assert main([command, "--config", str(cfg), "--out", out]) == 2, command
        assert capsys.readouterr().err == ("configuration error: membrane rigidity "
                                           "must be positive definite\n")
    # given theta and zeta, a reduced command does not read the rigidity
    cfg.write_text(text + "theta = 1\nzeta = 1\n")
    assert main(["solve-reduced", "--config", str(cfg), "--out", out]) == 0


def test_explicit_rigidity_keys_need_the_explicit_rigidity(tmp_path, capsys):
    # elasticity_membrane and elasticity_bending used to be ignored for a
    # built-in rigidity: check-sl exited 0 on an indefinite bending matrix,
    # and layer-modes never saw that a 3-value one is malformed
    cfg = tmp_path / "keys.cfg"
    out = tmp_path / "x.csv"
    for command, text in (
            ("check-sl", "elasticity = identity\nelasticity_bending = -1,0,0,1,0,1\n"),
            ("layer-modes", "elasticity = isotropic\nelasticity_bending = 1,0,1\n"),
            ("check-ellipticity", "elasticity_membrane = 2,0.5,0,2,0,1\n"),
            ("solve-reduced", "elasticity = frobenius\ntheta = 1\nzeta = 1\n"
             "elasticity_membrane = 2,0.5,0,2,0,1\n")):
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, text
        assert capsys.readouterr().err == (
            "configuration error: elasticity_membrane and elasticity_bending "
            "apply only to elasticity = explicit\n")
        assert not out.exists()


def test_theta_and_zeta_apply_only_to_the_reduced_commands(tmp_path, capsys):
    # check-ellipticity, check-sl and layer-modes used to ignore both keys:
    # layer-modes given theta = 2 wrote the computed theta = 1.5
    cfg = tmp_path / "coef.cfg"
    out = tmp_path / "x.csv"
    for command in ("check-ellipticity", "check-sl", "layer-modes"):
        for text in ("theta = 2\nzeta = 3\n", "theta = 2\n", "zeta = 3\nN = 16\n"):
            cfg.write_text(text)
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, text
            assert capsys.readouterr().err == ("configuration error: theta and zeta "
                                               "apply only to the reduced commands\n")
            assert not out.exists()
        cfg.write_text("theta = none\nzeta = none\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        out.unlink()


def test_sphere_cap_radius_needs_a_finite_nonzero_square(tmp_path, capsys):
    # radius ** 2 raised OverflowError (exit 1, a traceback) from 1e155 on,
    # and underflowed to 0.0 at 1e-170, which the metric check reported as
    # a numerical failure (exit 3)
    cfg = tmp_path / "cap.cfg"
    out = tmp_path / "x.csv"
    for radius in ("1e155", "-1e200", "-1e-170", "1e-200", "1.6e-162", "2.3e-162"):
        cfg.write_text(f"chart = sphere-cap\nchart_params = {radius}\n")
        assert main(["check-ellipticity", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("configuration error: sphere-cap radius "
                                           "must have a finite, nonzero square\n")
        assert not out.exists()
        with pytest.raises(geometry.InvariantError, match="finite, nonzero square"):
            geometry.sphere_cap_chart(radius=float(radius))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geometry.InvariantError):
            geometry.sphere_cap_chart(radius=np.float64(1e200))
    # radii near both ends of the double range stay valid
    for radius in ("1e154", "-1e-155"):
        config = parse_config(f"chart = sphere-cap\nchart_params = {radius}\n")
        config.command = "check-ellipticity"
        config.validate()


def test_cli_determinism(tmp_path, cfg_path):
    for command in ("check-sl", "sweep-epsilon", "layer-modes"):
        out1 = str(tmp_path / f"{command}-1.csv")
        out2 = str(tmp_path / f"{command}-2.csv")
        assert main([command, "--config", cfg_path, "--out", out1]) == 0
        assert main([command, "--config", cfg_path, "--out", out2]) == 0
        assert read(out1) == read(out2)
        assert read(out1).startswith(b"# schema=1\n")
        assert b"\r" not in read(out1)


def test_cli_check_sl_traction_row(tmp_path, cfg_path):
    out = str(tmp_path / "sl.csv")
    assert main(["check-sl", "--config", cfg_path, "--out", out]) == 0
    rows = read(out).decode().strip().splitlines()
    traction = [r for r in rows if r.startswith("membrane+membrane_traction")]
    assert len(traction) == 2
    assert all(r.endswith("false") for r in traction)
    satisfied = [r for r in rows if r.startswith("membrane+membrane_dirichlet")]
    assert all(r.endswith("true") for r in satisfied)


def test_cli_check_sl_row_fields(tmp_path, cfg_path):
    out = str(tmp_path / "sl.csv")
    assert main(["check-sl", "--config", cfg_path, "--out", out]) == 0
    header, *rows = read(out).decode().strip().splitlines()[1:]
    fields = next(r for r in rows if r.startswith("rigidity+u1,")).split(",")
    assert fields[0] == "rigidity+u1"        # point_id
    assert fields[2] == "1"                  # m
    assert fields[4] == "true"               # satisfied
    assert all(r.count(",") == header.count(",") for r in rows)


def test_cli_layer_modes_row_fields(tmp_path):
    cfg = tmp_path / "round.cfg"
    cfg.write_text("b_coeffs = 1,0,1\nxi1_list = 2\n")
    out = str(tmp_path / "modes.csv")
    assert main(["layer-modes", "--config", str(cfg), "--out", out]) == 0
    fields = read(out).decode().strip().splitlines()[-1].split(",")
    assert len(fields) == 7
    assert float(fields[1]) == pytest.approx(2.0)   # Re lam_plus
    assert float(fields[3]) == pytest.approx(-2.0)  # Re lam_minus


def test_cli_sweep_window_grows(tmp_path, cfg_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-epsilon", "--config", cfg_path, "--out", out]) == 0
    rows = [r.split(",") for r in read(out).decode().strip().splitlines()[2:]]
    eps = [float(r[0]) for r in rows]
    k_star = [float(r[1]) for r in rows]
    assert eps == sorted(eps, reverse=True)
    assert k_star == sorted(k_star)


def test_cli_exit_codes(tmp_path, cfg_path):
    # unknown command -> usage error
    assert main(["no-such-command", "--config", cfg_path]) == 2
    # missing config file
    assert main(["check-sl", "--config", str(tmp_path / "missing.cfg")]) == 2
    # validation error: empty epsilon list
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon_list =\n")
    assert main(["check-sl", "--config", str(bad)]) == 2
    # numerical failure: no crossover below a tiny cutoff
    hard = tmp_path / "hard.cfg"
    hard.write_text("b_coeffs = 1,0,1\nepsilon_list = 1e-30\nN = 8\n"
                    "theta = 1\nzeta = 1\nk_probe = 5\n")
    assert main(["sweep-epsilon", "--config", str(hard), "--out",
                 str(tmp_path / "x.csv")]) == 3


def test_near_parabolic_membrane_is_refused_by_every_command(tmp_path, capsys):
    # 1 - b12 / sqrt(b11 b22) is 1.1e-7 here, and the membrane ratio
    # min |D| / max |D| lies below DET_RTOL.  check-ellipticity writes
    # membrane false, and check-sl, whose membrane cases need the decaying
    # basis, fails on the same verdict
    cfg = tmp_path / "parabolic.cfg"
    cfg.write_text("b_coeffs = 1.455,1.14750804,0.905\nelasticity = identity\n"
                   "epsilon_list = 1e-2\n")
    out = tmp_path / "x.csv"
    assert main(["check-ellipticity", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read(out).decode().splitlines()
    assert rows[-2].startswith("frozen,membrane,4,") and rows[-2].endswith(",false")
    assert main(["check-sl", "--config", str(cfg), "--out", str(out)]) == 3
    assert "membrane: not elliptic" in capsys.readouterr().err


def test_sweep_underflowing_eps_reports_only_the_failure(tmp_path, capsys):
    # eps^2 q underflows to 0 at eps = 1e-200, yet the closed-form window
    # resolves (k* = 454.398); s(k) underflows to 0 for |k| >= 373 at d = 1,
    # so the A-norm table fails, and stderr carries that failure alone,
    # without a numpy warning
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("d = 1\nN = 4096\nepsilon_list = 1e-200,1e-3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep-epsilon", "--config", str(cfg), "--out",
                     str(tmp_path / "x.csv")]) == 3
    assert not caught
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("numerical failure:") for line in err)


@pytest.mark.parametrize("eps_list, message", [
    ("1e-200", "no crossover below N=400; increase the cutoff"),
    ("1e-3,1e-200", "smoothing symbol vanishes on 56 modes with |k| in [373, 400]: "
                    "[-400, -399, -398, -397, ..., 397, 398, 399, 400]; "
                    "use the non-inhibited rescaling"),
])
def test_sweep_reports_the_window_before_the_kernel_check(tmp_path, capsys, eps_list,
                                                          message):
    # at d = 1 the smoothing symbol underflows to 0 from |k| = 373 on, and at
    # eps = 1e-200 the crossover lies beyond N = 400: the window at the first
    # eps is searched before the A-norm table checks the symbol, and the
    # windows at the other eps after it
    cfg = tmp_path / "order.cfg"
    cfg.write_text(f"N = 400\nd = 1\ntheta = 1\nzeta = 1\nepsilon_list = {eps_list}\n")
    assert main(["sweep-epsilon", "--config", str(cfg), "--out",
                 str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


@pytest.mark.parametrize("n, d", [(64, 1.0), (1024, 0.15), (4096, 0.05)])
def test_sweep_rows_are_the_public_functions_at_each_eps(tmp_path, n, d):
    # the command builds one operator per eps and shares it between the
    # A-norm table, the window, the solve and the probes; each row is what
    # the public functions give for that eps alone
    eps_list = (1e-2, 1e-3, 1e-5, 1e-9)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"N = {n}\nd = {d}\ntheta = 0.7\nzeta = 1.3\nk_probe = 10\n"
                   f"epsilon_list = {','.join(map(repr, eps_list))}\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep-epsilon", "--config", str(cfg), "--out", str(out)]) == 0
    rows = []
    for eps in eps_list:
        op = reduced.build_default_operator(0.7, 1.3, d, n, eps)
        v = reduced.solve(op, reduced.flat_load(n))
        [va] = reduced.va_norm_convergence(op, [eps], reduced.smooth_load(n, decay=2.0))
        rows.append(",".join([
            format(eps, ".17g"), format(reduced.frequency_window(op), ".17g"),
            str(reduced.solution_argmax(v)),
            *(format(x, ".17g") for x in (
                np.abs(v.coeffs).max(), va.va_distance, reduced.coercivity_constant(op),
                reduced.sensitivity_probe(op, 10)))]))
    assert read(out).decode().splitlines()[2:] == rows


def test_cli_solve_and_remaining_commands(tmp_path, cfg_path):
    for command in ("solve-reduced", "sensitivity", "rescale-demo",
                    "check-ellipticity"):
        out = str(tmp_path / f"{command}.csv")
        assert main([command, "--config", cfg_path, "--out", out]) == 0
        body = read(out).decode().strip().splitlines()
        assert body[0] == "# schema=1"
        assert len(body) > 2


def test_cli_starts_without_scipy(tmp_path, cfg_path):
    # scipy is a test dependency only: no command imports it
    out = str(tmp_path / "out.csv")
    code = ("import sys\n"
            "from shellsym.cli import COMMANDS, main\n"
            "assert len(COMMANDS) == 7\n"
            "for command in COMMANDS:\n"
            f"    assert main([command, '--config', {cfg_path!r}, '--out', {out!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_package_source_imports_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src" / "shellsym"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 7
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), path.name


def test_cli_default_theta_zeta_from_layer(tmp_path):
    # without overrides the operator coefficients come from the layer data
    cfg = tmp_path / "layer.cfg"
    cfg.write_text("b_coeffs = 1,0,1\nelasticity = identity\n"
                   "epsilon_list = 1e-3\nN = 32\nxi1_list = 1\n")
    out = str(tmp_path / "modes.csv")
    assert main(["layer-modes", "--config", str(cfg), "--out", out]) == 0
    row = read(out).decode().strip().splitlines()[-1].split(",")
    assert float(row[-2]) == pytest.approx(1.5)   # theta
    assert float(row[-1]) == pytest.approx(3.0)   # zeta


def test_cli_operator_computes_only_the_unset_coefficient(tmp_path, monkeypatch):
    # theta and zeta come from the two layer coefficient functions, each one
    # only when the configuration leaves it unset
    b, elastic = (1.3, 0.4, 0.8), ElasticityTensor.isotropic()
    theta = layers.layer_energy_coefficient(b, elastic.membrane)
    zeta = layers.bending_symbol_coefficient(b, elastic.bending)
    seen, calls = [], Counter()
    build = reduced.build_default_operator

    def build_seen(theta, zeta, *args):
        seen.append((theta, zeta))
        return build(theta, zeta, *args)

    def counted(fn):
        def coefficient(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return coefficient

    monkeypatch.setattr(reduced, "build_default_operator", build_seen)
    for name in ("layer_energy_coefficient", "bending_symbol_coefficient"):
        monkeypatch.setattr(layers, name, counted(getattr(layers, name)))
    cfg = tmp_path / "op.cfg"
    out = str(tmp_path / "v.csv")
    for extra, want, computed in (
            ("", (theta, zeta), {"layer_energy_coefficient": 1,
                                 "bending_symbol_coefficient": 1}),
            ("theta = 0.5\n", (0.5, zeta), {"bending_symbol_coefficient": 1}),
            ("zeta = 2\n", (theta, 2.0), {"layer_energy_coefficient": 1})):
        cfg.write_text("b_coeffs = 1.3,0.4,0.8\nelasticity = isotropic\n"
                       "epsilon_list = 1e-3\nN = 32\n" + extra)
        assert main(["solve-reduced", "--config", str(cfg), "--out", out]) == 0
        assert (seen, calls) == ([want], computed)
        seen.clear()
        calls.clear()


UMBILIC_CFG = "b_coeffs = 1,0,1\nelasticity = {}\nepsilon_list = 1e-2,1e-3\nN = 64\n"


@pytest.mark.parametrize("elasticity", ["frobenius", "isotropic"])
def test_umbilic_fails_only_where_theta_is_needed(tmp_path, capsys, elasticity):
    # at the umbilic the double exponent is semisimple and theta has no
    # Jordan profile; a command given theta needs only zeta, which exists
    cfg = tmp_path / "umbilic.cfg"
    out = str(tmp_path / "x.csv")
    cfg.write_text(UMBILIC_CFG.format(elasticity))
    for command in ("layer-modes", "sweep-epsilon"):
        assert main([command, "--config", str(cfg), "--out", out]) == 3
        assert "double exponent is semisimple" in capsys.readouterr().err
    cfg.write_text(UMBILIC_CFG.format(elasticity) + "theta = 1\n")
    assert main(["sweep-epsilon", "--config", str(cfg), "--out", out]) == 0


def test_layer_modes_rigidity_in_pascal(tmp_path):
    # a steel-like membrane rigidity (1e11 Pa) is no umbilic: theta is the
    # unit-rigidity value scaled by 1e11
    cfg = tmp_path / "steel.cfg"
    cfg.write_text("b_coeffs = 1.3,0.4,0.8\nelasticity = explicit\n"
                   "elasticity_membrane = 1e11,0,0,1e11,0,5e10\n"
                   "elasticity_bending = 1,0,0,1,0,0.5\nxi1_list = 1,-2\n")
    out = str(tmp_path / "modes.csv")
    assert main(["layer-modes", "--config", str(cfg), "--out", out]) == 0
    theta = 1e11 * layers.layer_energy_coefficient((1.3, 0.4, 0.8),
                                                   np.diag([1.0, 1.0, 0.5]))
    for row in read(out).decode().strip().splitlines()[2:]:
        assert float(row.split(",")[-2]) == pytest.approx(theta, rel=1e-12)


def test_sweep_samples_symbols_once(tmp_path, monkeypatch):
    # s, q and the order-3 weights are eps-independent: one sweep samples
    # them on the 2N+1 modes once, whatever the number of eps
    n = 1024
    calls = {"s": 0, "q": 0}

    def counted(name, fn):
        def symbol(op, k):
            calls[name] += np.size(k) == 2 * n + 1
            return fn(op, k)
        return symbol

    for name in ("s", "q"):
        method = f"{name}_symbol"
        monkeypatch.setattr(reduced.ReducedOperator, method,
                            counted(name, getattr(reduced.ReducedOperator, method)))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_1024_CFG)
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-epsilon", "--config", str(cfg), "--out", out]) == 0
    assert len(read(out).splitlines()) == 2 + 12
    assert calls == {"s": 1, "q": 1}


def test_check_sl_builds_one_basis_per_system_and_sign(tmp_path, monkeypatch):
    # the six check-sl cases share three systems; each system's decaying
    # basis and its determinant scan are built once per sign of xi1.  The
    # scan sees the total order, not the system: 2 rigidity, 4 membrane,
    # 8 koiter
    bases, scans = Counter(), Counter()
    build, scan = symbols.decaying_solution_basis, symbols._determinant_scans

    def build_counted(system, point, xi1):
        bases[system.name, float(np.sign(xi1))] += 1
        return build(system, point, xi1)

    def scan_counted(stacks, sign, *args):
        scans.update((order, sign) for _, order in stacks)
        return scan(stacks, sign, *args)

    monkeypatch.setattr(symbols, "decaying_solution_basis", build_counted)
    monkeypatch.setattr(symbols, "_determinant_scans", scan_counted)
    cfg = tmp_path / "sl.cfg"
    cfg.write_text(CRITERION_12_CFG.replace("xi1_list = 1,3", "xi1_list = 1,-3,3,-1"))
    out = str(tmp_path / "sl.csv")
    assert main(["check-sl", "--config", str(cfg), "--out", out]) == 0
    assert len(read(out).splitlines()) == 2 + 6 * 4
    assert bases == {(name, s): 1 for name in ("rigidity", "membrane", "koiter")
                     for s in (1.0, -1.0)}
    assert scans == {(order, s): 1 for order in (2, 4, 8) for s in (1.0, -1.0)}


CRITERION_12_CFG = ("b_coeffs = 1,0,1\nelasticity = identity\n"
                    "epsilon_list = 1e-2,1e-3,1e-4\nN = 64\nxi1_list = 1,3\n")
SPHERE_CAP_CFG = ("chart = sphere-cap\nchart_params = 1.7\nelasticity = isotropic\n"
                  "epsilon_list = 1e-2\n")
SWEEP_EPS = "1e-2,1e-3,1e-5,1e-7,1e-9,1e-12,1e-15,1e-19,1e-24,1e-29,1e-34,1e-40"
FLAT_4096_CFG = "N = 4096\nd = 0.05\nepsilon_list = 1e-50\nf_profile = flat\n"
SWEEP_1024_CFG = f"N = 1024\nd = 0.15\nepsilon_list = {SWEEP_EPS}\n"
MIXED_SIGN_CFG = ("b_coeffs = 1.3,0.4,0.8\nelasticity = {}\nepsilon_list = 1e-2\n"
                  "xi1_list = -2,1,3,-0.5\n")
# hyperbolic curvature: a non-elliptic rigidity row and three "-,0,false"
# rows of systems that need a surface-elliptic b.  The real characteristic
# directions of 1,2,1 fall on scan angles, those of 1,1.7,1 between them
HYPERBOLIC_CFG = "b_coeffs = {}\nelasticity = identity\nepsilon_list = 1e-2\n"
# a one-mode load: the f and v columns are zero but for k = -7
DELTA_512_CFG = "N = 512\nepsilon_list = 1e-3\nf_profile = delta:-7\n"
# amplification_eps0 and amplification_eps agree at low k
SENSITIVITY_1024_CFG = "N = 1024\nd = 0.15\nepsilon_list = 1e-20\n"
# 16 xi1 of both signs: abs_det repeats across the xi1 of one sign
SL_16_CFG = ("b_coeffs = 1.3,0.4,0.8\nelasticity = frobenius\nepsilon_list = 1e-2\n"
             "xi1_list = -8,-4,-2,-1,-0.5,-0.25,-3,-6,0.25,0.5,1,2,4,8,3,6\n")


@pytest.mark.parametrize("config,command,digest", [
    (CRITERION_12_CFG, "check-sl",
     "35ac07bf4d28e58a490968a8fd5490ced4a1870c4e3710ef337066afccdd5e31"),
    (CRITERION_12_CFG, "layer-modes",
     "9546434e105f532f3d522c83180399427698b809f92c93f224fb916e8d51e8d3"),
    (CRITERION_12_CFG, "check-ellipticity",
     "8fcbcca029d566a3e23310edb908d99456417e2bedc33fcaa510a1d0b2272517"),
    (SPHERE_CAP_CFG, "check-ellipticity",
     "a9c2c511dd7ed9f662f4d857182de3cbfb2f380c97ac4f9f35e0e36c633b04cc"),
    (FLAT_4096_CFG, "solve-reduced",
     "ebb940277a3bb6ceb7d7600b4a4ccb34b73623952932ab38821020ad11a54d2f"),
    (FLAT_4096_CFG, "sensitivity",
     "838240f4bddbbbba0bcd674673eb5421edda10acf86e0dfde38e3e72be9d35dd"),
    (SWEEP_1024_CFG, "sweep-epsilon",
     "cce9806693a30fdb12afc113f9709b06e3abce1dc0a8c03b3d9c3d97ba36c748"),
    (CRITERION_12_CFG + "kernel_modes = 3,7\n", "rescale-demo",
     "0c6a64f3f81eeacc865f146e969fe9344657e097f9d711c72f14973a4a0acfbf"),
    (CRITERION_12_CFG, "solve-reduced",
     "59accda7822bd1ae347b242b59f3741c66265b5059b3ccb8aef3dc54c92abf2d"),
    (CRITERION_12_CFG, "sweep-epsilon",
     "9c840246cb8d6c972b2beeb59fa673ccad1efa1b1de29a518e872723cb13dbbb"),
    (MIXED_SIGN_CFG.format("frobenius"), "check-sl",
     "3fc755d587665383be1d709c9b218bb0ed51384692838989a8d116579a7d0c19"),
    (MIXED_SIGN_CFG.format("isotropic"), "check-sl",
     "0cbc829593a2f6994471fc5d9db8cb50acbe74c12adecdbb0c11db61c7931b44"),
    (MIXED_SIGN_CFG.format("frobenius"), "layer-modes",
     "8a9fdbed2f3833db4d863418ff2ec8903c14d565def0405a0c9e0eca5ad13a61"),
    (MIXED_SIGN_CFG.format("isotropic"), "layer-modes",
     "1814d5a9693244abafa2b9698b3891dcfc44e00aacfb62461a9a2d43d51ff51b"),
    (HYPERBOLIC_CFG.format("1,2,1"), "check-ellipticity",
     "76ca62a4044b1657cf91828ce398b1bb795cb16d9849e6bc050fa036be20903f"),
    (HYPERBOLIC_CFG.format("1,1.7,1"), "check-ellipticity",
     "5c00fbb9a025f743114117c4c02150920b809267e27d65dd73b9365817fa2f74"),
    (DELTA_512_CFG, "solve-reduced",
     "f719db18ca3f79726f97907db47743cf4c9ec549987c10015ebba7fba16d785e"),
    (SENSITIVITY_1024_CFG, "sensitivity",
     "c72dbb18f11f8e08f707761991d5d33030c0b04462211d5bf633658d08cd9b22"),
    (SL_16_CFG, "check-sl",
     "f44f78145dac43b050c4f270861d5855bc4d7c8119a0339f2cd91594322c53ca"),
])
def test_cli_golden_bytes(tmp_path, config, command, digest):
    # sha256 of the CSV bytes as written before the symbol layer was batched
    # (check-sl: since the decaying basis became the kernel of a product of
    # the companion pencil's factors, where abs_det is |det| of unit boundary
    # rows on an orthonormal decaying basis; the reduced commands: before
    # their rows came from one %-template; the mixed-sign check-sl and
    # layer-modes cases: before check-sl shared one decaying basis per
    # system and sign; the delta, sensitivity-1024 and
    # 16-xi1 cases: before each distinct double was formatted once; the
    # cases whose bytes depend on theta: since theta came from the closed-form
    # Jordan chain and layer-modes computed theta and zeta once per command;
    # the sweep-epsilon cases: since k_star came from bisecting the
    # closed-form log gap to adjacent doubles; the check-sl cases and the
    # criterion-12 check-ellipticity case: since the symbols came from
    # closed-form coefficient stacks, which moved abs_det by at most 1.2e-14
    # relative; the check-ellipticity cases: since min_abs_det came from the
    # determinant polynomial on a fixed sample with no direct determinant,
    # which moved it by at most 0.44 eps_mach H with every verdict unchanged);
    # a refactor of the symbol layer or of the CSV writer must reproduce them
    # exactly
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config)
    out = tmp_path / "golden.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == digest


def _bits(pattern):
    return float(np.uint64(pattern).view(np.float64))


# zeros, infinities, NaNs of both signs and several payloads (quiet and
# signalling), subnormals and the largest magnitudes
_SPECIAL_DOUBLES = (0.0, -0.0, math.inf, -math.inf, math.nan,
                    _bits(0x7FF8000000000001), _bits(0xFFF8000000000000),
                    _bits(0x7FF0000000000001), _bits(0xFFF00000DEADBEEF),
                    5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                    1e308, -1e308, 1.7976931348623157e308)


@st.composite
def _float_columns(draw):
    n = draw(st.integers(0, 24))
    # a small pool per case, so that values repeat within and across columns
    pool = draw(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_DOUBLES)),
                         min_size=1, max_size=8))
    value = st.one_of(st.sampled_from(pool), st.sampled_from(_SPECIAL_DOUBLES),
                      st.floats(width=64))
    return [draw(st.lists(value, min_size=n, max_size=n))
            for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(columns=_float_columns())
def test_g17_matches_per_value_formatting(columns):
    text = _g17(*columns)
    assert text == [["%.17g" % x for x in col] for col in columns]
    # numpy columns give the same text as lists
    assert _g17(*map(np.array, columns)) == text


def _kernel_columns():
    """Columns of at least 2 000 doubles each, so _g17 takes its kernel."""
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{p}") for p in range(-320, 309)])
    with np.errstate(over="ignore"):     # 5e308 is inf
        fives = 5 * powers
        up1, down1 = np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)
        up2, down2 = np.nextafter(up1, np.inf), np.nextafter(down1, -np.inf)
    near = np.concatenate([powers, up1, down1, up2, down2, fives])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    ints = rng.integers(0, 2**53, size=2000, endpoint=True).astype(float)
    halves = rng.integers(0, 2**52, size=2000).astype(float) + 0.5
    # quarters above 1e15 are exact ties of the 17th digit, last
    quarters = (rng.integers(2**49, 2**51, size=2000).astype(float)
                + rng.choice([0.25, 0.75], size=2000))
    # the special doubles join every column: alone they are too few
    return [np.concatenate([col, _SPECIAL_DOUBLES])
            for col in (bits, np.concatenate([near, -near]),
                        np.concatenate([twos, -twos]), np.concatenate([ints, -halves]),
                        quarters)]


def test_g17_kernel_matches_per_value_formatting():
    # tables from _KERNEL_MIN distinct doubles on take the kernel: random bit
    # patterns, powers of ten and their neighbours, every power of two,
    # integers to 2**53, half- and quarter-integers and the special doubles
    # give per column one (distinct, width) array of ASCII cells padded with
    # NUL, as wide as the column's longest text, and each row's index into it
    columns = _kernel_columns()
    assert min(col.size for col in columns) >= 2000
    for col in columns:
        assert np.unique(col.view(np.uint64)).size >= cli._KERNEL_MIN
        [(distinct, index)] = _g17(col)
        assert distinct.dtype == np.uint8 and distinct.ndim == 2
        assert index.shape == col.shape
        cells = distinct[index]
        text = [cell.tobytes().rstrip(b"\0") for cell in cells]
        assert not any(b"\0" in t for t in text)
        assert cells.shape[1] == max(map(len, text))
        assert [t.decode() for t in text] == ["%.17g" % x for x in col.tolist()]
    # the kernel proves the digits of almost every double in its range
    # itself, so this cannot pass by handing everything to format(); true
    # ties go to format() by design
    values = np.concatenate(columns[:-1])
    inside = values[(np.abs(values) >= 1e-250) & (np.abs(values) <= 1e250)]
    text, length, handed = _g17kernel.kernel(inside)
    sure = [(cell.tobytes().rstrip(b"\0"), n) for cell, n, h
            in zip(text, length.tolist(), handed.tolist()) if not h]
    assert all(len(t) == n and b"\0" not in t for t, n in sure)
    assert inside.size > 4000
    assert np.count_nonzero(handed) <= 0.01 * inside.size


def _layout_tables():
    """Doubles of every sign, digit count and exponent width the kernel lays
    out, with the edges of scientific notation, and a mostly fixed table."""
    rng = np.random.default_rng(20261021)
    exps = np.array([-280, -100, -99, -20, -6, -5, -4, -1, 0, 1, 15, 16, 17, 18, 99, 100, 280])
    random = (rng.uniform(1.0, 10.0, size=(exps.size, 300)) * 10.0 ** exps[:, None]).ravel()
    # 1e-5 and 1e17 are the first values in scientific notation on each side
    edges = np.array([1e-5, 1e17, 1e16, 1e-4, 9.9999999999999995e-06, 99999999999999984.0,
                      1.0000000000000001e-05, 1.0000000000000002e17, 123456789012345678.0])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    fixed = np.concatenate([np.arange(-3000, 3000) / 7, np.arange(600) * 0.25,
                            random[:300]])
    for name, table in (("spread", random), ("edges", edges), ("mostly-fixed", fixed)):
        yield name, np.concatenate([table, -table])


def test_g17_kernel_plain_rows_match_the_layout_gather(monkeypatch):
    # unsigned scientific text with all 17 digits lies in the kernel's source
    # row as one block, and every other row is gathered through its layout;
    # with no row taken as plain, the gather writes every row, bit for bit
    # the same text, lengths and hand-backs
    shapes = set()
    for _, values in _layout_tables():
        with monkeypatch.context() as patch:
            patch.setattr(_g17kernel, "_PLAIN", -1)
            gathered = _g17kernel.kernel(values)
        text, length, handed = _g17kernel.kernel(values)
        assert np.array_equal(text, gathered[0])
        assert np.array_equal(length, gathered[1])
        assert np.array_equal(handed, gathered[2])
        texts = [format(x, ".17g") for x in values.tolist()]
        for row, n, h, want in zip(text, length.tolist(), handed.tolist(), texts):
            if not h:
                assert row[:n].tobytes().decode() == want and not row[n:].any()
        shapes |= {(t[0] == "-", "e" in t, len(t.split("e")[0].strip("-").replace(".", "")),
                    len(t.split("e")[1]) - 1 if "e" in t else 0) for t in texts}
    # every sign, in scientific notation with 16 or 17 digits and 2 or 3
    # exponent digits, and in fixed notation with 16 or 17 digits
    for sign in (False, True):
        assert {(sign, True, digits, width) for digits in (16, 17) for width in (2, 3)} \
            <= shapes
        assert {(sign, False, 16, 0), (sign, False, 17, 0)} <= shapes


@pytest.mark.parametrize("col", [
    np.arange(-4096, 4097),
    np.array([-2**63, 2**63 - 1, 0, -1, 1, 9, -10, 9999, -9999, 10**4, 10**4 + 1, -10**8,
              10**8 - 1, 10**12, 10**16, -10**18, 10**18 + 7]),
    np.random.default_rng(20261021).integers(-2**63, 2**63 - 1, size=2000, endpoint=True),
    # widths from 1 to 19 digits in one column
    np.concatenate([np.array([0, 5, -7]), (-3) ** np.arange(1, 40)]),
    np.array([2**64 - 1, 0, 10**19, 10**16 + 1], dtype=np.uint64),
    np.zeros(3, dtype=np.int64),
], ids=["k-4096", "int64-edges", "int64-random", "mixed-widths", "uint64", "zeros"])
def test_int_cells_match_str(col):
    # the byte grid writes ints four digits at a time: the sign in the first
    # byte, NUL up to the right-aligned digits, the str text once dropped
    cells = cli._int_cells(col)
    rows = [cell.tobytes() for cell in cells]
    assert all(re.fullmatch(rb"[-\0]\0*(0|[1-9][0-9]*)", row) for row in rows)
    assert [row.replace(b"\0", b"").decode() for row in rows] == list(map(str, col.tolist()))


# a rigidity-roots table of 128 rows and an SL table of 6 x 510 rows: each
# holds just over _KERNEL_MIN distinct doubles (514 and 519)
WIDE_XI1 = ",".join(f"{(-1) ** j * (0.05 + 0.173 * j):.6g}" for j in range(510))
WIDE_CFG = "b_coeffs = 1.3,0.4,0.8\nelasticity = isotropic\nepsilon_list = 1e-2\n"


@pytest.mark.parametrize("command, n_xi1, digest", [
    ("layer-modes", 128, "1b9cbee612fa20312a8319e040948cc3e703ca2f87411794e40b57b3feca065f"),
    ("check-sl", 510, "5833b6fca471147a08f01c8ea24547947aa078e4eccd4ecc19d586334412c79d"),
])
def test_wide_xi1_tables_take_the_byte_grid(tmp_path, monkeypatch, command, n_xi1, digest):
    # these tables cross _KERNEL_MIN, so the byte grid also writes their
    # text and int columns; sha256 of the bytes that str cells and row joins
    # wrote for them
    calls = []
    kernel = _g17kernel.kernel
    monkeypatch.setattr(_g17kernel, "kernel", lambda x: calls.append(x.size) or kernel(x))
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(WIDE_CFG + "xi1_list = " + ",".join(WIDE_XI1.split(",")[:n_xi1]) + "\n")
    out = tmp_path / "wide.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert len(calls) == 1 and calls[0] >= cli._KERNEL_MIN
    assert hashlib.sha256(read(out)).hexdigest() == digest


_TEXT_POOL = st.lists(st.text(st.sampled_from("abz09_-+.()=:/ éθ"), max_size=12),
                      min_size=1, max_size=6)
# near-ties of the 17th digit, powers of ten and their neighbours
_NEAR_TIES = (0.1 + 0.2, 1e23, 9.999999999999999e22, 5e-324, 1e-5, 9.5367431640625e-07,
              2.0 ** 52 + 0.5, 2.0 ** 50 + 0.25, 123456789012345.67, 0.30000000000000004)


@st.composite
def _typed_tables(draw):
    """Whether the table reaches _KERNEL_MIN distinct doubles, its header and
    its typed columns of 0-700 rows."""
    bulk = draw(st.booleans())
    n = draw(st.integers(cli._KERNEL_MIN if bulk else 0, 700))
    kinds = draw(st.lists(st.sampled_from("fit"), min_size=1, max_size=6))
    if bulk and "f" not in kinds:
        kinds.append("f")
    pool = np.array(draw(st.lists(st.one_of(st.floats(), st.sampled_from(
        _SPECIAL_DOUBLES + _NEAR_TIES)), min_size=1, max_size=8)))
    texts = draw(_TEXT_POOL)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # fresh doubles: random bit patterns, exact ties of the 17th digit
    # above 1e15, and decimal fractions at every scale
    fresh = np.concatenate([
        rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64),
        rng.integers(2**49, 2**51, size=n) + rng.choice([0.25, 0.75], size=n),
        rng.integers(-10**9, 10**9, size=n) / 10.0 ** rng.integers(0, 17, size=n)
        * 10.0 ** rng.integers(-290, 290, size=n)])
    fresh = np.unique(fresh.view(np.uint64)).view(np.float64)
    fresh = fresh[rng.permutation(fresh.size)]
    # below the threshold the fresh doubles and the pool stay under it
    fresh = fresh[:n if bulk else rng.integers(0, cli._KERNEL_MIN - pool.size)]
    first, columns = True, []
    for kind in kinds:
        if kind == "f" and bulk and first:
            # n distinct fresh doubles, so that the table crosses the threshold
            columns.append(fresh.copy())
            first = False
        elif kind == "f":
            # half the columns from the pool alone, where a special double
            # handed to format() may be the longest text
            choices = pool if rng.integers(2) else np.concatenate([pool, fresh])
            columns.append(choices[rng.integers(0, choices.size, size=n)])
        elif kind == "i":
            edges = np.array([0, -1, 1, 9, 10, -10, 2**63 - 1, -2**63, 10**18, -10**18])
            ints = rng.integers(-2**63, 2**63 - 1, size=n, endpoint=True)
            small = rng.integers(-5000, 5000, size=n)
            pick = rng.integers(0, 3, size=n)
            columns.append(np.where(pick == 0, edges[rng.integers(0, edges.size, size=n)],
                                    np.where(pick == 1, small, ints)))
        else:
            columns.append([texts[i] for i in rng.integers(0, len(texts), size=n)])
    return bulk, ",".join(f"c{j}" for j in range(len(columns))), columns


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=_typed_tables())
def test_write_csv_matches_per_cell_formatting(tmp_path_factory, table):
    # the renderer writes every typed table as the rows of format(x, ".17g"),
    # str and the text, below and from _KERNEL_MIN distinct doubles on
    bulk, header, columns = table
    floats = [col for col in columns if isinstance(col, np.ndarray) and col.dtype.kind == "f"]
    distinct = np.unique(np.array(floats).view(np.uint64)).size
    assert (distinct >= cli._KERNEL_MIN) == bulk
    out = tmp_path_factory.mktemp("render") / "table.csv"
    cli.write_csv(str(out), header, columns)
    rows = ["# schema=1", header, *map(",".join, zip(*map(_cell_text, columns)))]
    assert read(out) == ("\n".join(rows) + "\n").encode()


def _traffic_tables():
    """The shapes of the reduced commands' tables, ordered by k, at a cutoff
    below and one above _KERNEL_MIN distinct doubles."""
    nans = [math.nan, _bits(0x7FF8000000000001), _bits(0xFFF8000000000000),
            _bits(0x7FF0000000000001), _bits(0xFFF00000DEADBEEF), math.inf, -math.inf]
    for n in (100, 1500):
        k = np.arange(-n, n + 1)
        # mirrored, as f(k) = f(-k) of a real load and its solution
        spectrum = (1.0 + k ** 2.0) ** -2.0 / (0.3 * np.exp(-0.1 * np.abs(k))
                                               + 1e-6 * np.abs(k) ** 3)
        v_re = np.where(k % 2 == 1, -spectrum, spectrum)
        spike = np.where(k == 7, 2.5, 0.0)
        signed_zeros = np.where(k % 2 == 1, -0.0, 0.0)
        # NaNs of several payloads and infinities inside a monotone run
        special = np.linspace(-3.0, 3.0, k.size)
        special[5::53] = np.resize(nans, special[5::53].size)
        yield f"spectrum-{n}", [k, spectrum, v_re, np.zeros(k.size), np.abs(v_re)]
        yield f"flat-{n}", [k, np.ones(k.size), spectrum, np.zeros(k.size), spectrum]
        yield f"delta-{n}", [k, spike, spike / 3.0, np.zeros(k.size), spectrum]
        # with no positive double, 0.0 and -0.0 are neighbours in the sorted bits
        yield f"signed-zeros-{n}", [k, signed_zeros, -signed_zeros, -spectrum]
        yield f"nan-and-inf-{n}", [k, special, spectrum, special[::-1]]


@pytest.mark.parametrize("shuffled", [False, True], ids=["ordered", "shuffled"])
@pytest.mark.parametrize("columns", [pytest.param(cols, id=name)
                                     for name, cols in _traffic_tables()])
def test_write_csv_writes_traffic_shaped_tables(tmp_path, columns, shuffled):
    # the dedupe sorts the bits with a stable sort, chosen for spectra
    # ordered by k (two monotone runs a column); those tables and the same
    # rows shuffled are written as format(x, ".17g") per cell, by str cells
    # below _KERNEL_MIN distinct doubles and by the byte grid from it on
    if shuffled:
        order = np.random.default_rng(20261020).permutation(len(columns[0]))
        columns = [col[order] for col in columns]
    floats = np.array([col for col in columns if col.dtype.kind == "f"])
    bulk = np.unique(floats.view(np.uint64)).size >= cli._KERNEL_MIN
    assert bulk == (len(columns[0]) > 2 * cli._KERNEL_MIN)
    header = ",".join(f"c{j}" for j in range(len(columns)))
    out = tmp_path / "table.csv"
    cli.write_csv(str(out), header, columns)
    rows = ["# schema=1", header, *map(",".join, zip(*map(_cell_text, columns)))]
    assert read(out) == ("\n".join(rows) + "\n").encode()


def test_g17_tables_are_built_on_first_large_table():
    # a fresh interpreter does not import the kernel module on import or for
    # a table below _KERNEL_MIN (the small first job of a run); the first
    # large table imports it and builds its tables once, and they cannot be
    # written
    code = ("import sys\n"
            "import numpy as np\n"
            "import shellsym.cli as cli\n"
            "assert 'shellsym._g17kernel' not in sys.modules\n"
            "cli._g17(np.arange(cli._KERNEL_MIN - 1.0))\n"
            "assert 'shellsym._g17kernel' not in sys.modules\n"
            "cli._g17(np.arange(cli._KERNEL_MIN) / 7, np.arange(cli._KERNEL_MIN) * 1e30)\n"
            "from shellsym import _g17kernel\n"
            "assert _g17kernel.tables.cache_info().currsize == 1\n"
            "for table in _g17kernel.tables():\n"
            "    try:\n"
            "        table[...] = 0\n"
            "    except ValueError as exc:\n"
            "        assert 'read-only' in str(exc)\n"
            "    else:\n"
            "        raise AssertionError('writable table')\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_main_maps_every_numerical_error_to_exit_3(tmp_path, monkeypatch, capsys,
                                                   cfg_path):
    # the NumericalError subclasses the layer modules define are exactly these seven
    defined = {obj for module in (symbols, layers, geometry, reduced)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, NumericalError)
               and obj.__module__ == module.__name__}
    assert defined == {
        symbols.EllipticityError, layers.StructureError,
        geometry.SurfaceEllipticityError, geometry.InvariantError,
        reduced.KernelModeError, reduced.WindowResolutionError,
        reduced.SymbolRangeError}
    out = tmp_path / "x.csv"
    for cls in defined:
        exc = cls([3, -3]) if cls is reduced.KernelModeError else cls("no answer")

        def fail(cfg, exc=exc):
            raise exc
        monkeypatch.setitem(cli._DISPATCH, "solve-reduced", fail)
        assert main(["solve-reduced", "--config", cfg_path, "--out", str(out)]) == 3, cls
        assert capsys.readouterr().err == f"numerical failure: {exc}\n"
        assert not out.exists()
    # any other ValueError is a fault of the program, not a numerical failure
    monkeypatch.setitem(cli._DISPATCH, "solve-reduced",
                        lambda cfg: int("not a number"))
    with pytest.raises(ValueError, match="invalid literal"):
        main(["solve-reduced", "--config", cfg_path, "--out", str(out)])


def test_check_sl_counts_the_finite_roots_at_a_large_curvature(tmp_path):
    # eps * max|b| = 318: an infinite root of the Koiter pencil's Jordan
    # blocks computes to |mu| = 3.5e-4, which a fixed |mu| threshold counted
    # as a fifth root below, while check-ellipticity reads Koiter elliptic
    b = (1588.57, -936.54, 1646.24)
    cfg = tmp_path / "large_b.cfg"
    cfg.write_text("b_coeffs = 1588.57,-936.54,1646.24\nelasticity = isotropic\n"
                   "epsilon_list = 0.193\nxi1_list = 1\n")
    for command in ("check-ellipticity", "check-sl"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / f"{command}.csv")]) == 0
    point = geometry.frozen_point(*b)
    system = symbols.builtin_system("koiter", point, ElasticityTensor.isotropic(), 0.193)
    for xi1 in (1.0, -1.0):
        roots = symbols.decaying_solution_basis(system, point, xi1).roots
        assert roots.size == 8
        assert (roots[:4].imag > 0).all() and (roots[4:].imag < 0).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, cfg_text, message", [
    # theta and zeta overflow to nan; layer-modes computes theta first
    ("layer-modes", "b_coeffs = 1e200,0,1e150\n", "layer energy coefficient must be positive"),
    # theta overflows to inf
    ("solve-reduced", "b_coeffs = 1e200,0.5,1e100\nN = 16\nzeta = 2\n",
     "layer energy coefficient must be finite"),
    # zeta overflows to nan
    ("solve-reduced", "b_coeffs = 1e155,0,1e155\nN = 16\ntheta = 2\n",
     "bending symbol coefficient must be positive"),
    # the norm of the adjoint kernel vector overflows, so the Jordan pairing
    # is exactly 0
    *((command, "b_coeffs = 1e+308,1e-308,1e-150\nN = 8\n",
       "Jordan chain leaves the double range (b=(1e+308, 1e-308, 1e-150), xi1=1.0)")
      for command in ("sensitivity", "layer-modes")),
    # mu ** 2 overflows as a complex power, which raises
    ("rescale-demo", "b_coeffs = 5e-324,1e-308,2.0\nN = 257\nd = 2.0\ntheta = 1.0\n",
     "bending symbol coefficient must be finite"),
])
def test_non_finite_layer_coefficients_are_numerical_failures(tmp_path, capsys, command,
                                                              cfg_text, message):
    # the layer formulas overflow to nan or inf, or leave the double range,
    # here: the command reports one numerical failure and writes no rows
    # (the numpy warnings are ignored)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [f"numerical failure: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve-reduced", "sweep-epsilon", "sensitivity",
                                     "rescale-demo"])
def test_huge_theta_is_a_numerical_failure(tmp_path, capsys, command):
    # theta (1 + k^2)^(1/2) overflows for |k| >= 2, and exp(-2 d |k|)
    # underflows to 0 from |k| = 373 on: s is inf there, or nan
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("theta = 1e308\nzeta = 1\nN = 1024\nd = 1\nepsilon_list = 0.01\n")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert not caught
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: smoothing symbol is not finite on 2046 modes with |k| in "
        "[2, 1024]: theta = 1e+308 is too large"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve-reduced", "sweep-epsilon", "sensitivity",
                                     "rescale-demo"])
def test_huge_zeta_is_a_numerical_failure(tmp_path, capsys, command):
    # zeta |k|^3 overflows for |k| >= 2: q passes the range rule of s
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("theta = 1\nzeta = 1e308\nN = 1024\nd = 1\nepsilon_list = 0.01\n")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert not caught
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: bending symbol is not finite on 2046 modes with |k| in "
        "[2, 1024]: zeta = 1e+308 is too large"]
    assert not out.exists()


def test_rescale_below_the_normal_divisor_is_a_numerical_failure(tmp_path, capsys):
    # on the kernel mode |k| = 3 the divisor is eps^2 q = 27 eps^2, subnormal
    # from eps = 1e-155 on, where the complex division overflowed to inf
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("N = 64\nd = 0.5\ntheta = 1\nzeta = 1\nkernel_modes = 3\n"
                   "epsilon_list = 1e-2,1e-150,1e-155,1e-160,1e-163\n")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["rescale-demo", "--config", str(cfg), "--out", str(out)]) == 3
    assert not caught
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: s + eps^2 q is subnormal at eps = 1e-155: eps is too small"]
    assert not out.exists()
    # the rows above the floor keep their bytes
    cfg.write_text("N = 64\nd = 0.5\ntheta = 1\nzeta = 1\nkernel_modes = 3\n"
                   "epsilon_list = 1e-2,1e-150\n")
    assert main(["rescale-demo", "--config", str(cfg), "--out", str(out)]) == 0
    assert read(out).decode().splitlines()[2:] == [
        "0.01,5.4210108624275222e-20,9.9999900000100015e-05",
        "1e-150,5.4210108624275222e-20,5.8033923368661785e-282"]


@pytest.mark.parametrize("b_coeffs", ["1e-160,0,1e-160", "1e-161,2e-162,3e-161"])
def test_subnormal_membrane_determinant_is_a_numerical_failure(tmp_path, capsys,
                                                               b_coeffs):
    # the membrane determinant is subnormal here (min |D| about 1e-320): the
    # relative verdict reads elliptic, but the companion pencil's solve
    # overflows.  check-sl reports that as one numerical failure, not as a
    # traceback from the eigenvalue solver
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"b_coeffs = {b_coeffs}\nelasticity = identity\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check-sl", "--config", str(cfg), "--out",
                     str(tmp_path / "x.csv")]) == 3
    assert not caught
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: membrane: non-finite companion pencil")
    assert "min |D| = " in err[0]


def test_one_process_runs_many_configs_to_their_goldens(tmp_path):
    # the cached constants are keyed on sample counts, signs and indices
    # alone: commands on different configs in one process, and the first
    # again after them, reproduce their golden bytes
    golden = {(config, command): digest for config, command, digest
              in test_cli_golden_bytes.pytestmark[0].args[1]}
    runs = [(SL_16_CFG, "check-sl"), (SPHERE_CAP_CFG, "check-ellipticity"),
            (MIXED_SIGN_CFG.format("isotropic"), "layer-modes"),
            (MIXED_SIGN_CFG.format("isotropic"), "check-sl"), (SL_16_CFG, "check-sl")]
    cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    for config, command in runs:
        cfg.write_text(config)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(read(out)).hexdigest() == golden[config, command], command


# ---------------------------------------------------------------------------
# the command line: the canonical argv is read without argparse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["check-ellipticity", "--config", "a.cfg"],
    ["check-sl", "--config", "a.cfg", "--out", "b.csv"],
    ["layer-modes", "--out", "b.csv", "--config", "a.cfg"],
    ["sensitivity", "--config", "-", "--out", "b.csv"],
    ["solve-reduced", "--config", "a=b.cfg", "--out", "out.csv"],
])
def test_canonical_argv_reads_as_argparse_reads_it(argv):
    args = cli._parser().parse_args(argv)
    assert cli._parse_argv(argv) == (args.command, args.config, args.out)


NON_CANONICAL_ARGV = [
    ["-h"], ["--help"], ["check-sl", "-h"], ["check-sl", "--config", "{cfg}", "--help"],
    ["check-sl", "--config={cfg}"], ["check-sl", "--config={cfg}", "--out={out}"],
    ["check-sl", "--conf", "{cfg}"], ["check-sl", "--con", "{cfg}", "--o", "{out}"],
    ["check-sl", "--config", "{cfg}", "--config", "{cfg}"],
    ["check-sl", "--config", "{cfg}", "--out", "{out}", "--out", "{out}"],
    ["check-sl"], ["check-sl", "--out", "{out}"], ["bogus", "--config", "{cfg}"], [],
    ["check-sl", "--config", "-x"], ["check-sl", "--config", "{cfg}", "--out", "-x"],
    ["check-sl", "--config", ""], ["check-sl", "--config", "-1"],
    ["--config", "{cfg}", "check-sl"], ["--out", "{out}", "check-sl", "--config", "{cfg}"],
    ["check-sl", "--config", "{cfg}", "extra"], ["check-sl", "--config"],
    ["check-sl", "-c", "{cfg}"], ["check-sl", "--config", "{cfg}", "--", "x"],
]


@pytest.mark.parametrize("form", NON_CANONICAL_ARGV, ids=" ".join)
def test_other_argv_forms_keep_argparse_exits_and_text(tmp_path, monkeypatch, capsys, form):
    monkeypatch.chdir(tmp_path)     # the default --out is out.csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG)
    argv = [arg.format(cfg=cfg, out=tmp_path / "run.csv") for arg in form]
    # what argparse itself makes of argv, then what main makes of it
    try:
        args = cli._parser().parse_args(argv)
        want_code = None
    except SystemExit as exc:
        want_code = 2 if exc.code not in (0, None) else 0
    want = capsys.readouterr()
    code = main(argv)
    got = capsys.readouterr()
    if want_code is None:     # argparse accepts it: main runs the command
        assert code == (2 if not os.path.isfile(args.config) else 0)
        assert got.out == ""
        assert os.path.exists(args.out) == (code == 0)
    else:
        assert (code, got.out, got.err) == (want_code, want.out, want.err)
        assert (want.out if code == 0 else want.err).startswith("usage: shellsym")


def test_check_ellipticity_makes_one_determinant_call_per_point(tmp_path, monkeypatch):
    calls = Counter()
    det = np.linalg.det

    def counted(a):
        calls[np.shape(a)] += 1
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    cfg, out = tmp_path / "run.cfg", str(tmp_path / "run.csv")
    # frozen: four systems of orders 2, 2, 4, 8, one stack of 3 + 3 + 5 + 9 matrices
    cfg.write_text(BASE_CFG)
    assert main(["check-ellipticity", "--config", str(cfg), "--out", out]) == 0
    assert calls == {(20, 3, 3): 1}
    # the three points of the cap, one call each; a hyperbolic point builds
    # the rigidity system alone
    for text, want in ((SPHERE_CAP_CFG, {(20, 3, 3): 3}),
                       ("b_coeffs = 1,1.7,1\n", {(3, 3, 3): 1})):
        calls.clear()
        cfg.write_text(text)
        assert main(["check-ellipticity", "--config", str(cfg), "--out", out]) == 0
        assert calls == want


# ---------------------------------------------------------------------------
# non-finite quotients of the reduced solve and probe
# ---------------------------------------------------------------------------

SUBNORMAL_S_CFG = "N = 360\nd = 1\ntheta = 1\nzeta = 1\nepsilon_list = 1e-3,1e-5\n"


@pytest.mark.parametrize("command, cfg_text, message", [
    # s(k) = sqrt(1 + k^2) exp(-2k) is subnormal but not zero for k = 358..360:
    # 1 / s overflows at eps = 0
    ("sensitivity", SUBNORMAL_S_CFG,
     "amplification 1 / (s + eps^2 q) is not finite on 3 modes with |k| in [358, 360]: "
     "[358, 359, 360]; s + eps^2 q is too small there at eps = 0.0"),
    # eps^2 underflows to 0 and s is subnormal from |k| = 78 on: the complex
    # division by it reads inf or nan
    ("solve-reduced", "N = 128\nd = 0.15\ntheta = 1e-300\nzeta = 1\n"
                      "epsilon_list = 1e-200\nf_profile = delta:3\n",
     "solution F / (s + eps^2 q) is not finite on 102 modes with |k| in [78, 128]: "
     "[-128, -127, -126, -125, ..., 125, 126, 127, 128]; s + eps^2 q is too small "
     "there at eps = 1e-200"),
])
def test_non_finite_quotients_are_numerical_failures(tmp_path, capsys, command, cfg_text,
                                                     message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert not caught
    assert capsys.readouterr().err.splitlines() == [f"numerical failure: {message}"]
    assert not out.exists()


def test_sweep_reads_no_quotient_at_eps_zero(tmp_path):
    # the sweep's eps > 0 keeps s + eps^2 q normal where the sensitivity
    # command's eps = 0 probe overflows: exit 0, with its bytes before the
    # non-finite check and no warning
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SUBNORMAL_S_CFG)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep-epsilon", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == \
        "5cd75b46f20fde9e08b02a3cd99808a44479ecb03209bb8574aa2a3cded28c6e"
