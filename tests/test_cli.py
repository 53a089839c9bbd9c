import hashlib
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shellsym import reduced, symbols
from shellsym.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    serialize_config,
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


def test_config_round_trip():
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
    for text in (BASE_CFG, every_type, every_type + "theta = none\nzeta = 1.5\n"):
        cfg = parse_config(text)
        canon = serialize_config(cfg)
        assert parse_config(canon) == cfg
        assert serialize_config(parse_config(canon)) == canon
    cfg = parse_config(every_type)
    assert (cfg.chart_params, cfg.theta, cfg.zeta) == ((2.5,), 0.75, None)
    assert cfg.elasticity_bending == (1.0, 0.0, 0.25, 1.0, 0.0, 0.5)
    assert [type(k) for k in cfg.kernel_modes] == [int, int]
    assert type(cfg.n_modes) is int and type(cfg.d) is float


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("no_such_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config("chart frozen\n")


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
        "f1f4a00562c5311cd0e3fcee298b31002fea027039ae10345f15039804f7fc77"


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


def test_sweep_underflowing_eps_reports_only_the_failure(tmp_path, capsys):
    # eps^2 q underflows to 0 at eps = 1e-200: the window search fails, and
    # stderr carries that failure alone, without a numpy warning
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("d = 1\nN = 4096\nepsilon_list = 1e-200,1e-3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep-epsilon", "--config", str(cfg), "--out",
                     str(tmp_path / "x.csv")]) == 3
    assert not caught
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("numerical failure:") for line in err)


def test_cli_solve_and_remaining_commands(tmp_path, cfg_path):
    for command in ("solve-reduced", "sensitivity", "rescale-demo",
                    "check-ellipticity"):
        out = str(tmp_path / f"{command}.csv")
        assert main([command, "--config", cfg_path, "--out", out]) == 0
        body = read(out).decode().strip().splitlines()
        assert body[0] == "# schema=1"
        assert len(body) > 2


def test_cli_starts_without_scipy(tmp_path, cfg_path):
    # only the window search and the SL test import scipy
    out = str(tmp_path / "out.csv")
    code = ("import sys\n"
            "from shellsym.cli import main\n"
            "for command in ('check-ellipticity', 'solve-reduced'):\n"
            f"    assert main([command, '--config', {cfg_path!r}, '--out', {out!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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


def test_sweep_samples_symbols_once(tmp_path, monkeypatch):
    # s, q and the order-3 weights are eps-independent: one sweep samples
    # them on the 2N+1 modes once, whatever the number of eps
    n = 1024
    calls = {"s": 0, "q": 0}

    def counted(name, fn):
        def symbol(k):
            calls[name] += np.size(k) == 2 * n + 1
            return fn(k)
        return symbol

    build = reduced.build_default_operator

    def build_counted(*args, **kwargs):
        op = build(*args, **kwargs)
        return replace(op, s_symbol=counted("s", op.s_symbol),
                       q_symbol=counted("q", op.q_symbol))

    monkeypatch.setattr(reduced, "build_default_operator", build_counted)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_1024_CFG)
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-epsilon", "--config", str(cfg), "--out", out]) == 0
    assert len(read(out).splitlines()) == 2 + 12
    assert calls == {"s": 1, "q": 1}


def test_check_sl_builds_one_basis_per_system_and_sign(tmp_path, monkeypatch):
    # the six check-sl cases share three systems; each system's decaying
    # basis and its ellipticity scan are built once per sign of xi1
    bases, scans = Counter(), Counter()
    build, scan = symbols.decaying_solution_basis, symbols.ellipticity_check

    def build_counted(system, point, xi1):
        bases[system.name, float(np.sign(xi1))] += 1
        return build(system, point, xi1)

    def scan_counted(system, *args, **kwargs):
        scans[system.name] += 1
        return scan(system, *args, **kwargs)

    monkeypatch.setattr(symbols, "decaying_solution_basis", build_counted)
    monkeypatch.setattr(symbols, "ellipticity_check", scan_counted)
    cfg = tmp_path / "sl.cfg"
    cfg.write_text(CRITERION_12_CFG.replace("xi1_list = 1,3", "xi1_list = 1,-3,3,-1"))
    out = str(tmp_path / "sl.csv")
    assert main(["check-sl", "--config", str(cfg), "--out", out]) == 0
    assert len(read(out).splitlines()) == 2 + 6 * 4
    assert bases == {(name, s): 1 for name in ("rigidity", "membrane", "koiter")
                     for s in (1.0, -1.0)}
    assert scans == {"rigidity": 2, "membrane": 2, "koiter": 2}


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
# rows of systems that need a surface-elliptic b
HYPERBOLIC_CFG = "b_coeffs = 1,2,1\nelasticity = identity\nepsilon_list = 1e-2\n"


@pytest.mark.parametrize("config,command,digest", [
    (CRITERION_12_CFG, "check-sl",
     "47b85387650d5580fa32954b5a8191b034cba51b1849f01af681d497bf437911"),
    (CRITERION_12_CFG, "layer-modes",
     "239f3b97e3c57e1354a539088ad409eb21b672c32ef4900d4a9688498232ca86"),
    (CRITERION_12_CFG, "check-ellipticity",
     "fe77ea3e223b1d7f203a0669660029b78ac221813f679b09a41cc57c3e98b232"),
    (SPHERE_CAP_CFG, "check-ellipticity",
     "f18367990b7a51f62e3c0a65abc2a274f364359faab833b7d6398c4929881a53"),
    (FLAT_4096_CFG, "solve-reduced",
     "ced86e187b3d5908063f68acf51ec5c8f41d91970c26dee499637913a56461ee"),
    (FLAT_4096_CFG, "sensitivity",
     "3a71b9f2e75add5e591e28096f091200ba8e966f127123597ba1658a4aedfd0b"),
    (SWEEP_1024_CFG, "sweep-epsilon",
     "f48e90eeab752bf5c4255fc8f6296d9a3e7c7781913cbd628453522422e5505e"),
    (CRITERION_12_CFG + "kernel_modes = 3,7\n", "rescale-demo",
     "d8ae8bd98e0f889e075ef011eb39d1c217052b86c3ceebc93d2e942df819d870"),
    (CRITERION_12_CFG, "solve-reduced",
     "00d5aa0c3363735785dd6e43243e31581dc4f000dde0463dd33022ac021c990e"),
    (CRITERION_12_CFG, "sweep-epsilon",
     "d1897933a511fda4a951d277832039fa335b701742abcd3be733379f080e7507"),
    (MIXED_SIGN_CFG.format("frobenius"), "check-sl",
     "065aa5b46516b93c1d311057e427a870d263e2c3faaebf3e855bb93b3fcde003"),
    (MIXED_SIGN_CFG.format("isotropic"), "check-sl",
     "98e390342e522ce43fe79d568c75d15a3f566eb211083e67019ebba158d87e13"),
    (MIXED_SIGN_CFG.format("frobenius"), "layer-modes",
     "b958bf91a065f50a05fa2517a56de8a8de15fe1fc184fef5c91955dfe6b1942f"),
    (MIXED_SIGN_CFG.format("isotropic"), "layer-modes",
     "665cb9bac145d99667642901f45a168042d6a478823233ca742b820dee2814f1"),
    (HYPERBOLIC_CFG, "check-ellipticity",
     "86bd2ebd1a3e6bce61d8753cabe603b01a2644bded492f40d28b928141433ae2"),
])
def test_cli_golden_bytes(tmp_path, config, command, digest):
    # sha256 of the CSV bytes as written before the symbol layer was batched
    # (check-sl: since the SL test moved to the unit cosphere, where abs_det
    # is |det| of unit boundary rows on an orthonormal decaying basis; the
    # reduced commands: before their rows came from one %-template; the
    # mixed-sign check-sl and layer-modes cases: before check-sl shared one
    # decaying basis per system and sign); a refactor of the symbol layer or
    # of the CSV writer must reproduce them exactly
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config)
    out = tmp_path / "golden.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == digest
