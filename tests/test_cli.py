import numpy as np
import pytest

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
                    "theta = 1\nzeta = 1\n")
    assert main(["sweep-epsilon", "--config", str(hard), "--out",
                 str(tmp_path / "x.csv")]) == 3


def test_cli_solve_and_remaining_commands(tmp_path, cfg_path):
    for command in ("solve-reduced", "sensitivity", "rescale-demo",
                    "check-ellipticity"):
        out = str(tmp_path / f"{command}.csv")
        assert main([command, "--config", cfg_path, "--out", out]) == 0
        body = read(out).decode().strip().splitlines()
        assert body[0] == "# schema=1"
        assert len(body) > 2


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
