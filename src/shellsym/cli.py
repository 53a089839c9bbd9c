"""Configuration-driven command line front end.

Usage::

    shellsym <command> --config <path> [--out <path>]

Commands: ``check-ellipticity``, ``check-sl``, ``layer-modes``,
``solve-reduced``, ``sweep-epsilon``, ``sensitivity``, ``rescale-demo``.

The configuration is a flat ``key = value`` text file; lists are
comma-separated.  Outputs are CSV files with a ``# schema=1`` header line,
17-significant-digit floats, '.' decimal separator and LF line endings, so
repeated runs of the same configuration are byte-identical.  This module is
the only one that knows the output format.  Each command is a function of
the configuration alone that returns its header and its typed columns: float
arrays, int arrays and lists of text.  ``main`` writes them to the ``--out``
path (default ``out.csv``) through ``write_csv``, the one renderer.  It
formats all float columns of a table together through ``_g17``, which
formats each bit-distinct double once, with the same rounding as
``format(x, ".17g")``; a spectrum writes the same values many times
(``f(k) = f(-k)``, ``v(k) = v(-k)``, ``v_abs = |v_re|``).  The dedupe is a
stable sort of the bits, fast on the large tables the commands write:
spectra ordered by ``k``, whose columns are two monotone runs each.  A table
below ``_KERNEL_MIN`` (512) distinct doubles, such as a ``check-ellipticity``
table or a ``check-sl`` or ``layer-modes`` table of at most 100 ``xi1``
values, is written as str cells, ``format`` per double and ``str`` per int,
and a ``",".join`` per row.  From ``_KERNEL_MIN`` on, as a reduced command's
table at ``N >= 256``, the bulk kernel of :mod:`shellsym._g17kernel`,
imported on the first such table, writes each distinct double once as
fixed-width bytes, most of them with no per-byte gather; each cell is
gathered from them whole, as one ``V`` item, into one byte grid, the whole
body, written in binary, with the ints written four digits at a time from a
table.  In ``solve-reduced``, ``v_abs`` is ``np.hypot(re, im)``, which
matches the ``abs`` of a numpy complex scalar bit for bit, where the array
``np.abs`` of a complex array may differ in the last bit.

``main`` reads the canonical command line, ``<command> --config P [--out
P]`` with the flags in either order, itself; argparse is imported and its
parser built only for any other argv (``-h``, ``--config=P``, an
abbreviated or repeated flag, a missing one, a value starting with ``-``),
so its usage text, messages and exits stay argparse's, and a canonical
one-shot run never imports it.

A command imports only the modules it reads, so a one-shot run compiles no
other: ``check-ellipticity`` and ``check-sl`` load ``geometry``,
``symbols`` and ``polymat``; ``layer-modes`` loads ``geometry`` and
``layers`` alone.  A reduced command loads ``reduced``, ``_g17kernel`` for a
large table, and ``layers`` (with ``geometry``) only for an unset ``theta``
or ``zeta``.  ``check-ellipticity`` makes one determinant call per point,
on the stacked samples of the point's built systems.  ``check-sl`` takes
the verdicts of all of a system's boundary sets in one stacked call per
sign of ``xi1``.  ``sweep-epsilon`` takes
``max_abs_v``, ``argmax_k`` and ``amplification`` from one probe array per
``eps``, ``1 / (s + eps^2 q)`` on every mode.  ``main`` maps every
:class:`shellsym.NumericalError` to exit 3, whichever module raised it.

Only ``check-ellipticity`` reads ``chart`` and ``chart_params``; the other
commands work at the frozen point of ``b_coeffs`` and reject both.  The
``frozen`` chart takes no ``chart_params``; ``sphere-cap`` takes one, its
radius, for which every entry of the chart's metric must be a finite,
nonzero double.  Only the ``explicit`` rigidity takes ``elasticity_membrane``
and ``elasticity_bending``, and only a reduced command ``theta`` and ``zeta``.

``check-sl`` and ``layer-modes`` read the curvature ``b_coeffs`` and the
rigidity.  A reduced command (``solve-reduced``, ``sweep-epsilon``,
``sensitivity``, ``rescale-demo``) reads both only for the ``theta`` or
``zeta`` that the configuration leaves unset.  ``check-ellipticity`` reads
the rigidity always, and reports a curvature that is not surface-elliptic in
its rows.  Where a command reads them, a ``b_coeffs`` that is not
surface-elliptic and an ``explicit`` rigidity that is not positive definite
are configuration errors.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, get_type_hints

import numpy as np

from . import NumericalError, _read_only

if TYPE_CHECKING:
    from . import geometry, reduced

SCHEMA_LINE = "# schema=1"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    command: str = ""
    chart: str = "frozen"
    chart_params: tuple[float, ...] = ()
    b_coeffs: tuple[float, ...] = (1.0, 0.0, 1.0)
    elasticity: str = "identity"
    elasticity_membrane: tuple[float, ...] = ()
    elasticity_bending: tuple[float, ...] = ()
    epsilon_list: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    n_modes: int = 128
    d: float = 1.0
    theta: float | None = None
    zeta: float | None = None
    xi1_list: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    k_probe: int = 10
    kernel_modes: tuple[int, ...] = (3,)
    f_profile: str = "smooth4"

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.chart not in ("frozen", "sphere-cap"):
            raise ConfigError(f"unknown chart {self.chart!r}")
        for name, value in vars(self).items():     # the fields, in their order
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{name} must be finite")
        if self.command != "check-ellipticity" and (
                self.chart != "frozen" or self.chart_params):
            raise ConfigError(f"{self.command} works at the frozen point of "
                              "b_coeffs; chart and chart_params apply only "
                              "to check-ellipticity")
        if self.chart == "frozen" and self.chart_params:
            raise ConfigError("the frozen chart takes no chart_params")
        if self.chart == "sphere-cap" and self.chart_params[:1] == (0.0,):
            raise ConfigError("sphere-cap radius must be nonzero")
        if self.chart == "sphere-cap" and self.chart_params:
            from . import geometry     # the rule of the chart _chart_points builds
            if not geometry._cap_radius_fits(self.chart_params[0]):
                raise ConfigError("sphere-cap radius must have a finite, nonzero square")
        if self.chart == "sphere-cap" and len(self.chart_params) > 1:
            raise ConfigError("sphere-cap takes one chart_params value, the radius")
        if len(self.b_coeffs) != 3:
            raise ConfigError("b_coeffs needs exactly three values")
        if not self.epsilon_list:
            raise ConfigError("epsilon_list must not be empty")
        if any(not 0.0 < e < 1.0 for e in self.epsilon_list):
            raise ConfigError("epsilon values must lie in (0, 1)")
        if self.n_modes < 8:
            raise ConfigError("N must be at least 8")
        if self.d <= 0:
            raise ConfigError("d must be positive")
        if self.elasticity not in ("identity", "frobenius", "isotropic", "explicit"):
            raise ConfigError(f"unknown elasticity {self.elasticity!r}")
        if self.elasticity == "explicit" and (
                len(self.elasticity_membrane) != 6 or len(self.elasticity_bending) != 6):
            raise ConfigError("explicit elasticity needs 6+6 upper-triangle entries")
        if self.elasticity != "explicit" and (
                self.elasticity_membrane or self.elasticity_bending):
            raise ConfigError("elasticity_membrane and elasticity_bending apply "
                              "only to elasticity = explicit")
        if 0 in self.xi1_list:
            raise ConfigError("xi1 values must be nonzero")
        if self.command in ("check-sl", "layer-modes") and not self.xi1_list:
            raise ConfigError("xi1_list must not be empty")
        # as in _coefficients, which check-sl and layer-modes call with neither set
        reads_layer = self.command != "check-ellipticity" and None in (self.theta, self.zeta)
        if reads_layer or self.command == "check-ellipticity":
            from . import geometry
            if reads_layer:
                try:
                    geometry.surface_elliptic_triple(self.b_coeffs)
                except geometry.SurfaceEllipticityError:
                    raise ConfigError("b_coeffs must be surface-elliptic "
                                      "for this command") from None
            try:
                self.elasticity_tensor()
            except geometry.InvariantError as exc:
                raise ConfigError(str(exc)) from None
        for name in ("theta", "zeta"):
            value = getattr(self, name)
            if value is not None and self.command in ("check-ellipticity", "check-sl",
                                                      "layer-modes"):
                raise ConfigError("theta and zeta apply only to the reduced commands")
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be positive")
        if self.f_profile.startswith("delta:"):
            try:
                k = int(self.f_profile[len("delta:"):])
            except ValueError:
                raise ConfigError(f"f_profile {self.f_profile!r}: "
                                  "delta needs an integer mode") from None
            if abs(k) > self.n_modes:
                raise ConfigError(f"f_profile delta mode {k} beyond N={self.n_modes}")
        elif self.f_profile not in ("flat", "smooth4"):
            raise ConfigError(f"unknown f_profile {self.f_profile!r}")
        if self.command == "sweep-epsilon" and abs(self.k_probe) > self.n_modes:
            raise ConfigError(f"k_probe {self.k_probe} beyond N={self.n_modes}")
        if self.command == "rescale-demo" and not (
                self.kernel_modes and max(map(abs, self.kernel_modes)) <= self.n_modes):
            raise ConfigError(f"kernel_modes {self.kernel_modes} must be nonempty "
                              f"and within N={self.n_modes}")

    def elasticity_tensor(self) -> geometry.ElasticityTensor:
        if self.elasticity != "explicit":
            return _builtin_elasticity(self.elasticity)
        from . import geometry

        def mat(vals):
            m = np.empty((3, 3))
            m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2] = vals
            m[1, 0], m[2, 0], m[2, 1] = m[0, 1], m[0, 2], m[1, 2]
            return m
        return geometry.ElasticityTensor.from_matrices(
            mat(self.elasticity_membrane), mat(self.elasticity_bending))


@functools.cache
def _builtin_elasticity(name: str) -> geometry.ElasticityTensor:
    """The built-in tensor ``name``, validated once, with read-only matrices."""
    from . import geometry
    tensor = {"identity": geometry.ElasticityTensor.identity,
              "frobenius": geometry.ElasticityTensor.frobenius_identity,
              "isotropic": geometry.ElasticityTensor.isotropic}[name]()
    _read_only(tensor.membrane, tensor.bending)
    return tensor


_PARSE_BY_TYPE = {
    tuple[float, ...]: lambda v: tuple(float(x) for x in v.split(",") if x.strip()),
    tuple[int, ...]: lambda v: tuple(int(x) for x in v.split(",") if x.strip()),
    int: int,
    float: float,
    float | None: lambda v: None if v.lower() == "none" else float(v),
    str: str,
}
# field and value parser of each config-file key, the parser chosen by the
# field's ExperimentConfig annotation; the key N sets n_modes, and the
# command comes from the command line alone
_FIELD_PARSERS = {"N" if name == "n_modes" else name: (name, _PARSE_BY_TYPE[t])
                  for name, t in get_type_hints(ExperimentConfig).items()
                  if name != "command"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value format; unknown keys are rejected."""
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, parse = _FIELD_PARSERS[key]
        try:
            setattr(cfg, name, parse(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return cfg


def _g17(*columns):
    """The ``format(x, ".17g")`` text of equal-length float columns, one entry each.

    Each bit-distinct double is formatted once, so ``-0.0`` keeps its
    ``-0`` and every NaN and infinity its own text.  The dedupe is a stable
    argsort of the bits, which merges runs (a spectrum ordered by ``k`` is
    two a column), a not-equal flag, a ``cumsum`` and one scatter.  Below
    ``_KERNEL_MIN`` distinct doubles an entry is a list of str, from
    ``format`` per value.  From it on, it is ``(cells, index)``, the rows
    ``cells[index]``: ``cells`` is a ``(distinct, width)`` uint8 array of
    ASCII text padded with NUL, as wide as the column's longest text, from
    the bulk kernel and, for what it cannot prove, ``format``.  It is a view
    into the kernel's 32-byte source rows, where most cells already lie.
    """
    bits = np.array(columns, dtype=np.float64).view(np.uint64)
    order = bits.ravel().argsort(kind="stable")
    ranked = bits.ravel()[order]
    first = np.ones(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    index = np.empty(bits.shape, dtype=np.intp)
    index.ravel()[order] = np.cumsum(first) - 1
    values = ranked[first].view(np.float64)
    if values.size < _KERNEL_MIN:
        text = np.array(_format(values), dtype=object)
        return text[index].tolist()
    from ._g17kernel import kernel
    text, length, handed = kernel(values)
    formatted = _format(values[handed])
    width = text.shape[1]
    text[handed] = np.array(formatted, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    length[handed] = list(map(len, formatted))
    return [(text[:, :length[row].max()], row) for row in index]


def _format(values: np.ndarray) -> list:
    # map() with float.__format__ skips the per-value builtin lookup of a
    # comprehension; the formatting itself is most of the cost
    return list(map(float.__format__, values.tolist(), itertools.repeat(".17g")))


# From this many distinct doubles on, the byte grid writes a table faster
# than str cells and row joins (2-vCPU Xeon VM, write_csv with the file
# write): even near 600-650 on sensitivity tables (str cells 1.4x faster at
# 258, the grid 1.2x at 802) and near 350-400 on solve-reduced tables
_KERNEL_MIN = 512


def write_csv(path: str, header: str, columns: list):
    """Write ``header`` and one row per index of the equal-length typed ``columns``.

    A column is a float array, an int array, or a list of text holding no
    ``,``, line break or NUL.  ``_g17`` formats the float columns together.
    Below ``_KERNEL_MIN`` distinct doubles each cell is a str, ``str`` writes
    the ints, and each row is a ``",".join``.  From it on, the body is one
    uint8 grid: the cells of a row side by side, each padded with NUL and
    followed by its ``,`` or line feed.  ``_int_cells`` writes the ints
    there, four digits at a time from a table.  A float column is gathered
    from ``_g17``'s distinct cells into it, one ``V<width>`` item a cell, and
    one masked copy drops the padding and goes to the file after the header.
    """
    if len({len(col) for col in columns}) > 1:
        raise ValueError("columns differ in length")
    kinds = [col.dtype.kind if isinstance(col, np.ndarray) else "U" for col in columns]
    floats = _g17(*(col for col, kind in zip(columns, kinds) if kind == "f"))
    if not (floats and isinstance(floats[0], tuple)):     # below _KERNEL_MIN
        float_text = iter(floats)
        cells = [next(float_text) if kind == "f" else
                 list(map(str, col.tolist())) if kind in "iu" else col
                 for col, kind in zip(columns, kinds)]
        rows = map(",".join, zip(*cells))
        chunks = [("\n".join([SCHEMA_LINE, header, *rows]) + "\n").encode()]
    else:
        float_cells, whole = iter(floats), slice(None)
        parts = [next(float_cells) if kind == "f" else
                 (_int_cells(col), whole) if kind in "iu" else
                 (np.array([text.encode() for text in col], dtype="S").view(
                     np.uint8).reshape(len(col), -1), whole)
                 for col, kind in zip(columns, kinds)]
        ends = np.cumsum([cells.shape[1] + 1 for cells, _ in parts])
        grid = np.empty((len(columns[0]), ends[-1]), dtype=np.uint8)
        for (cells, index), end in zip(parts, ends):
            cell = f"V{cells.shape[1]}"     # take(out=) would copy this strided block twice
            grid[:, end - 1 - cells.shape[1]:end - 1].view(cell)[...] = cells.view(cell)[index]
        grid[:, ends - 1] = ord(",")
        grid[:, -1] = ord("\n")
        # the compacted grid is written through the buffer protocol, uncopied
        chunks = [f"{SCHEMA_LINE}\n{header}\n".encode(), grid[grid != 0]]
    with open(path, "wb") as fh:
        fh.writelines(chunks)


@functools.cache
def _int_groups() -> np.ndarray:
    """The ASCII of each four-digit group ``g`` as a little-endian uint32, read-only.

    Entry ``g`` writes a group with no digit before it, its leading zeros
    NUL (0 all NUL); ``10_000 + g`` one after other digits, all four digits;
    ``20_000 + g`` the last group of a number with no digit before it, as
    the first kind but with 0 as ``0``.
    """
    g = np.arange(10_000)
    # digit i of a group, and whether it is not a leading zero
    digits = [(g // 10 ** (3 - i) % 10 + ord("0")).astype(np.uint32) << 8 * i
              for i in range(4)]
    stripped = sum(digit * (g >= 10 ** (3 - i)) for i, digit in enumerate(digits))
    last = stripped.copy()
    last[0] = ord("0") << 24
    return _read_only(np.concatenate([stripped, sum(digits), last]))[0]


def _int_cells(col: np.ndarray) -> np.ndarray:
    """The ``str`` text of ints as rows of ASCII cells padded with NUL.

    The sign takes the first byte and the digits are right-aligned, so the
    padding between them is dropped with the rest.  The digits are written
    four at a time from :func:`_int_groups`, one ``//`` pass a group.
    """
    negative = col < 0
    rest = np.abs(col).astype(np.uint64)     # abs(-2**63) wraps, and casts to 2**63
    n_groups = -(-len(str(rest.max())) // 4)
    cells = np.empty((col.size, 4 * n_groups + 1), dtype=np.uint8)
    cells[:, 0] = negative * ord("-")
    groups, quads = _int_groups(), cells[:, 1:].view("<u4")
    for j in range(n_groups - 1, -1, -1):
        # // by a scalar is numpy's fast integer path; divmod and % are not
        quotient = rest // 10_000
        index = (rest - 10_000 * quotient).astype(np.intp)
        index += np.where(quotient > 0, 10_000, 20_000 if j == n_groups - 1 else 0)
        quads[:, j] = groups[index]
        rest = quotient
    return cells


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _chart_points(cfg: ExperimentConfig) -> list:
    """(point_id, MetricData) samples for the configured chart."""
    from . import geometry
    if cfg.chart == "frozen":
        b11, b12, b22 = cfg.b_coeffs
        return [("frozen", geometry.frozen_point(b11, b12, b22))]
    params = cfg.chart_params or (1.0,)
    chart = geometry.sphere_cap_chart(radius=params[0])
    n1, n2 = chart.shape
    return [(f"sphere({i},{j})", chart.point(i, j))
            for i, j in ((0, 0), (n1 // 2, n2 // 2), (n1 - 1, n2 - 1))]


def cmd_check_ellipticity(cfg: ExperimentConfig) -> tuple:
    from . import geometry, symbols
    elastic = cfg.elasticity_tensor()
    eps = cfg.epsilon_list[0]
    records = []
    for point_id, point in _chart_points(cfg):
        systems = {}
        for name in ("rigidity", "membrane_tension", "membrane", "koiter"):
            try:
                systems[name] = symbols.builtin_system(name, point, elastic, eps)
            except geometry.SurfaceEllipticityError:
                systems[name] = None
        # one determinant call for the point's built systems
        reps = iter(symbols._ellipticity_checks(
            [system for system in systems.values() if system is not None], point))
        for name, system in systems.items():
            if system is None:
                records.append((point_id, name, "-", 0.0, "false"))
            else:
                rep = next(reps)
                records.append((point_id, name, system.total_order,
                                rep.min_abs_det, str(rep.elliptic).lower()))
    point_ids, names, orders, dets, verdicts = zip(*records)
    return ("point_id,system,total_order,min_abs_det,elliptic",
            [point_ids, names, list(map(str, orders)), np.array(dets), verdicts])


_SL_CASES = (
    ("rigidity", "u1"),
    ("rigidity", "u2"),
    ("rigidity", "u3"),
    ("membrane", "membrane_dirichlet"),
    ("membrane", "membrane_traction"),
    ("koiter", "koiter_clamped"),
)


def cmd_check_sl(cfg: ExperimentConfig) -> tuple:
    from . import geometry, symbols
    elastic = cfg.elasticity_tensor()
    point = geometry.frozen_point(*cfg.b_coeffs)
    sets = {}
    for sys_name, bc_name in _SL_CASES:
        sets.setdefault(sys_name, []).append(bc_name)
    signs = [math.copysign(1.0, xi1) for xi1 in cfg.xi1_list]
    # one basis per system and sign of xi1, and one stacked verdict for all
    # of the system's boundary sets
    verdicts = {}
    for sys_name, bc_names in sets.items():
        system = symbols.builtin_system(sys_name, point, elastic, cfg.epsilon_list[0])
        bcs = [symbols.builtin_boundary_conditions(name, elastic) for name in bc_names]
        for s in dict.fromkeys(signs):
            verdicts[sys_name, s] = dict(zip(bc_names, symbols._sl_verdicts(
                symbols.decaying_solution_basis(system, point, s), bcs, s,
                [f"{sys_name}+{name}" for name in bc_names])))
    # the row takes xi1 itself from the config
    reps = [verdicts[sys_name, s][bc_name] for sys_name, bc_name in _SL_CASES for s in signs]
    return ("point_id,xi1,m,abs_det,satisfied",
            [[rep.point_id for rep in reps], np.array(cfg.xi1_list * len(_SL_CASES)),
             np.array([rep.half_order for rep in reps]),
             np.array([abs(rep.sl_determinant) for rep in reps]),
             [str(rep.satisfied).lower() for rep in reps]])


def _coefficients(cfg: ExperimentConfig) -> tuple:
    """``(theta, zeta)``, each one the configuration leaves unset from the layer data."""
    # one at a time: at an umbilic zeta exists while theta does not
    theta, zeta = cfg.theta, cfg.zeta
    if None in (theta, zeta):
        from . import layers
        elastic = cfg.elasticity_tensor()
        if theta is None:
            theta = layers.layer_energy_coefficient(cfg.b_coeffs, elastic.membrane)
        if zeta is None:
            zeta = layers.bending_symbol_coefficient(cfg.b_coeffs, elastic.bending)
    return theta, zeta


def cmd_layer_modes(cfg: ExperimentConfig) -> tuple:
    from . import layers
    # theta and zeta are constants of (b, A): one value for every row
    theta, zeta = _coefficients(cfg)
    lam_p, lam_m = np.array([layers.rigidity_roots(*cfg.b_coeffs, xi1)
                             for xi1 in cfg.xi1_list]).T
    return ("xi1,re_lam_plus,im_lam_plus,re_lam_minus,im_lam_minus,theta,zeta",
            [np.array(cfg.xi1_list), lam_p.real, lam_p.imag, lam_m.real, lam_m.imag,
             np.full(lam_p.shape, theta), np.full(lam_p.shape, zeta)])


def _operator(cfg: ExperimentConfig, eps: float) -> reduced.ReducedOperator:
    from . import reduced
    return reduced.build_default_operator(*_coefficients(cfg), cfg.d, cfg.n_modes, eps)


def _load(cfg: ExperimentConfig) -> reduced.SpectralField:
    from . import reduced
    # validate() admits flat, smooth4 and delta:k with |k| <= N
    if cfg.f_profile == "flat":
        return reduced.flat_load(cfg.n_modes)
    if cfg.f_profile == "smooth4":
        return reduced.smooth_load(cfg.n_modes, decay=2.0)
    return reduced.SpectralField.delta(cfg.n_modes,
                                       int(cfg.f_profile[len("delta:"):]))


def cmd_solve_reduced(cfg: ExperimentConfig) -> tuple:
    from . import reduced
    op = _operator(cfg, cfg.epsilon_list[0])
    load = _load(cfg)
    v = reduced.solve(op, load)
    re, im = v.coeffs.real, v.coeffs.imag
    return ("k,f_re,v_re,v_im,v_abs",
            [v.wavenumbers, load.coeffs.real, re, im, np.hypot(re, im)])


def cmd_sweep_epsilon(cfg: ExperimentConfig) -> tuple:
    from . import reduced
    load = _load(cfg)
    base = _operator(cfg, cfg.epsilon_list[0])
    # one operator per eps, read by the A-norm table, window and probe; the
    # probe 1 / (s + eps^2 q) on every mode is |v| of a flat load
    ops = [base, *map(base.with_eps, cfg.epsilon_list[1:])]
    # the window search at the first eps precedes the kernel check of the
    # A-norm table, so a config that fails both reports the window
    k_stars = [reduced.frequency_window(base)]
    va_rows = reduced._va_rows(base, ops, load)
    k_stars += [reduced.frequency_window(op) for op in ops[1:]]
    k = base.wavenumbers
    argmax, values = [], []
    for op, k_star, va in zip(ops, k_stars, va_rows):
        amp = reduced.sensitivity_probe(op, k)
        argmax.append(reduced._argmax(amp, k))
        values.append((op.eps, k_star, amp.max(), va.va_distance,
                       reduced.coercivity_constant(op), amp[cfg.k_probe + cfg.n_modes]))
    eps, k_star, *rest = np.array(values).T
    return ("eps,k_star,argmax_k,max_abs_v,va_distance,coercivity,amplification",
            [eps, k_star, np.array(argmax), *rest])


def cmd_sensitivity(cfg: ExperimentConfig) -> tuple:
    from . import reduced
    op = _operator(cfg, cfg.epsilon_list[0])
    k = np.arange(cfg.n_modes + 1)
    amp0 = reduced.sensitivity_probe(op.with_eps(0.0), k)
    amp = reduced.sensitivity_probe(op, k)
    return ("k,amplification_eps0,amplification_eps", [k, amp0, amp])


def cmd_rescale_demo(cfg: ExperimentConfig) -> tuple:
    from . import reduced
    op = reduced.with_kernel(_operator(cfg, cfg.epsilon_list[0]),
                             cfg.kernel_modes)
    load = _load(cfg)
    _, rows_data = reduced.noninhibited_rescale(op, load, cfg.epsilon_list)
    return ("eps,kernel_error,off_kernel_max",
            list(np.array([(r.eps, r.kernel_error, r.off_kernel_max)
                           for r in rows_data]).T))


_DISPATCH = {
    "check-ellipticity": cmd_check_ellipticity,
    "check-sl": cmd_check_sl,
    "layer-modes": cmd_layer_modes,
    "solve-reduced": cmd_solve_reduced,
    "sweep-epsilon": cmd_sweep_epsilon,
    "sensitivity": cmd_sensitivity,
    "rescale-demo": cmd_rescale_demo,
}
COMMANDS = tuple(_DISPATCH)


@functools.cache
def _parser():
    """The argparse parser of the command line, built on first use."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="shellsym",
        description="Ellipticity/SL checks, layer modes and the reduced "
                    "boundary solver for sensitive elliptic shells.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="flat key=value file")
    parser.add_argument("--out", default="out.csv", help="output CSV path")
    return parser


def _parse_argv(argv: list) -> tuple:
    """``(command, config, out)`` of the command line ``argv``.

    The canonical form, ``<command> --config P [--out P]`` with the flags in
    either order and each value neither empty nor starting with ``-``, is
    read here, as argparse reads it.  Any other ``argv`` goes to argparse,
    so its usage text, messages and exits stay argparse's.
    """
    flags = dict(zip(argv[1::2], argv[2::2]))
    if (len(argv) in (3, 5) and argv[0] in _DISPATCH and len(flags) == len(argv) // 2
            and "--config" in flags and flags.keys() <= {"--config", "--out"}
            and all(value[:1] not in ("", "-") for value in flags.values())):
        return argv[0], flags["--config"], flags.get("--out", "out.csv")
    args = _parser().parse_args(argv)
    return args.command, args.config, args.out


def main(argv=None) -> int:
    try:
        command, config, out = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        with open(config) as fh:
            cfg = parse_config(fh.read())
        cfg.command = command
        cfg.validate()
        header, columns = _DISPATCH[cfg.command](cfg)
        # a failed command writes nothing; an unwritable --out is a usage error
        write_csv(out, header, columns)
    except (OSError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
