"""End-to-end acceptance checks, one test (one pass/fail line under -v) per
criterion.  The reference sweep uses the cyclic-splitting sodium parameter set
over delta_c in [-5, 5] delta_u, 2001 points, at drives 0.5/5/20/100 gamma
with the local-field correction off.
"""

import numpy as np
import pytest

import hfs
from hfs.identities import (check_evenness, check_mirror_relations,
                            check_raman_steady_table, two_level_oracle_check,
                            two_level_reduction, two_level_steady)
from hfs.model import STATE_COLUMNS, unpack
from hfs.params import TWO_PI, SODIUM_DELTA_E_MHZ, SODIUM_DELTA_G_MHZ, bare_rabi
from hfs.sweep import SweepSpec, run_sweep, write_csv

OMEGAS = (0.5, 5.0, 20.0, 100.0)


@pytest.fixture(scope="module")
def params():
    return hfs.sodium_d1_cyclic_splittings()


@pytest.fixture(scope="module")
def spec(params):
    return SweepSpec.paper_grid(params, count=2001, span_delta_u=5.0,
                                omegas=OMEGAS, ndd=False)


@pytest.fixture(scope="module")
def table(params, spec):
    t = run_sweep(params, spec)
    assert t.column("converged").all()
    return t


def test_criterion_01_detuning_unit_scale():
    # mean hyperfine splitting over 2 pi must come out at 980.25 MHz
    p = hfs.sodium_d1()
    delta_u_mhz = p.delta_u * p.gamma_ref / (TWO_PI * 1e6)
    assert delta_u_mhz == pytest.approx(
        0.5 * (SODIUM_DELTA_G_MHZ + SODIUM_DELTA_E_MHZ), rel=1e-9)
    assert delta_u_mhz == pytest.approx(980.25, rel=1e-9)


def test_criterion_02_complete_ground_transfer_weak_drive(table):
    dc = table.column("delta_c_over_delta_u", 0.5)
    wg = table.column("w_g", 0.5)
    kmax, kmin = int(np.argmax(wg)), int(np.argmin(wg))
    assert wg[kmax] > 0.9
    assert abs(dc[kmax] - 1.0) < 0.15
    assert wg[kmin] < -0.9
    assert abs(dc[kmin] + 1.0) < 0.15


def test_criterion_03_intensity_flattening(table):
    wg_max = {om: float(np.max(np.abs(table.column("w_g", om))))
              for om in OMEGAS}
    we_max = {om: float(np.max(np.abs(table.column("w_e", om))))
              for om in OMEGAS}
    assert wg_max[0.5] > wg_max[5.0] > wg_max[100.0]
    for mid in (5.0, 20.0):
        assert we_max[mid] > we_max[0.5]
        assert we_max[mid] > we_max[100.0]


def test_criterion_04_absorption_to_gain_flip(table):
    line31_5 = table.column("line_class_31", 5.0)
    line31_20 = table.column("line_class_31", 20.0)
    assert not np.any(line31_5 == "gain")
    assert np.any(line31_20 == "gain")
    # the 41 line keeps its narrow absorption at line center
    dc = table.column("delta_c_over_delta_u", 20.0)
    k0 = int(np.argmin(np.abs(dc)))
    assert table.column("line_class_41", 20.0)[k0] == "absorption"


def test_criterion_05_identity_suite(params, table):
    for om in OMEGAS:
        mirror = check_mirror_relations(table, om, tol=1e-8)
        even = check_evenness(table, om, tol=1e-8)
        raman = check_raman_steady_table(params, table, om, tol=1e-9)
        assert mirror.passed, f"mirror residual {mirror.max_residual} at {om}"
        assert even.passed, f"evenness residual {even.max_residual} at {om}"
        assert raman.passed, f"raman residual {raman.max_residual} at {om}"
        assert raman.n_points == 2001


def _row_rhos(table, omega, picks):
    """Density matrices of the table rows ``picks`` at ``omega``."""
    x = np.array([table.column(c, omega) for c in STATE_COLUMNS])
    return np.moveaxis(unpack(x[:, picks]), -1, 0)


def test_criterion_06_dual_solver_oracle(params, spec, table):
    rng = np.random.default_rng(2024)
    grid = np.asarray(spec.delta_c)
    for om in OMEGAS:
        picks = rng.choice(grid.size, size=20, replace=False)
        for ndd in (False, True):
            # the rows behind the figures: the NDD-off table, and a sweep
            # with NDD on over the picked detunings
            if ndd:
                order = np.argsort(picks)
                ndd_table = run_sweep(params, SweepSpec(
                    delta_c=tuple(grid[picks[order]]), omegas=(om,),
                    ndd=True))
                rows = _row_rhos(ndd_table, om, np.argsort(order))
            else:
                rows = _row_rhos(table, om, picks)
            for k, row in zip(picks, rows):
                drive = hfs.Drive(omega=om, delta_c=float(grid[k]),
                                  ndd_enabled=ndd)
                direct = hfs.solve_selfconsistent(params, drive).rho
                relaxed = hfs.relax_to_steady(params, drive,
                                              residual_tol=1e-9, t_max=1e8)
                for name, rho in (("solver", direct), ("sweep row", row)):
                    diff = float(np.max(np.abs(relaxed.rho - rho)))
                    assert diff < 1e-6, (
                        f"{name} mismatch {diff:.3e} at omega={om} "
                        f"delta_c={grid[k]:.3f} ndd={ndd}")


def test_criterion_07_two_level_limit():
    rep = two_level_oracle_check(
        omegas=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0),
        deltas=(-8.0, -4.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0),
        tol=1e-9)
    assert rep.passed, f"two-level residual {rep.max_residual}"
    assert rep.n_points == 200
    p = two_level_reduction()
    drive = hfs.Drive(omega=1.0, delta_c=p.delta_g - p.delta_u)
    rho = hfs.solve_linear_steady(p, drive, bare_rabi(p, drive))
    assert rho[2, 2].real == pytest.approx(4.0 / 9.0, abs=1e-9)
    assert two_level_steady(1.0, 0.0)[0] == pytest.approx(4.0 / 9.0,
                                                          abs=1e-15)


def test_criterion_08_generator_equivalence(params):
    rng = np.random.default_rng(8)
    drive = hfs.Drive(omega=5.0, delta_c=0.4 * params.delta_u)
    worst = 0.0
    for _ in range(1000):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        a = hfs.rhs_verbatim(params, drive, rho)
        b = hfs.rhs_oracle(params, drive, rho)
        worst = max(worst, float(np.max(np.abs(a - b))))
        assert abs(np.trace(a)) < 1e-13
        assert np.max(np.abs(a - a.conj().T)) < 1e-13
    assert worst < 1e-12


def test_criterion_09_dispersion_bookkeeping(table):
    for om in OMEGAS:
        dc = table.column("delta_c_over_delta_u", om)
        for tr in ("31", "41"):
            n = table.column(f"n{tr}", om)
            labels = table.column(f"dispersion_class_{tr}", om)
            slope = np.gradient(n, dc)
            for k in range(1, len(dc) - 1):
                expect = "normal" if slope[k] > 0 else "anomalous"
                assert labels[k] == expect
    # slow light with gain next to fast light with narrow absorption at 20g
    dc = table.column("delta_c_over_delta_u", 20.0)
    chi31 = table.column("chi31_im", 20.0)
    k_gain = int(np.argmin(chi31))
    assert chi31[k_gain] < 0.0
    assert table.column("dispersion_class_31", 20.0)[k_gain] == "normal"
    chi41 = table.column("chi41_im", 20.0)
    k_abs = int(np.argmax(chi41))
    assert abs(dc[k_abs]) < 0.1
    assert table.column("dispersion_class_41", 20.0)[k_abs] == "anomalous"


def test_criterion_10_determinism(params, spec, table, tmp_path):
    p_ref = tmp_path / "ref.csv"
    write_csv(table, p_ref)
    p2 = tmp_path / "again.csv"
    write_csv(run_sweep(params, spec), p2)
    assert p2.read_bytes() == p_ref.read_bytes(), "CSV differs on rerun"


def test_criterion_10_determinism_ndd_on(params, tmp_path):
    # the Newton fixed point, on a coarser paper grid, repeats bytewise too
    spec = SweepSpec.paper_grid(params, count=201, span_delta_u=5.0,
                                omegas=OMEGAS, ndd=True)
    paths = [tmp_path / "ref.csv", tmp_path / "again.csv"]
    for path in paths:
        write_csv(run_sweep(params, spec), path)
    assert paths[1].read_bytes() == paths[0].read_bytes(), \
        "NDD-on CSV differs on rerun"
