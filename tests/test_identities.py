import numpy as np
import pytest

import hfs
from hfs import identities
from hfs.identities import (GridNotSymmetric, check_evenness,
                            check_mirror_relations, check_raman_steady,
                            check_raman_steady_table,
                            check_raman_symmetric_form, corrupt_coherence,
                            two_level_oracle_check, two_level_reduction,
                            two_level_steady, write_report_json)
from hfs.sweep import COLUMNS, SpectrumTable, SweepSpec, run_sweep


@pytest.fixture(scope="module")
def params():
    return hfs.sodium_d1()


@pytest.fixture(scope="module")
def table(params):
    spec = SweepSpec.paper_grid(params, count=201, span_delta_u=2.0,
                                omegas=(5.0,))
    return run_sweep(params, spec)


class TestMirrorRelations:

    def test_hold_on_symmetric_sweep(self, table):
        rep = check_mirror_relations(table, 5.0)
        assert rep.passed
        assert rep.max_residual < 1e-10
        assert rep.n_points == 4 * 101

    def test_detector_catches_corruption(self, table):
        bad = corrupt_coherence(table, "31", 17)
        rep = check_mirror_relations(bad, 5.0)
        assert not rep.passed

    def test_asymmetric_grid_rejected(self, params):
        spec = SweepSpec.linear(-1.0, 2.0, 7, omegas=(5.0,))
        t = run_sweep(params, spec)
        with pytest.raises(GridNotSymmetric):
            check_mirror_relations(t, 5.0)


class TestRamanSteady:

    def test_single_point(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=0.3 * params.delta_u)
        rho = hfs.solve_selfconsistent(params, drive).rho
        rep = check_raman_steady(params, drive, rho)
        assert rep.passed
        assert rep.max_residual < 1e-11

    def test_table_wide(self, params, table):
        rep = check_raman_steady_table(params, table, 5.0)
        assert rep.passed
        assert rep.n_points == 201

    def test_symmetric_form(self, params, table):
        rep = check_raman_symmetric_form(params, table, 5.0)
        assert rep.passed
        assert rep.max_residual < 1e-10

    def test_violated_by_random_state(self, params):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        rep = check_raman_steady(params, hfs.Drive(omega=5.0), rho)
        assert not rep.passed


class TestEvenness:

    def test_raman_spectra_even(self, table):
        rep = check_evenness(table, 5.0)
        assert rep.passed
        assert rep.max_residual < 1e-10

    def test_detector_catches_corruption(self, table):
        bad = corrupt_coherence(table, "21", 3)
        assert not check_evenness(bad, 5.0).passed


class TestTwoLevel:

    def test_closed_form_values(self):
        r33, r31 = two_level_steady(1.0, 0.0)
        assert r33 == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert r31.real == 0.0
        assert r31.imag == pytest.approx(-2.0 / 9.0, abs=1e-15)

    def test_weak_field_linear_response(self):
        # first order in omega: rho31 ~ omega (delta + i gamma/2)^-1 * ...
        om, de = 1e-4, 3.0
        _, r31 = two_level_steady(om, de)
        expect = om / (de + 0.5j)   # = om (de - i/2)/(de^2 + 1/4)
        assert r31 == pytest.approx(expect, rel=1e-6)

    def test_reduction_params(self):
        p = two_level_reduction()
        assert p.gamma31 == 1.0
        assert p.gamma32 == p.gamma41 == p.gamma42 == 0.0
        assert p.mu14 == p.mu23 == p.mu24 == 0.0
        assert p.mu13 == 1.0

    def test_solver_matches_oracle_grid(self):
        rep = two_level_oracle_check(
            omegas=(0.25, 1.0, 5.0), deltas=(-4.0, 0.0, 2.0))
        assert rep.passed
        assert rep.max_residual < 1e-12

    def test_oracle_solves_one_grid_stack_per_omega(self, monkeypatch):
        # the production solver, one stack per omega, gives the residuals
        # of one-point linear solves at every (omega, delta)
        from hfs.params import bare_rabi
        omegas, deltas = (0.25, 1.0, 5.0), (-4.0, 0.0, 0.5, 2.0)
        p = two_level_reduction()
        pointwise = []
        for om in omegas:
            for de in deltas:
                drive = hfs.Drive(omega=om,
                                  delta_c=de + p.delta_g - p.delta_u)
                rho = hfs.solve_linear_steady(p, drive, bare_rabi(p, drive))
                r33, r31 = two_level_steady(om, de)
                pointwise += [abs(rho[2, 2].real - r33), abs(rho[2, 0] - r31)]
        solve_grid, stacks = identities.solve_grid, []

        def counted(params, omega, delta_c, *args, **kwargs):
            stacks.append((omega, len(delta_c)))
            return solve_grid(params, omega, delta_c, *args, **kwargs)

        monkeypatch.setattr(identities, "solve_grid", counted)
        rep = two_level_oracle_check(omegas, deltas)
        assert stacks == [(om, len(deltas)) for om in omegas]
        assert rep.passed and rep.n_points == len(pointwise)
        assert rep.max_residual == pytest.approx(max(pointwise), abs=1e-16)

    @pytest.mark.filterwarnings("error")
    def test_singular_point_fails_the_report(self):
        # zero drive leaves no unique steady state: reported, not raised
        rep = two_level_oracle_check(omegas=(0.0, 1.0), deltas=(-1.0, 2.0))
        assert not rep.passed
        assert rep.n_points == 8


def test_omega_not_in_table_rejected(params, table):
    # an omega without rows raises, naming it and the omegas the table holds
    for check in (check_mirror_relations, check_evenness):
        with pytest.raises(ValueError, match=r"omega = 3.0.*\[5.0\]"):
            check(table, 3.0)
    for check in (check_raman_steady_table, check_raman_symmetric_form):
        with pytest.raises(ValueError, match=r"omega = 3.0.*\[5.0\]"):
            check(params, table, 3.0)


def test_report_over_no_points_fails(params, table):
    cols = {c: table.column(c).copy() for c in COLUMNS}
    cols["converged"][:] = False
    rep = check_raman_steady_table(params, SpectrumTable(cols), 5.0)
    assert rep.n_points == 0 and not rep.passed
    assert not identities._report("any", np.empty(0), 1.0, 0).passed


def test_report_serialization(tmp_path, params):
    drive = hfs.Drive(omega=5.0, delta_c=10.0)
    rho = hfs.solve_selfconsistent(params, drive).rho
    rep = check_raman_steady(params, drive, rho)
    path = tmp_path / "reports.json"
    write_report_json([rep], path)
    import json
    data = json.loads(path.read_text())
    assert data[0]["identity"] == "raman_steady"
    assert data[0]["pass"] is True
    assert "passed" not in data[0]


# The record-at-a-time table checks the vectorised ones replaced, kept as
# oracles: pairs found by searching the grid, one residual at a time.
def _pairs_by_search(dc):
    pairs = []
    for k in np.flatnonzero(dc >= 0):
        hit = np.flatnonzero(np.abs(dc + dc[k]) <= 1e-9 * max(
            np.max(np.abs(dc)), 1.0))
        assert hit.size == 1
        pairs.append((k, hit[0]))
    return pairs


def _loop_residuals(params, table, omega):
    """identity -> (residuals, normalised) as the loops computed them."""
    dc = table.column("delta_c_over_delta_u", omega)
    r = {lbl: table.coherence(lbl, omega)
         for lbl in ("21", "31", "32", "41", "42", "43")}
    scale = max(max(np.max(np.abs(v)) for v in r.values()), 1e-300)
    gs = hfs.params.gamma_set(params, 0.0)
    out = {"mirror_relations": [], "raman_evenness": [],
           "raman_symmetric_form": [], "raman_steady_table": []}
    for kp, km in _pairs_by_search(dc):
        out["mirror_relations"] += [
            abs(r["42"][kp] + np.conj(r["31"][km])),
            abs(r["42"][km] + np.conj(r["31"][kp])),
            abs(r["32"][kp] + np.conj(r["41"][km])),
            abs(r["32"][km] + np.conj(r["41"][kp]))]
        even = [abs(r["21"][kp] - r["21"][km]), abs(r["43"][kp] - r["43"][km])]
        out["raman_evenness"] += even
        r31s = r["31"][kp] + r["31"][km]
        r41s = r["41"][kp] + r["41"][km]
        r31cs = np.conj(r["31"][kp]) + np.conj(r["31"][km])
        out["raman_symmetric_form"] += [
            abs(gs.g21 * r["21"][kp] - 1j * omega * (r31s + r41s)),
            abs(gs.g43 * r["43"][kp] - 1j * omega * (r31cs - r41s)), *even]
    x = np.stack([table.column(c, omega) for c in hfs.model.STATE_COLUMNS])
    rhos = hfs.model.unpack(x)
    for k in np.flatnonzero(table.column("converged", omega)):
        drive = hfs.Drive(omega=omega, delta_c=dc[k] * params.delta_u)
        out["raman_steady_table"].append(
            check_raman_steady(params, drive, rhos[..., k]).max_residual)
    return {name: (np.asarray(v) / (1.0 if name == "raman_steady_table"
                                    else scale))
            for name, v in out.items()}


@pytest.mark.parametrize("omega", [0.5, 20.0])
def test_table_checks_match_loop_oracle(omega):
    # the same residual count, and the same largest residual up to the
    # rounding of the vectorised products: 4 ulp of the largest term, which
    # is 2 for the mirror and evenness differences of normalised
    # coherences and (|g21| + |g43| + 8 omega) * max|rho| (max|rho| <= 1)
    # for the Raman relations
    params = hfs.sodium_d1_cyclic_splittings()
    spec = SweepSpec.paper_grid(params, count=101, span_delta_u=5.0,
                                omegas=(omega,))
    table = run_sweep(params, spec)
    gs = hfs.params.gamma_set(params, 0.0)
    raman_terms = abs(gs.g21) + abs(gs.g43) + 8.0 * omega
    eps = np.finfo(float).eps
    ref = _loop_residuals(params, table, omega)
    for rep, terms in (
            (check_mirror_relations(table, omega), 2.0),
            (check_evenness(table, omega), 2.0),
            (check_raman_symmetric_form(params, table, omega), raman_terms),
            (check_raman_steady_table(params, table, omega), raman_terms)):
        res = ref[rep.identity]
        assert rep.n_points == res.size, rep.identity
        assert abs(rep.max_residual - np.max(res)) <= 4 * eps * terms, \
            rep.identity
