import numpy as np
import pytest

import hfs
from hfs.optics import (ABSORPTION, ANOMALOUS, GAIN, NORMAL,
                        InsufficientPoints, ZeroField, classify)


@pytest.fixture
def params():
    return hfs.sodium_d1()


class TestSusceptibility:

    def test_value_from_coherence(self, params):
        drive = hfs.Drive(omega=2.0)
        eps = drive.epsilon_for(params)["13"]
        rho = hfs.ground_state()
        rho[2, 0] = 0.01 - 0.03j
        rho[0, 2] = np.conj(rho[2, 0])
        s = hfs.susceptibility(params, drive, rho, "31")
        pref = -3.0 * eps / (2.0 * 2.0)
        assert s.chi_re == pytest.approx(pref * 0.01, rel=1e-12)
        assert s.chi_im == pytest.approx(pref * -0.03, rel=1e-12)
        assert s.chi == complex(s.chi_re, s.chi_im)

    def test_stack_matches_single_states(self, params):
        # one (4, 4, K) stack gives, per state, what each state gives alone
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4, 5)) + 1j * rng.normal(size=(4, 4, 5))
        stack = m + np.conj(np.swapaxes(m, 0, 1))
        drive = hfs.Drive(omega=2.0)
        for tr in ("31", "41", "32", "42"):
            s = hfs.susceptibility(params, drive, stack, tr)
            assert s.chi_re.shape == s.chi_im.shape == (5,)
            for k in range(5):
                one = hfs.susceptibility(params, drive, stack[..., k], tr)
                assert (s.chi_re[k], s.chi_im[k]) == (one.chi_re,
                                                      one.chi_im)

    def test_resonant_two_level_absorbs(self):
        # driven on resonance the two-level reduction must show chi_im > 0
        from hfs.identities import two_level_reduction
        p = two_level_reduction()
        drive = hfs.Drive(omega=0.5, delta_c=p.delta_g - p.delta_u)
        rho = hfs.solve_selfconsistent(p, drive).rho
        s = hfs.susceptibility(p, drive, rho, "31")
        assert s.chi_im > 0.0

    def test_zero_field_raises(self, params):
        with pytest.raises(ZeroField):
            hfs.susceptibility(params, hfs.Drive(omega=0.0),
                               hfs.ground_state(), "31")

    def test_unknown_transition(self, params):
        with pytest.raises(ValueError):
            hfs.susceptibility(params, hfs.Drive(omega=1.0),
                               hfs.ground_state(), "12")


class TestRefractiveIndex:

    def test_vacuum(self):
        assert hfs.refractive_index(0.0) == 1.0

    def test_small_chi_expansion(self):
        chi = 1e-6 + 2e-6j
        assert hfs.refractive_index(chi) == pytest.approx(1.0 + 0.5e-6,
                                                          abs=1e-12)

    def test_principal_branch(self):
        # 1 + chi on the negative real axis: n = 0, not a sign flip
        assert hfs.refractive_index(-2.0) == 0.0

    def test_array_elementwise(self):
        chi = np.array([0.0, -2.0, 1e-6 + 2e-6j, np.nan])
        n = hfs.refractive_index(chi)
        assert n.dtype == float and n.shape == (4,)
        assert n[:3].tolist() == [hfs.refractive_index(c) for c in chi[:3]]
        assert np.isnan(n[3])


class TestGroupIndex:

    def test_linear_profile(self, params):
        # n = a + b*delta_c  ->  ng = n + omega0 * b / gamma_ref everywhere
        dc = np.linspace(-10.0, 10.0, 21)
        b = 1e-9
        n = 1.0 + b * dc
        ng, mask = hfs.group_index_profile(dc, n, params)
        expect = n + params.omega0 * b / params.gamma_ref
        assert np.allclose(ng, expect, rtol=1e-9)
        assert not mask.any()

    def test_nonuniform_grid_flagged(self, params):
        dc = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
        ng, mask = hfs.group_index_profile(dc, np.ones(5), params)
        assert mask[2] and mask[3]
        assert not mask[0] and not mask[-1]

    def test_too_few_points(self, params):
        with pytest.raises(InsufficientPoints):
            hfs.group_index_profile(np.array([0.0, 1.0]), np.ones(2), params)

    def test_non_monotonic_grid(self, params):
        with pytest.raises(ValueError):
            hfs.group_index_profile(np.array([0.0, 2.0, 1.0]), np.ones(3),
                                    params)


class TestClassification:

    def test_dispersion_labels(self):
        dc = np.linspace(-1, 1, 5)
        rising = 1.0 + 0.1 * dc
        assert classify(dc, rising, np.zeros(5))[0].tolist() == [NORMAL] * 5
        assert classify(dc, -rising, np.zeros(5))[0].tolist() == \
            [ANOMALOUS] * 5

    def test_line_labels(self):
        _, line = classify(np.linspace(-1, 1, 3), np.ones(3),
                           np.array([0.5, 0.0, -0.5]))
        assert line.tolist() == [ABSORPTION, ABSORPTION, GAIN]

    def test_classify_bundles(self, params):
        dc = np.linspace(-1, 1, 5)
        n = 1.0 + 0.1 * dc
        disp, line = classify(dc, n, np.full(5, -0.1))
        assert disp.dtype == object and line.dtype == object
        assert disp.shape == line.shape == (5,)
        assert all(type(v) is str for v in [*disp, *line])
        assert disp.tolist() == [NORMAL] * 5
        assert line.tolist() == [GAIN] * 5

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_flagged_point_masked(self, params, k):
        # a NaN point gets blank labels and NaN n_g; its neighbours are
        # labelled and differenced as if the point were not on the grid
        dc = np.linspace(-1.0, 1.0, 7)
        n = 1.0 + 1e-6 * np.sin(3.0 * dc)
        chi_im = np.cos(3.0 * dc)
        n_bad, chi_bad = n.copy(), chi_im.copy()
        n_bad[k] = chi_bad[k] = np.nan
        disp, line = classify(dc, n_bad, chi_bad)
        ng, mask = hfs.group_index_profile(dc, n_bad, params)
        keep = np.arange(7) != k
        assert disp[k] == line[k] == "" and np.isnan(ng[k])
        ref_disp, ref_line = classify(dc[keep], n[keep], chi_im[keep])
        assert disp[keep].tolist() == ref_disp.tolist()
        assert line[keep].tolist() == ref_line.tolist()
        ref_ng, ref_mask = hfs.group_index_profile(dc[keep], n[keep], params)
        assert np.array_equal(ng[keep], ref_ng)
        assert np.array_equal(mask[keep], ref_mask) and not mask[k]
        assert mask[keep].any() == (0 < k < 6)

    def test_all_points_flagged(self, params):
        nan = np.full(4, np.nan)
        disp, line = classify(np.arange(4.0), nan, nan)
        assert disp.tolist() == line.tolist() == [""] * 4
        assert np.isnan(hfs.group_index_profile(np.arange(4.0), nan,
                                                params)[0]).all()


def test_population_transfer():
    rho = np.diag([0.1, 0.6, 0.05, 0.25]).astype(complex)
    wg, we = hfs.population_transfer(rho)
    assert wg == pytest.approx(0.5)
    assert we == pytest.approx(0.2)
    stack = np.stack([rho, np.diag([0.7, 0.1, 0.2, 0.0])], axis=-1)
    wg, we = hfs.population_transfer(stack)
    assert np.allclose(wg, [0.5, -0.6]) and np.allclose(we, [0.2, -0.2])
