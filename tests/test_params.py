import numpy as np
import pytest

import hfs
from hfs.params import TWO_PI, derive_epsilon, gamma_set


def test_delta_u_is_exact_mean():
    p = hfs.sodium_d1()
    assert p.delta_u == 0.5 * (p.delta_g + p.delta_e)


def test_delta_u_in_mhz():
    p = hfs.sodium_d1()
    delta_u_mhz = p.delta_u * p.gamma_ref / (TWO_PI * 1e6)
    assert delta_u_mhz == pytest.approx(980.25, rel=1e-9)


def test_invariants_rejected():
    with pytest.raises(ValueError):
        hfs.SystemParams(gamma31=-0.1)
    with pytest.raises(ValueError):
        hfs.SystemParams(delta_g=0.0)
    with pytest.raises(ValueError):
        hfs.SystemParams(number_density=-1.0)
    with pytest.raises(ValueError):
        hfs.Drive(omega=-1.0)
    for bad in (float("nan"), float("inf")):
        for kw in ({"gamma31": bad}, {"delta_e": bad}, {"mu13": bad},
                   {"number_density": bad}, {"dipole_moment": bad}):
            with pytest.raises(ValueError):
                hfs.SystemParams(**kw)
        with pytest.raises(ValueError):
            hfs.Drive(omega=bad)
        with pytest.raises(ValueError):
            hfs.Drive(omega=1.0, delta_c=bad)
        with pytest.raises(ValueError):
            hfs.Drive(omega=1.0, epsilon=dict.fromkeys(
                ("13", "14", "23", "24"), bad))


@pytest.mark.parametrize("epsilon", [
    3.0, ["13", "14", "23", "24"], {"13": 1.0},
    {"13": "1", "14": 0.0, "23": 0.0, "24": 0.0},
    {"13": None, "14": 0.0, "23": 0.0, "24": 0.0},
    {"13": 1j, "14": 0.0, "23": 0.0, "24": 0.0},
    {"13": True, "14": 0.0, "23": 0.0, "24": 0.0},
    {"13": -1.0, "14": 0.0, "23": 0.0, "24": 0.0}])
def test_bad_epsilon_raises_value_error(epsilon):
    # not a mapping with the four pair keys, or a value that is not a
    # real number (a bool is not one): ValueError, never TypeError
    with pytest.raises(ValueError, match="epsilon"):
        hfs.Drive(omega=1.0, epsilon=epsilon)


def test_numpy_real_epsilon_accepted():
    eps = {"13": np.float64(2.0), "14": np.int64(1), "23": 0, "24": 0.5}
    assert hfs.Drive(omega=1.0, epsilon=eps).epsilon is eps


@pytest.mark.parametrize("kw", [
    {"omega": "5"}, {"omega": None}, {"omega": True}, {"omega": 1j},
    {"omega": 1.0, "delta_c": None}, {"omega": 1.0, "delta_c": "0"},
    {"omega": 1.0, "delta_c": False}],
    ids=["omega-str", "omega-none", "omega-bool", "omega-complex",
         "delta_c-none", "delta_c-str", "delta_c-bool"])
def test_non_real_drive_raises_value_error(kw):
    # a str or None failed math.isfinite with TypeError, and True ran as 1.0
    with pytest.raises(ValueError, match="real numbers"):
        hfs.Drive(**kw)


def test_numpy_real_drive_accepted():
    drive = hfs.Drive(omega=np.float64(2.0), delta_c=np.int64(-3))
    assert drive.omega == 2.0 and drive.delta_c == -3


class TestEpsilon:

    def test_zero_density(self):
        p = hfs.sodium_d1().replace(number_density=0.0)
        assert all(v == 0.0 for v in derive_epsilon(p).values())

    def test_sodium_value(self):
        # direct evaluation of N mu^2 / (3 eps0 hbar) with CODATA constants:
        # 1.5e20 * (21.1165e-30)^2 / (3 * 8.8541878128e-12 * 1.054571817e-34)
        # = 2.38809e7 rad/s = 0.389367 gamma
        eps = derive_epsilon(hfs.sodium_d1())
        for pair in ("13", "14", "23", "24"):
            assert eps[pair] == pytest.approx(0.3893671435, rel=1e-9)
        eps_si = eps["13"] * hfs.sodium_d1().gamma_ref
        assert eps_si == pytest.approx(2.388e7, rel=1e-3)

    def test_linear_in_density(self):
        p = hfs.sodium_d1()
        p2 = p.replace(number_density=2.0 * p.number_density)
        assert derive_epsilon(p2)["13"] == pytest.approx(
            2.0 * derive_epsilon(p)["13"], rel=1e-14)

    def test_mu_multiplier_enters_squared(self):
        p = hfs.sodium_d1().replace(mu14=0.5)
        eps = derive_epsilon(p)
        assert eps["14"] == pytest.approx(0.25 * eps["13"], rel=1e-14)


class TestEffectiveRabi:

    def test_ndd_off_is_bare(self):
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=5.0, ndd_enabled=False)
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        rabi = hfs.effective_rabi(p, d, rho)
        assert rabi.as_dict() == {k: 5.0 for k in ("13", "14", "23", "24")}

    def test_ndd_on_zero_coherence(self):
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=5.0, ndd_enabled=True)
        rabi = hfs.effective_rabi(p, d, hfs.ground_state())
        for v in rabi.as_dict().values():
            assert v == 5.0

    def test_ndd_shift_value(self):
        p = hfs.sodium_d1()
        eps = {k: 0.389 for k in ("13", "14", "23", "24")}
        d = hfs.Drive(omega=5.0, ndd_enabled=True, epsilon=eps)
        rho = hfs.ground_state()
        rho[0, 2] = rho[2, 0] = 0.1
        rabi = hfs.effective_rabi(p, d, rho)
        assert rabi.o13 == pytest.approx(5.0 - 0.389 * 0.1, abs=1e-15)
        assert rabi.o14 == 5.0

    def test_affine_in_coherence(self):
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=5.0, ndd_enabled=True)
        eps = d.epsilon_for(p)["13"]
        vals = []
        for re13 in (0.0, 0.1, 0.25):
            rho = hfs.ground_state()
            rho[0, 2] = rho[2, 0] = re13
            vals.append(hfs.effective_rabi(p, d, rho).o13)
        assert vals[1] - vals[0] == pytest.approx(-eps * 0.1, rel=1e-12)
        assert vals[2] - vals[0] == pytest.approx(-eps * 0.25, rel=1e-12)


def test_gamma_set_structure():
    p = hfs.sodium_d1()
    gs = gamma_set(p, delta=37.5)
    ge3 = 0.5 * (p.gamma31 + p.gamma32)
    ge4 = 0.5 * (p.gamma41 + p.gamma42)
    assert gs.g21.real == 0.0                      # no ground dephasing
    assert gs.g21 == -1j * p.delta_g
    assert gs.g31.real == -ge3
    assert gs.g32.real == -ge3
    assert gs.g41.real == -ge4
    assert gs.g42.real == -ge4
    assert gs.g43.real == -(ge3 + ge4)
    for g in (gs.g31, gs.g32, gs.g41, gs.g42, gs.g43):
        assert g.real <= 0.0
    assert gs.g31.imag == pytest.approx(37.5 - p.delta_g)
    assert gs.g32.imag == pytest.approx(37.5)
    assert gs.g41.imag == pytest.approx(37.5 - p.delta_g - p.delta_e)
    assert gs.g42.imag == pytest.approx(37.5 - p.delta_e)
    assert gs.g43.imag == pytest.approx(-p.delta_e)


def test_cyclic_splitting_variant():
    p = hfs.sodium_d1_cyclic_splittings()
    assert p.delta_g == pytest.approx(1771.62 / (TWO_PI * 9.76), rel=1e-12)
    assert p.delta_u == pytest.approx(hfs.sodium_d1().delta_u / TWO_PI,
                                      rel=1e-12)
