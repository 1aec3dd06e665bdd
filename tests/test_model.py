import numpy as np
import pytest

import hfs
from hfs.model import (AS_PRINTED, GAMMA_CONSISTENT, pack, unpack,
                       validate_density_matrix)
from hfs.params import bare_rabi, gamma_set


def random_density_matrix(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(rng)
    assert np.allclose(unpack(pack(rho)), rho, atol=1e-15)
    x = rng.normal(size=16)
    assert np.allclose(pack(unpack(x)), x, atol=1e-15)
    r = unpack(x)
    assert np.max(np.abs(r - r.conj().T)) == 0.0
    # a trailing batch axis gives exactly the per-state results
    rhos = np.stack([random_density_matrix(rng) for _ in range(5)], axis=-1)
    xs = rng.normal(size=(16, 5))
    assert pack(rhos).shape == (16, 5) and unpack(xs).shape == (4, 4, 5)
    for k in range(5):
        assert np.array_equal(pack(rhos)[:, k], pack(rhos[..., k]))
        assert np.array_equal(unpack(xs)[..., k], unpack(xs[:, k]))


def ref_unpack(x):
    """``unpack`` before it became one ``take``: assignment by index."""
    from hfs.model import _DIAG, _LOWER, _UPPER
    x = np.asarray(x)
    rho = np.zeros((4, 4) + x.shape[1:], dtype=complex)
    rho[_DIAG, _DIAG] = x[0:4]
    c = x[4::2] + 1j * x[5::2]
    rho[_LOWER] = c
    rho[_UPPER] = c.conjugate()
    return rho


@pytest.mark.parametrize("shape", [(16,), (16, 1), (16, 7)])
def test_unpack_matches_pre_change_build(shape):
    # byte for byte, signed zeros, NaN and infinities included
    rng = np.random.default_rng(83)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.25])
    for _ in range(50):
        x = rng.normal(size=shape)
        mask = rng.random(shape) < 0.6
        x[mask] = rng.choice(special, size=int(mask.sum()))
        # 1j * inf has a NaN real part, in both builds
        with np.errstate(invalid="ignore"):
            got, ref = unpack(x), ref_unpack(x)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


class TestHamiltonian:

    def test_as_printed_diagonal_no_drive(self):
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=0.0, delta_c=-p.delta_u)      # delta = 0
        h = hfs.hamiltonian(p, d, bare_rabi(p, d), AS_PRINTED)
        assert np.allclose(np.diag(h), [0.0, p.delta_g, 0.0, p.delta_e])

    def test_gamma_consistent_diagonal_no_drive(self):
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=0.0, delta_c=-p.delta_u)
        h = hfs.hamiltonian(p, d, bare_rabi(p, d), GAMMA_CONSISTENT)
        assert np.allclose(np.diag(h), [0.0, p.delta_g, p.delta_g,
                                        p.delta_g + p.delta_e])

    def test_couplings(self):
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=1.0)
        h = hfs.hamiltonian(p, d, bare_rabi(p, d))
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert h[i, j] == 1.0
            assert h[j, i] == 1.0
        assert h[0, 1] == 0.0 and h[2, 3] == 0.0
        assert np.allclose(h, h.T)

    def test_unknown_convention(self):
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=1.0)
        with pytest.raises(ValueError):
            hfs.hamiltonian(p, d, bare_rabi(p, d), "bogus")


class TestGenerators:

    @pytest.mark.parametrize("rhs", [hfs.rhs_verbatim, hfs.rhs_oracle])
    def test_ground_state_dark_without_drive(self, rhs):
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=0.0)
        assert np.max(np.abs(rhs(p, d, hfs.ground_state()))) == 0.0

    @pytest.mark.parametrize("rhs", [hfs.rhs_verbatim, hfs.rhs_oracle])
    def test_excited_state_decay_rates(self, rhs):
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=0.0)
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        drho = rhs(p, d, rho)
        assert drho[2, 2].real == pytest.approx(-2.0)
        assert drho[0, 0].real == pytest.approx(1.0)
        assert drho[1, 1].real == pytest.approx(1.0)

    @pytest.mark.parametrize("rhs", [hfs.rhs_verbatim, hfs.rhs_oracle])
    def test_trace_and_hermiticity_preserved(self, rhs):
        p = hfs.sodium_d1()
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_density_matrix(rng)
            for ndd in (False, True):
                d = hfs.Drive(omega=5.0, delta_c=30.0, ndd_enabled=ndd)
                drho = rhs(p, d, rho)
                assert abs(np.trace(drho)) < 1e-13
                assert np.max(np.abs(drho - drho.conj().T)) < 1e-14

    def test_verbatim_equals_oracle_on_random_states(self):
        # the core transcription check: 1000 random Hermitian unit-trace
        # states, local-field correction off and on
        p = hfs.sodium_d1()
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(1000):
            rho = random_density_matrix(rng)
            for ndd in (False, True):
                d = hfs.Drive(omega=5.0, delta_c=0.7 * p.delta_u,
                              ndd_enabled=ndd)
                diff = np.max(np.abs(hfs.rhs_verbatim(p, d, rho)
                                     - hfs.rhs_oracle(p, d, rho)))
                worst = max(worst, diff)
        assert worst < 1e-12

    def test_verbatim_on_stack_matches_per_state(self):
        rng = np.random.default_rng(21)
        # dyadic states and coefficients: every product is exact, so the
        # stack must reproduce the per-state calls bit for bit
        p = hfs.SystemParams(delta_g=24.0, delta_e=3.0)
        d = hfs.Drive(omega=2.0, delta_c=0.5)
        rabi = bare_rabi(p, d)
        rhos = unpack(rng.integers(-8, 9, size=(16, 6)) / 8.0)
        out = hfs.rhs_verbatim(p, d, rhos, rabi=rabi)
        for k in range(6):
            assert np.array_equal(
                out[..., k], hfs.rhs_verbatim(p, d, rhos[..., k], rabi=rabi))
        # general states: numpy's vectorised complex product may round
        # differently from its scalar one, by at most an ulp of the terms
        p = hfs.sodium_d1()
        d = hfs.Drive(omega=5.0, delta_c=0.7 * p.delta_u)
        rabi = bare_rabi(p, d)
        coef = max([abs(g) for g in vars(gamma_set(p, d.delta(p))).values()]
                   + [rabi.max_abs(), 2.0])
        rhos = np.stack([random_density_matrix(rng) for _ in range(20)],
                        axis=-1)
        out = hfs.rhs_verbatim(p, d, rhos, rabi=rabi)
        tol = 8 * np.finfo(float).eps * coef * np.max(np.abs(rhos))
        for k in range(20):
            ref = hfs.rhs_verbatim(p, d, rhos[..., k], rabi=rabi)
            assert np.max(np.abs(out[..., k] - ref)) <= tol

    def test_generator_affine_in_couplings(self):
        # A(rabi) = A(0) + sum_q rabi_q B_q exactly, with one basis B for all
        # parameters and detunings (the couplings carry pure-number
        # coefficients), including zeroed dipole multipliers and decay rates
        from hfs.params import PAIRS, effective_rabi
        from hfs.steady import _COUPLINGS, _basis, generator_matrix
        basis = _basis()[_COUPLINGS]
        assert basis.shape == (4, 16, 16) and not basis.flags.writeable
        rng = np.random.default_rng(2024)
        zero = hfs.RabiSet(0.0, 0.0, 0.0, 0.0)
        for _ in range(200):
            gam = rng.uniform(0.0, 3.0, 4) * (rng.random(4) < 0.8)
            mu = rng.uniform(-2.0, 2.0, 4) * (rng.random(4) < 0.8)
            p = hfs.SystemParams(
                gamma31=gam[0], gamma32=gam[1], gamma41=gam[2],
                gamma42=gam[3], mu13=mu[0], mu14=mu[1], mu23=mu[2],
                mu24=mu[3], delta_g=rng.uniform(1.0, 200.0),
                delta_e=rng.uniform(1.0, 50.0))
            eps = dict(zip(PAIRS, rng.uniform(0.0, 2.0, 4)))
            d = hfs.Drive(omega=rng.uniform(0.0, 100.0),
                          delta_c=rng.uniform(-5.0, 5.0) * p.delta_u,
                          ndd_enabled=True, epsilon=eps)
            rabi = effective_rabi(p, d, random_density_matrix(rng))
            split = generator_matrix(p, d, zero) + sum(
                r * b for r, b in zip(rabi.as_dict().values(), basis))
            assert np.array_equal(generator_matrix(p, d, rabi), split)

    def test_two_level_block_reduces_to_bloch_equations(self):
        # decoupled {|1>,|3>} block: generator restricted to that block must
        # match the standard two-level optical Bloch right-hand side
        p = hfs.SystemParams(gamma31=1.0, gamma32=0.0, gamma41=0.0,
                             gamma42=0.0, mu14=0.0, mu23=0.0, mu24=0.0)
        om, delta = 1.3, 4.2                    # detuning from the 3-1 line
        d = hfs.Drive(omega=om, delta_c=delta + p.delta_g - p.delta_u)
        rng = np.random.default_rng(3)
        for _ in range(20):
            r33 = rng.uniform(0, 1)
            c = (rng.normal() + 1j * rng.normal()) * 0.2
            rho = np.zeros((4, 4), dtype=complex)
            rho[0, 0] = 1.0 - r33
            rho[2, 2] = r33
            rho[2, 0] = c
            rho[0, 2] = np.conj(c)
            drho = hfs.rhs_verbatim(p, d, rho)
            # dr33/dt = -gamma r33 - 2 om Im(rho31)
            assert drho[2, 2].real == pytest.approx(
                -r33 - 2.0 * om * c.imag, abs=1e-12)
            # dr31/dt = (i delta - 1/2) rho31 - i om (rho11 - rho33)
            expect = (1j * delta - 0.5) * c - 1j * om * (1.0 - 2.0 * r33)
            assert drho[2, 0] == pytest.approx(expect, abs=1e-12)


class TestValidateDensityMatrix:

    def test_maximally_mixed(self):
        rep = validate_density_matrix(np.eye(4) / 4.0)
        assert rep.hermiticity_defect == 0.0
        assert rep.trace_defect == 0.0
        assert rep.min_eigenvalue == pytest.approx(0.25)
        assert rep.ok

    def test_pure_ground(self):
        rep = validate_density_matrix(hfs.ground_state())
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-15)
        assert rep.ok

    def test_positivity_violation_reported(self):
        rho = hfs.ground_state()
        rho[0, 1] = rho[1, 0] = 0.6          # exceeds sqrt(rho11 rho22)
        rep = validate_density_matrix(rho)
        assert rep.min_eigenvalue < 0.0
        assert not rep.positive
        assert rep.hermitian and rep.unit_trace
