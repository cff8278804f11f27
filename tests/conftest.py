import pytest

from phczeeman import (
    ExperimentConfig,
    LatticeSpec,
    RotationSpec,
    derive_params,
    t_point_analysis,
)

# Reference parameter sets used throughout: the band-structure lattice
# (dphi = 0.02) and the weak-contrast splitting lattice (dphi = 1e-4).


@pytest.fixture(scope="session")
def bands_lattice():
    return LatticeSpec(lambda_vac=960e-9, n_refr=3.53, pitch=4e-6,
                       fill_factor=0.65, dphi=0.02)


@pytest.fixture(scope="session")
def weak_lattice():
    return LatticeSpec(lambda_vac=960e-9, n_refr=3.53, pitch=4e-6,
                       fill_factor=0.65, dphi=1e-4)


@pytest.fixture(scope="session")
def bands_config(bands_lattice):
    return ExperimentConfig(lattice=bands_lattice, rotation=RotationSpec(0.0))


@pytest.fixture(scope="session")
def weak_config(weak_lattice):
    return ExperimentConfig(lattice=weak_lattice, rotation=RotationSpec(0.0))


@pytest.fixture(scope="session")
def bands_dp(bands_lattice):
    return derive_params(bands_lattice)


@pytest.fixture(scope="session")
def bands_t_analysis(bands_config):
    return t_point_analysis(bands_config.lattice,
                            bands_config.basis_halfwidth)


@pytest.fixture(scope="session")
def weak_t_analysis(weak_config):
    return t_point_analysis(weak_config.lattice,
                            weak_config.basis_halfwidth)


@pytest.fixture(scope="session")
def empty_config(bands_lattice):
    from dataclasses import replace
    return ExperimentConfig(lattice=replace(bands_lattice, dphi=0.0))
