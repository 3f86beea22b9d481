"""Tests for the top-level public API surface."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

_SUBMODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith(".__main__")
)


class TestPublicExports:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    # Every module's __all__, so an export left behind by a deletion fails
    # under the name of the module that still lists it.
    @pytest.mark.parametrize("module_name", _SUBMODULES)
    def test_module_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} declares no __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{name} listed in {module_name}.__all__ but missing"

    @pytest.mark.parametrize("package_name", ["repro", "repro.experiments"])
    def test_lazy_exports_are_listed(self, package_name):
        # Each name resolves through test_module_all_names_resolve.
        package = importlib.import_module(package_name)
        lazy = set(package._LAZY_EXPORTS)
        assert lazy == set(package.__all__) - {"__version__"}
        assert lazy <= set(dir(package))

    @pytest.mark.parametrize("package_name", ["repro", "repro.experiments"])
    def test_unknown_attribute_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name

    def test_paper_code_set_contents(self):
        codes = repro.paper_code_set()
        names = [code.name for code in codes]
        assert names == ["w/o ECC", "H(71,64)", "H(7,4)"]

    def test_designer_is_constructible_from_top_level(self):
        designer = repro.OpticalLinkDesigner()
        point = designer.design_point(repro.HammingCode(3), 1e-9)
        assert point.feasible

    def test_exceptions_share_base_class(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.InfeasibleDesignError, repro.ReproError)
        assert issubclass(repro.LaserPowerExceededError, repro.ReproError)

    def test_get_code_from_top_level(self):
        code = repro.get_code("H(7,4)")
        assert (code.n, code.k) == (7, 4)

    def test_default_config_exposed(self):
        assert repro.DEFAULT_CONFIG.num_onis == 12


class TestExceptionBehaviour:
    def test_laser_power_exceeded_carries_values(self):
        error = repro.LaserPowerExceededError(required_w=800e-6, maximum_w=700e-6)
        assert error.required_w == pytest.approx(800e-6)
        assert error.maximum_w == pytest.approx(700e-6)
        assert "700" in str(error)
