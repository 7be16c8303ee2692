"""The package namespace is exactly the union of its modules' exports."""
import abmgrid
from abmgrid import eos, integrator, poly, quadrature, tov


def test_package_exports_are_the_module_exports():
    modules = (quadrature, integrator, poly, eos, tov)
    expected = {"__version__"}.union(*(module.__all__ for module in modules))
    assert len(abmgrid.__all__) == len(set(abmgrid.__all__))
    assert set(abmgrid.__all__) == expected
    for name in abmgrid.__all__:
        assert hasattr(abmgrid, name), name
    for module in modules:
        for name in module.__all__:
            assert getattr(abmgrid, name) is getattr(module, name), name
