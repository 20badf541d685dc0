import types

import crepcond
from crepcond import crep, empirical, linalg, problems, tensor, tucker

MODULES = (crep, empirical, linalg, problems, tensor, tucker)


def test_public_names_are_the_modules_all():
    public = {
        name
        for name, value in vars(crepcond).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*(module.__all__ for module in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(crepcond, name) is getattr(module, name), name
