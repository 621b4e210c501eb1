import inspect

import excursionkit


def test_every_exported_name_resolves():
    assert len(set(excursionkit.__all__)) == len(excursionkit.__all__)
    for name in excursionkit.__all__:
        assert hasattr(excursionkit, name), name


def test_public_names_imported_from_submodules_are_exported():
    imported = {
        name
        for name, obj in vars(excursionkit).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.startswith("excursionkit.")
    }
    assert imported  # the package does import from its submodules
    assert sorted(imported - set(excursionkit.__all__)) == []
