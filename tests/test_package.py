import types

import asympure


def test_all_lists_each_public_name_once():
    exported = asympure.__all__
    assert len(exported) == len(set(exported))
    public = {
        name for name, value in vars(asympure).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
    assert all(hasattr(asympure, name) for name in exported)
