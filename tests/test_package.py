import types

import cryptodiv
from cryptodiv import models


def test_the_package_root_exports_only_fit_forest():
    # callers import the modules; perfbench's tracer checks the root's fit_forest
    public = {name for name, value in vars(cryptodiv).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"fit_forest"}
    assert cryptodiv.fit_forest is models.fit_forest
    assert not hasattr(cryptodiv, "__version__")
