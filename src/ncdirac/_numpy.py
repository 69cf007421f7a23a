"""numpy for the float layers, loaded on first attribute access.

The exact engine never touches a float, so ``import ncdirac`` registers a
lazy numpy module and the first float call pays its import.  If numpy is
already imported, that module is used as it is."""

import importlib.util
import sys


def _lazy_numpy():
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = sys.modules["numpy"] if "numpy" in sys.modules else _lazy_numpy()
