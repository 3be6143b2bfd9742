import importlib
import pkgutil

import egf


def test_every_exported_name_exists():
    # a name left in an __all__ after its definition went breaks ``import *``
    modules = [egf, *(importlib.import_module(f"egf.{info.name}")
                      for info in pkgutil.iter_modules(egf.__path__))]
    missing = [(module.__name__, name) for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
