"""The benchmark's span tracer replaces library functions by name.

``bench/tracing.py`` maps each span to a layer function and the modules
whose attribute of the same name it swaps for a timing wrapper.  These
tests load that file as it stands and check its names against the
library, so removing or rebinding a traced function fails here rather
than silently breaking ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import limachor

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


SUBMODULES = [importlib.import_module(f"limachor.{info.name}")
              for info in pkgutil.iter_modules(limachor.__path__)]


def test_span_names_a_function_of_its_layer():
    for span, (fn, _, _) in load_layers().items():
        layer, name = span.split(".")
        assert fn.__name__ == name, span
        assert getattr(importlib.import_module(f"limachor.{layer}"), name) is fn, span


def test_listed_modules_bind_the_traced_function():
    # A listed module without the name only gains an attribute nothing
    # calls; one that binds the name to something else would be traced
    # in place of the library function.
    for span, (fn, modules, _) in load_layers().items():
        for module in modules:
            assert getattr(module, fn.__name__, fn) is fn, (span, module.__name__)


def test_every_module_calling_by_name_is_listed():
    # A module that imported the function by name calls its own binding,
    # which the tracer only replaces if the module is listed.
    for span, (fn, modules, _) in load_layers().items():
        binders = {m.__name__ for m in SUBMODULES if getattr(m, fn.__name__, None) is fn}
        assert binders <= {m.__name__ for m in modules}, span
