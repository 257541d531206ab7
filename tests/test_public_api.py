"""Public API surface tests.

These tests pin down the package's public interface: every name exported via
``__all__`` must resolve, every public module / class / function must carry a
docstring, and the top-level convenience imports advertised in the README
must exist.  They protect downstream users from silent API breakage.
"""

import importlib
import inspect

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.hdc",
    "repro.hdc.hypervector",
    "repro.hdc.similarity",
    "repro.hdc.encoders",
    "repro.hdc.clustering",
    "repro.hdc.memory_model",
    "repro.hdc.packed",
    "repro.data",
    "repro.data.datasets",
    "repro.data.synthetic",
    "repro.baselines",
    "repro.baselines.base",
    "repro.baselines.basic_hdc",
    "repro.baselines.quanthd",
    "repro.baselines.searchd",
    "repro.baselines.lehdc",
    "repro.baselines.onlinehd",
    "repro.core",
    "repro.core.config",
    "repro.core.associative_memory",
    "repro.core.initialization",
    "repro.core.quantization",
    "repro.core.training",
    "repro.core.model",
    "repro.core.online",
    "repro.core.compression",
    "repro.imc",
    "repro.imc.array",
    "repro.imc.mapping",
    "repro.imc.cost_model",
    "repro.imc.simulator",
    "repro.imc.noise",
    "repro.imc.adc",
    "repro.imc.scheduler",
    "repro.imc.analysis",
    "repro.runtime",
    "repro.runtime.pipeline",
    "repro.eval",
    "repro.eval.metrics",
    "repro.eval.experiments",
    "repro.eval.reporting",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize(
    "module_name",
    [
        "repro",
        "repro.hdc",
        "repro.data",
        "repro.baselines",
        "repro.core",
        "repro.imc",
        "repro.runtime",
        "repro.eval",
    ],
)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__") and module.__all__
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name!r}"


def test_top_level_convenience_imports():
    assert repro.MEMHDModel is not None
    assert repro.MEMHDConfig is not None
    assert repro.load_dataset is not None
    assert repro.InMemoryInference is not None
    assert isinstance(repro.__version__, str)


def _public_members(module):
    for name in getattr(module, "__all__", []):
        member = getattr(module, name)
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize(
    "module_name",
    ["repro.hdc", "repro.data", "repro.baselines", "repro.core", "repro.imc", "repro.eval"],
)
def test_public_classes_and_functions_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    for name, member in _public_members(module):
        assert member.__doc__ and member.__doc__.strip(), (
            f"{module_name}.{name} lacks a docstring"
        )


def test_classifiers_share_the_hdc_interface():
    from repro.baselines import BasicHDC, HDCClassifier, LeHDC, OnlineHD, QuantHD, SearcHD
    from repro.core import MEMHDModel

    for model_class in (BasicHDC, QuantHD, SearcHD, LeHDC, OnlineHD, MEMHDModel):
        assert issubclass(model_class, HDCClassifier)
        for method in ("fit", "predict", "score", "memory_report"):
            assert callable(getattr(model_class, method))
