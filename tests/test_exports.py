"""plyap exports exactly its modules' public names and its error classes."""

import importlib
import pkgutil
import types

import pytest

import plyap
from plyap import errors

MODULES = [
    importlib.import_module(f"plyap.{info.name}") for info in pkgutil.iter_modules(plyap.__path__)
]


def test_exports_are_the_modules_all_and_the_errors():
    listed = {name for module in MODULES for name in getattr(module, "__all__", ())}
    error_classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.PlyapError)
    }
    exported = {
        name for name, value in vars(plyap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == listed | error_classes


@pytest.mark.parametrize(
    "name",
    ["koopman_step", "split_operator_propagate", "plan_split_grid", "gaussian_on_grid",
     "barrier_overlap_paper", "DomainOverflowError", "selftest", "trajectory_lyapunov",
     "apply_map", "linear_map", "rotation_map", "fubini_study_distance", "hilbert_distance",
     "bounded_euclidean_distance", "classical_divergence", "NumericalOverflowError"],
)
def test_test_oracles_stay_out_of_the_package(name):
    assert all(not hasattr(module, name) for module in [plyap, *MODULES])
