"""The package's public names: the same set, the same objects as in their
submodules, and bound by ``from flatdetect import *``; its submodules are
imported on first read, by every thread that reads one first."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatdetect

# submodule -> the names the package re-exports from it
PUBLIC = {
    "charforms": [
        "GridConnection", "IntegralityError", "MultiForm", "SIGN_CONVENTIONS",
        "UnderSampledLoopError", "chern_number", "numerical_curvature",
        "poincare_connection", "wedge", "winding_number", "xgen", "zgen",
    ],
    "detect": [
        "BasisClass", "DetectionError", "DetectionReport", "DirectProduct",
        "FiniteIndexSuper", "Free", "FreeAbelian", "FreeProduct", "GroupClass",
        "PresentationComplex", "SurfaceClosed", "betti_inequality_check",
        "bm_obstruction", "detection_matrix", "numeric_detection_report",
        "rational_homology", "slant_contract", "transfer_scaling_check",
    ],
    "families": [
        "DisjointUnionSpace", "Family", "FinitePointSet", "KleinBottleCover",
        "ParameterSpace", "ProductSpace", "SublatticeCover", "TorusGrid",
        "character_family_Zn", "circle_cover", "direct_sum", "disjoint_union",
        "extend_free_product", "holonomy_loop", "induce_family",
        "numeric_c1_windings", "pullback_family", "tensor_families",
        "trivial_family", "verify_family",
    ],
    "presentation": [
        "GroupPresentation", "PresentationError", "Word", "direct_product",
        "evaluate_word", "format_presentation", "free_abelian", "free_group",
        "free_reduce", "klein_bottle", "parse_presentation", "parse_word",
        "surface_group",
    ],
    "repvar": [
        "RepPoint", "SolveConfig", "SolveResult", "relator_defect",
        "solve_representation",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_submodules_and_their_public_names():
    assert len(NAMES) == 68
    assert sorted(flatdetect.__all__) == sorted([*PUBLIC, *(name for _, name in NAMES)])


def test_a_public_name_is_its_submodules_object():
    differ = [name for module, name in NAMES
              if getattr(flatdetect, name) is not getattr(
                  importlib.import_module(f"flatdetect.{module}"), name)]
    assert differ == []


def test_submodules_are_the_imported_modules():
    for module in PUBLIC:
        assert getattr(flatdetect, module) is importlib.import_module(f"flatdetect.{module}")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from flatdetect import *", namespace)
    assert set(flatdetect.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(flatdetect, name) for name in flatdetect.__all__)
    assert set(flatdetect.__all__) <= set(dir(flatdetect))


def test_a_patch_of_the_submodule_is_seen_through_the_package():
    presentation = importlib.import_module("flatdetect.presentation")
    original = presentation.free_reduce
    presentation.free_reduce = patched = lambda word: word
    try:
        assert flatdetect.free_reduce is patched
    finally:
        presentation.free_reduce = original
    assert flatdetect.free_reduce is original


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        flatdetect.no_such_name
    assert not hasattr(flatdetect, "no_such_name")


def _fresh(probe: str) -> str:
    """What ``probe`` prints in a fresh interpreter that imports this flatdetect."""
    env = {**os.environ, "PYTHONPATH": str(Path(flatdetect.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_registers_no_submodule():
    probe = ("import sys, flatdetect\n"
             "print(sorted(n for n in sys.modules if n.startswith('flatdetect.')))")
    assert _fresh(probe) == "[]\n"


# four threads read two submodules first, at once, right after the import;
# prints the errors they raised and how many threads are still running
_RACE = """
import sys, threading
import flatdetect
sys.setswitchinterval(1e-6)
barrier, failed = threading.Barrier(4, timeout=30), []
def read():
    barrier.wait()
    try:
        flatdetect.detect.detection_matrix, flatdetect.families.Family
    except Exception as exc:
        failed.append(repr(exc))
threads = [threading.Thread(target=read) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
print(failed, sum(t.is_alive() for t in threads))
"""


def test_threads_reading_a_submodule_first_all_see_it_imported():
    assert [_fresh(_RACE) for _ in range(5)] == ["[] 0\n"] * 5
