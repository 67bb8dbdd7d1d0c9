import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import hopfvar

MODULES = ["hopfvar"] + [f"hopfvar.{info.name}" for info in pkgutil.iter_modules(hopfvar.__path__)]


def test_every_exported_name_resolves():
    # a deleted name must leave __all__ too
    missing, exported = [], 0
    for info in pkgutil.iter_modules(hopfvar.__path__):
        module = importlib.import_module(f"hopfvar.{info.name}")
        for name in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert exported and not missing, missing


def test_package_reexports_are_listed():
    # every name hopfvar/__init__ imports from a module with an __all__ is listed there
    tree = ast.parse(Path(hopfvar.__file__).read_text())
    unlisted, checked = [], 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        module = importlib.import_module(f"hopfvar.{node.module}")
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        for alias in node.names:
            checked += 1
            if alias.name not in listed:
                unlisted.append(f"{module.__name__}.{alias.name}")
    assert checked and not unlisted, unlisted


@pytest.mark.parametrize("name", MODULES)
def test_doctest_examples(name):
    # the >>> examples of every module's docstrings run and hold
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, result


def test_oracles_import_nothing_from_the_package():
    # an oracle that shared code or constants with the package could not
    # catch the package's mistakes
    tree = ast.parse((Path(__file__).parent / "_oracles.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert imported and "hopfvar" not in imported, imported


def test_ffcount_imports_only_the_field_policy_from_the_package():
    # the F_q count checks the symbolic routes, so it may share the rank,
    # twist and field policy of strata and nothing else
    tree = ast.parse(Path(importlib.import_module("hopfvar.ffcount").__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "hopfvar"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "hopfvar"):
            module = (node.module or "").removeprefix("hopfvar").lstrip(".")
            imported |= {(module, alias.name) for alias in node.names}
    assert imported == {("strata", name) for name in (
        "check_rank", "check_twists", "admissibility_modulus", "is_admissible")}, imported


@pytest.mark.parametrize("module", ["hopfvar", "hopfvar.strata"])
def test_oracle_names_left_the_package(module):
    # the configuration-space point counter and its helpers live with the
    # test oracles, and commutant_dimension was len(commutant_basis(M))
    gone = ("count_config_points", "smallest_admissible_prime", "is_prime",
            "commutant_dimension")
    present = [name for name in gone if hasattr(importlib.import_module(module), name)]
    assert not present, present


@pytest.mark.parametrize("name", [
    "config_epoly_plain", "equivariant_pgl_piece", "equivariant_stab_piece", "char_pieces",
    "trivial", "t_component", "S2_ONE", "S3_ONE", "_equivariant_pieces", "from_quotients",
    "tau_quotient"])
def test_second_spellings_left_the_package(name):
    # each table has one reader: config_epoly(sigma, None, n), geom._stratum_row
    # indexing geom._EQUIVARIANT, char_piece_epoly over PIECES, S2Elem(e) /
    # S3Elem(e), .t, S2Elem(1) / S3Elem(1); an equivariant class is built from
    # its coefficients alone, and its transposition quotient is x.t + x.d
    holders = [importlib.import_module(module) for module in MODULES]
    holders += [hopfvar.S2Elem, hopfvar.S3Elem]
    present = [getattr(h, "__name__", h) for h in holders if hasattr(h, name)]
    assert not present, present


@pytest.mark.parametrize("name", [
    "class_representatives", "class_size", "sl_order", "identity", "det", "rank"])
def test_count_helpers_left_the_package(name):
    # the count has one class enumeration (_orbit_visits), one class size (its
    # key-typed centralizer table) and one |SL_r(F_q)|
    # (special_linear_epoly(r).evaluate(q)), and FqMatrix keeps what it calls
    holders = [importlib.import_module(module) for module in MODULES] + [hopfvar.FqMatrix]
    present = [getattr(h, "__name__", h) for h in holders if hasattr(h, name)]
    assert not present, present


@pytest.mark.parametrize("holder, name", [
    ("charvar", "_twist_basis"), ("geom", "_at"), ("strata", "_at"), ("Poly", "exact_div")])
def test_second_twist_readers_left_the_package(holder, name):
    # every symbolic table is read on strata.twist_basis through
    # strata.twist_sum, and no formula halves a Poly
    assert not hasattr(getattr(hopfvar, holder), name)
