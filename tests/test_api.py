"""The public surface: annote_kb.__all__ and the modules that declare it."""

import ast
import importlib
import pathlib
import pkgutil

import annote_kb

# annote_kb.__all__ as it stood when each module came to declare its own
# part of it; `from annote_kb import X` keeps working for every one.
PUBLIC = [
    "ActionKind",
    "AllUnresolvedError",
    "And",
    "AnnotationContext",
    "AnnotationMeta",
    "AnnotationObject",
    "AnnotatorProfile",
    "AnnotatorRole",
    "AnnoteKBError",
    "AttributeCandidate",
    "AttributeName",
    "AVPair",
    "Criterion",
    "CyclicTargetError",
    "Diagnostic",
    "DocumentRecord",
    "DocumentTier",
    "DuplicateIdError",
    "EmptyAttributeError",
    "EmptyTermError",
    "Explication",
    "Explicitness",
    "IMPORT_META",
    "InvalidIdError",
    "InvalidObjectError",
    "InvalidPairError",
    "KnowledgeBase",
    "Leaf",
    "LineBreakError",
    "LoadResult",
    "NoCandidatesError",
    "Not",
    "NotImplicitError",
    "Or",
    "QueryExpr",
    "QuerySyntaxError",
    "RewriteReport",
    "Term",
    "UnknownIdError",
    "UnresolvedCriterionError",
    "Value",
    "ValueCandidate",
    "as_value",
    "build_object",
    "classify",
    "evaluate",
    "explicate",
    "format_query",
    "infer_attributes",
    "infer_values",
    "is_explicit_pair",
    "load_facts",
    "load_facts_into",
    "make_pair",
    "matches",
    "normalize_attribute",
    "normalize_term",
    "parse_query",
    "rewrite_constrained",
    "save_facts",
    "search_constrained",
    "stored_list_rewrite",
]


def test_the_package_exports_each_public_name_once():
    assert sorted(annote_kb.__all__) == sorted(PUBLIC)
    namespace: dict = {}
    exec("from annote_kb import *", namespace)
    assert set(PUBLIC) <= namespace.keys()


def _defined(module) -> set[str]:
    """The names module's own top-level statements bind, imports left out."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_each_public_name_is_declared_by_the_one_module_that_defines_it():
    owner: dict[str, str] = {}
    for info in pkgutil.iter_modules(annote_kb.__path__):
        module = importlib.import_module(f"annote_kb.{info.name}")
        defined = _defined(module)
        for name in getattr(module, "__all__", ()):
            assert name in defined, (module.__name__, name)
            assert owner.setdefault(name, module.__name__) == module.__name__, name
            assert getattr(annote_kb, name) is getattr(module, name)
    assert sorted(owner) == sorted(annote_kb.__all__)
