"""The README's configuration table must list exactly the config fields,
its tape node counts must be the ones the model records, and every code
name it gives in backticks must exist: a dotted name whose first part it
can place, and every CamelCase name, bare or as that first part."""
import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import livlr
from livlr.config import PRECISIONS, QUESTION_SETTINGS, RI_VARIANTS, ModelConfig, tiny_config
from livlr.model import Model
from test_model import desk_batch_nodes

README = Path(__file__).resolve().parent.parent / "README.md"


def _config_table_tokens() -> set[str]:
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    assert rows, "no table under ## Configuration"
    return set(re.findall(r"`([^`]+)`", "\n".join(rows)))


def test_every_config_field_is_in_the_readme_table():
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    assert fields - _config_table_tokens() == set()


def test_readme_table_names_only_fields_and_their_values():
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    known |= set(RI_VARIANTS) | set(QUESTION_SETTINGS) | set(PRECISIONS)
    assert _config_table_tokens() - known == set()


def test_readme_node_counts_match_a_recorded_desk_forward():
    text = README.read_text(encoding="utf-8")
    found = re.findall(r"batch records (\d+) nodes under OE and (\d+)\s+under\s+MC", text)
    assert len(found) == 1, found
    oe, mc = (int(v) for v in found[0])
    assert desk_batch_nodes("OE") == [oe, oe]
    assert desk_batch_nodes("MC") == [mc, mc]


# a backticked name, bare or dotted, with an optional call "(...)" or ".*"
# after it
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\)|\.\*)?")
# a class name, such as GraphBatch, or a builtin, such as None or KeyError
_CAMEL = re.compile(r"[A-Z][a-z]\w*")
_MODULES = {m.name for m in pkgutil.iter_modules(livlr.__path__)}


def _readme_names() -> set[str]:
    tokens = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    return {m.group(1) for m in map(_NAME.fullmatch, tokens) if m}


def _param_names() -> set[str]:
    return {name for setting in QUESTION_SETTINGS for variant in RI_VARIANTS
            for name in Model(tiny_config(question_setting=setting, ri_variant=variant)).store.names()}


def _owner(first: str):
    """The module, class or builtin a name's first part names, or None for
    a file name and the like."""
    if first == "livlr" or first in _MODULES:
        return importlib.import_module("livlr" if first == "livlr" else f"livlr.{first}")
    for mod in _MODULES:
        obj = getattr(importlib.import_module(f"livlr.{mod}"), first, None)
        if inspect.isclass(obj):
            return obj
    if (Path(__file__).parent / f"{first}.py").exists():
        return importlib.import_module(first)
    return getattr(builtins, first, None)


def _has(obj, attr: str) -> bool:
    """An attribute of a module or class, or a field or instance attribute
    that a class sets."""
    if hasattr(obj, attr):
        return True
    if not inspect.isclass(obj):
        return False
    if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
        return True
    return re.search(rf"\bself\.{attr}\s*=", inspect.getsource(obj)) is not None


def test_readme_code_names_exist():
    params = _param_names()
    checked, missing = 0, []
    for name in sorted(_readme_names()):
        first, *rest = name.split(".")
        obj = _owner(first)
        if obj is None:
            if _CAMEL.fullmatch(first) and not hasattr(builtins, first):
                missing.append(name)  # a class that no longer exists, say
            continue
        checked += 1
        if inspect.ismodule(obj) and any(p == name or p.startswith(name + ".") for p in params):
            continue  # a parameter-name prefix, such as visual.learner
        for attr in rest:
            if not _has(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr, None)
    assert checked >= 20, checked
    assert missing == []
