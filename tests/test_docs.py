"""README names that point into the code."""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
ROADMAP = README.parent / "ROADMAP.md"
MODULES = ("search", "graphs", "intsets", "topology", "oracle", "labelings", "cli")
NAME = re.compile(rf"`({'|'.join(MODULES)})\.(\w+(?:\.\w+)*)")
TEST_REF = re.compile(r"tests/(\w+\.py)((?:::\w+)+)")


def test_backticked_module_names_resolve():
    # a rename that leaves README naming a function that is gone fails here
    names = sorted(set(NAME.findall(README.read_text(encoding="utf-8"))))
    assert len(names) >= 10
    missing = []
    for module, dotted in names:
        target = importlib.import_module(f"iasl_lab.{module}")
        for part in dotted.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(f"{module}.{dotted}")
    assert missing == []


def test_test_references_resolve():
    # a renamed test class leaves README's claims pointing at nothing:
    # each tests/<file>.py::<Name> must be a class or function of that file
    refs = sorted(set(TEST_REF.findall(README.read_text(encoding="utf-8"))))
    assert len(refs) >= 6
    missing = []
    for file, names in refs:
        path = README.parent / "tests" / file
        body = (ast.parse(path.read_text(encoding="utf-8")).body
                if path.is_file() else [])
        for name in names.split("::")[1:]:
            node = next((d for d in body
                         if isinstance(d, (ast.ClassDef, ast.FunctionDef))
                         and d.name == name), None)
            if node is None:
                missing.append(f"tests/{file}{names}")
                break
            body = node.body
    assert missing == []


def test_tracked_line_count_is_current():
    # the north star tracks `wc -l src/iasl_lab/*.py` as "... it is N now";
    # a change to src/ that leaves N behind fails here
    claims = re.findall(r"\bit is\s+([\d,]+)\s+now\b",
                        ROADMAP.read_text(encoding="utf-8"))
    assert len(claims) == 1
    lines = sum(path.read_bytes().count(b"\n")
                for path in (README.parent / "src" / "iasl_lab").glob("*.py"))
    assert int(claims[0].replace(",", "")) == lines
