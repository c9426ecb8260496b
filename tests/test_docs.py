"""README names that point into the code."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("search", "graphs", "intsets", "topology", "oracle", "labelings", "cli")
NAME = re.compile(rf"`({'|'.join(MODULES)})\.(\w+(?:\.\w+)*)")


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
