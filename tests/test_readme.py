"""README.md agrees with the code: the exit-code table and the list of
hyperparameter keys."""

import re
from pathlib import Path

from mars import errors
from mars.scoring import HYPER_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The text under the README heading ``## title``, up to the next one."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_exit_code_table_lists_every_error_class_with_its_code():
    # a row: | code | `ClassName`: meaning |
    rows = [line.split("|")[1:3] for line in section("Exit codes").splitlines()
            if re.match(r"\| \d+ \|", line)]
    listed = {meaning.split("`")[1]: int(code) for code, meaning in rows if "`" in meaning}
    classes = {cls.__name__: cls.exit_code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.MarsError)}
    assert listed == classes


def test_hyperparameter_keys_are_listed_in_order():
    text = " ".join(section("Hyperparameters").split())
    keys = text.split("lists them: ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", keys) == list(HYPER_KEYS)
