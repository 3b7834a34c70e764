"""The examples of README's "Library" section run, and give the values their comments state."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    """The ```python blocks between the "## Library" heading and the next heading of that level."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]


def test_library_examples_give_their_commented_values():
    """Each line ``expression  # value`` evaluates to ``value``; a comment may go on after the
    value's repr, as in ``# 13 = 10 + 3``."""
    blocks = _library_blocks()
    assert len(blocks) == 2
    shown = []
    for block in blocks:
        namespace: dict = {}
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            if not comment:
                exec(code, namespace)
                continue
            value = repr(eval(code, namespace))
            assert comment.strip() == value or comment.strip().startswith(value + " ")
            shown.append(value)
    assert shown == [
        "{'g_m1': 3, 'g_mhalf': 2, 'g_0': 4, 'g_half': 0, 'g_1': 1, 'total': 10}",
        "1",
        "'generically-open-orbits'",
        "13",
    ]
