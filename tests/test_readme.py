"""README's examples, run: the Quickstart block, the CLI block and the sample outputs.

A ``print`` in the Quickstart whose comment lists numbers (and booleans)
shows what it prints: each printed value must agree with a shown number
to within one unit of its last shown digit (``0.1988...`` holds
0.19876), and a shown boolean or integer exactly. The oracle's ``solve``
fragment shows the CLI example's report, its residual to the digits
shown.
"""

import json
import re
import shlex
from pathlib import Path

from fixlab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
NUMBER = re.compile(r"-?\d+(?:\.(\d*))?(?:\.\.\.)?")


def block(predicate):
    (text,) = [text for lang, text in BLOCKS if predicate(lang, text)]
    return text


def shown(line):
    """The values a Quickstart line's comment shows, or None."""
    if "print(" not in line or "#" not in line:
        return None
    tokens = [t.strip() for t in line.split("#", 1)[1].split(",")]
    if all(t in ("True", "False") or NUMBER.fullmatch(t) for t in tokens):
        return tokens
    return None


def agrees(printed, token):
    if token in ("True", "False") or "." not in token:
        return printed == token
    digits = NUMBER.fullmatch(token).group(1)
    return abs(float(printed) - float(token.rstrip("."))) <= 10.0 ** -len(digits)


def test_quickstart_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    code = block(lambda lang, text: lang == "python")
    expected = [shown(line) for line in code.splitlines() if "print(" in line]
    assert sum(e is not None for e in expected) == 3
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(expected)
    for line, tokens in zip(lines, expected):
        if tokens is not None:
            printed = line.split()
            assert len(printed) == len(tokens), line
            assert all(agrees(p, t) for p, t in zip(printed, tokens)), (line, tokens)


def commands(text):
    for line in text.replace("\\\n", " ").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            yield shlex.split(line)


def test_cli_examples_exit_zero_and_solve_prints_the_sample(tmp_path, monkeypatch, capsys):
    text = block(lambda lang, text: lang == "sh" and text.startswith("# build"))
    sample = json.loads(re.search(
        r"Sample `solve` output:\n\n```json\n(.*?)^```$", README, re.M | re.S).group(1))
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for argv in commands(text):
        assert argv[0] == "fixlab"
        assert cli.main(argv[1:]) == 0, argv
        outputs[argv[1]] = capsys.readouterr().out
    assert len(outputs) == 9  # every subcommand
    assert json.loads(outputs["solve"]) == sample
    fragment = re.search(
        r"`fixlab oracle` reports the solve,\nhere for the CLI example above:\n\n```json\n(.*?)^```$",
        README, re.M | re.S).group(1)
    shown = json.loads("{" + fragment + "}")["solve"]
    got = json.loads(outputs["oracle"])["solve"]
    residual = re.search(r'"max_residual": ([^,]+),', fragment).group(1)
    digits = len(residual.split("e")[0].split(".")[1])
    assert f"{got.pop('max_residual'):.{digits}e}" == residual
    del shown["max_residual"]
    assert got == shown

