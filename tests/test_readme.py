"""The README's examples, run as shown: the Python quick start and every
`$ dicksonmui ...` example whose output carries no time."""

import contextlib
import io
import pathlib
import re
import shlex

from dicksonmui.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(r"```%s\n(.*?)```" % lang, README, re.S)


def test_python_quick_start_prints_what_it_shows(capsys):
    [code] = [b for b in _blocks("python") if "import" in b]
    shown = [line.split("#", 1)[1].strip() for line in code.splitlines()
             if line.startswith("print(")]
    exec(compile(code, "README.md", "exec"), {})
    assert len(shown) == 2
    assert capsys.readouterr().out.splitlines() == shown


def _cli_examples():
    for block in _blocks("text"):
        for example in re.split(r"\n(?=\$ )", block.strip()):
            command, *output = example.strip().splitlines()
            if command.startswith("$ dicksonmui ") and "verify" not in command:
                yield shlex.split(command)[2:], "\n".join(output)


def test_cli_examples_print_what_they_show():
    examples = list(_cli_examples())
    assert len(examples) == 6
    for argv, shown in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        assert out.getvalue().rstrip("\n") == shown, argv
