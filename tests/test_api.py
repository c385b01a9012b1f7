"""The top-level public API: exactly the names the embedding job needs."""

from __future__ import annotations

import ast
from pathlib import Path

import posetcube
from posetcube.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "parse_poset",
    "write_poset",
    "parse_embedding",
    "write_embedding",
    "parse_family",
    "write_family",
    "Poset",
    "SubsetMask",
    "random_poset",
    "build_universal",
    "embed",
    "embed_with_branch",
    "membership",
    "cardinality",
    "size_bound",
    "check_embedding",
    "CycleError",
    "FormatError",
    "InfeasibleError",
    "LimitError",
    "MemoryLimitError",
    "NotAnAntichainError",
    "PosetCubeError",
    "SizeError",
    "SizeMismatchError",
    "VerificationError",
}


def test_all_is_exactly_the_public_names():
    assert len(posetcube.__all__) == len(PUBLIC) == 26
    assert set(posetcube.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace: dict[str, object] = {}
    exec("from posetcube import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(posetcube, name)


def test_readme_library_example_runs_as_documented():
    # every "# <literal>" comment in the README's example is the value of
    # the expression on its line
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict[str, object] = {}
    exec(code, namespace)
    checked = []
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue
        assert eval(expression, namespace) == expected, line
        checked.append(expected)
    assert checked == [(1, 4), True, (16, 106)]


def test_readme_format_blocks_are_real_cli_output(tmp_path, capsys):
    # the "File formats" blocks, in order: a poset, `family --n 3`, and the
    # certificate `embed` writes for that poset
    section = README.read_text().split("\n### File formats\n", 1)[1].split("\n## ", 1)[0]
    poset_block, family_block, embedding_block = section.split("```\n")[1::2]
    poset_file = tmp_path / "readme.poset"
    poset_file.write_text(poset_block)
    cert = tmp_path / "readme.cert"
    assert main(["embed", "--in", str(poset_file), "--out", str(cert)]) == 0
    assert cert.read_bytes() == embedding_block.encode()
    capsys.readouterr()
    assert main(["family", "--n", "3"]) == 0
    assert capsys.readouterr().out == family_block
