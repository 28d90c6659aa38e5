"""The option surface of every console script, pinned.

``fixtures/cli_options.json`` holds one row per option of every
``[project.scripts]`` entry and every subcommand: option strings, dest,
effective default (after ``set_defaults``), nargs, type, choices,
required and action class. Help text is not pinned. A change to a flag
anywhere — the shared table in :mod:`repro.cli` included — shows up here
as a row diff.

The parsers are captured without running anything: ``parse_args`` is
patched to raise with the parser it was called on.
"""

import argparse
import importlib
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "tests" / "fixtures" / "cli_options.json").read_text())

#: Flags that more than one command takes: each must be defined by
#: exactly one ``add_argument`` call (the shared table in repro.cli).
SHARED_FLAGS = ("--gc", "--heap", "--young", "--seed", "--no-tlab",
                "--no-system-gc", "--topology", "--placement", "--socket",
                "--host", "--port", "--gcs", "--heaps", "--youngs", "--seeds",
                "--out", "--json", "--wait")


def scripts():
    """``[project.scripts]`` as ``{name: (module, function)}`` (parsed by
    hand: ``tomllib`` is 3.11+)."""
    out, inside = {}, False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
            continue
        m = re.match(r'([\w-]+)\s*=\s*"([\w.]+):(\w+)"$', line)
        if inside and m:
            out[m.group(1)] = (m.group(2), m.group(3))
    return out


def script_main(name):
    """The callable the console script *name* runs."""
    module, func = scripts()[name]
    return getattr(importlib.import_module(module), func)


class _Captured(Exception):
    def __init__(self, parser):
        super().__init__(parser.prog)
        self.parser = parser


def captured_parser(main, monkeypatch):
    def capture(self, args=None, namespace=None):
        raise _Captured(self)

    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(_Captured) as exc:
            main([])
    return exc.value.parser


def option_rows(parser, command):
    rows = []
    for a in parser._actions:
        rows.append([command, list(a.option_strings) or [a.dest], a.dest,
                     parser.get_default(a.dest), a.nargs,
                     getattr(a.type, "__name__", None),
                     None if a.choices is None else list(a.choices),
                     a.required, type(a).__name__])
        if isinstance(a, argparse._SubParsersAction):
            for name, child in a.choices.items():
                rows += option_rows(child, f"{command} {name}")
    # JSON round trip: tuples read back as lists, like the pinned table.
    return json.loads(json.dumps(rows))


def test_every_script_is_pinned():
    assert sorted(scripts()) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_option_surface_matches_pin(name, monkeypatch):
    parser = captured_parser(script_main(name), monkeypatch)
    assert option_rows(parser, name) == PINNED[name]


def test_scripts_point_at_module_mains():
    paper = {"repro-dacapo", "repro-cassandra", "repro-report",
             "repro-specjbb"}
    for name, (module, func) in scripts().items():
        if name in paper:
            assert module == "repro.cli", name
        else:
            assert (module.endswith(".cli") or module.endswith("_cli")) \
                and func == "main", name
        assert callable(script_main(name)), name


def test_shared_flags_are_defined_once():
    sources = [p.read_text() for p in (ROOT / "src" / "repro").rglob("*.py")]
    for flag in SHARED_FLAGS:
        calls = sum(s.count(f'add_argument("{flag}"') for s in sources)
        assert calls == 1, (flag, calls)


def test_paper_cli_keeps_only_the_paper_commands():
    import repro.cli

    mains = sorted(n for n in vars(repro.cli) if n.endswith("_main"))
    assert mains == ["cassandra_main", "dacapo_main", "report_main",
                     "specjbb_main"]
