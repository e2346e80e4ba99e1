"""Documentation-honesty tests: DESIGN.md's experiment index and the
public API's docstrings must stay true as the code evolves."""

import importlib
import inspect
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

PUBLIC_MODULES = (
    "repro",
    "repro.core",
    "repro.isa",
    "repro.kernels",
    "repro.compiler",
    "repro.sim",
    "repro.apps",
    "repro.analysis",
    "repro.obs",
)


class TestDesignIndex:
    """Every bench target DESIGN.md names must exist."""

    @pytest.fixture(scope="class")
    def design_text(self):
        return (REPO / "DESIGN.md").read_text()

    def test_bench_targets_exist(self, design_text):
        targets = re.findall(
            r"`benchmarks/(test_bench_\w+\.py)::(test_\w+)`", design_text
        )
        assert targets, "DESIGN.md lost its experiment index"
        for filename, function in targets:
            path = REPO / "benchmarks" / filename
            assert path.exists(), filename
            assert f"def {function}(" in path.read_text(), (
                filename, function
            )

    def test_module_references_exist(self, design_text):
        for match in re.findall(r"`(repro/[\w/]+\.py)`", design_text):
            assert (REPO / "src" / match).exists(), match

    def test_paper_check_recorded(self, design_text):
        assert "Paper check" in design_text


class TestDocstrings:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, module_name

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_public_items_documented(self, module_name):
        """Everything a package exports carries a docstring."""
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        for name in exported:
            item = getattr(module, name)
            if inspect.isclass(item) or inspect.isfunction(item):
                assert inspect.getdoc(item), f"{module_name}.{name}"

    def test_public_classes_document_methods(self):
        """Spot-check: the load-bearing classes document every public
        method."""
        from repro.compiler.pipeline import KernelSchedule
        from repro.core.costs import CostModel
        from repro.isa.kernel import KernelGraph
        from repro.sim.processor import StreamProcessor

        for cls in (CostModel, KernelGraph, KernelSchedule,
                    StreamProcessor):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    assert inspect.getdoc(member), f"{cls.__name__}.{name}"


class TestReadme:
    def test_examples_listed_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert (REPO / "examples" / match).exists(), match

    def test_experiments_doc_tracks_all_artifacts(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("Table 1", "Table 2", "Table 3", "Table 4",
                         "Table 5", "Figure 12", "Figure 13",
                         "Figure 14", "Figure 15"):
            assert artifact in text, artifact


#: The ``repro.cli`` module docstring, read like a document: its
#: command list and examples.
CLI_DOC = "repro.cli"

#: The documents whose commands and routes must exist.
USER_DOCS = ("README.md", ".claude/skills/verify/SKILL.md", CLI_DOC) + tuple(
    f"docs/{path.name}" for path in sorted((REPO / "docs").glob("*.md"))
)

#: The first words of ``docs/api.md``'s version-history paragraph,
#: which names what each API version removed.
API_HISTORY_START = "The surface version is"

#: ``repro <subcommand>`` in code, with the rest of its line; a
#: subcommand may be a ``/``-separated list (``repro compile/simulate``).
_COMMAND = re.compile(r"\brepro ([a-z][a-z-]*(?:/[a-z][a-z-]*)*)(?=\s|$)(.*)")

#: Shell syntax that ends a command's arguments.
_SHELL_END = ("|", ">", "2>", "&", "&&", ";", "#", "\\")

#: A dotted name in the package (``repro.compiler.cache.ScheduleCache``).
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")

#: An environment variable of the project's own.
_ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+")

#: The directories whose Python may read a documented variable.
CODE_DIRS = ("src", "tests", "benchmarks", "bench")


def _current_text(name):
    """The document without its history: sections headed "... migration
    notes" (down to the next heading of the same or a higher level),
    and in ``docs/api.md`` the version-history paragraph."""
    if name == CLI_DOC:
        return importlib.import_module(CLI_DOC).__doc__
    text = (REPO / name).read_text()
    if name == "docs/api.md":
        start = text.index(API_HISTORY_START)
        text = text[:start] + text[text.index("\n\n", start):]
    kept, skip_level, fenced = [], None, False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        heading = re.match(r"(#+) ", line) if not fenced else None
        if heading:
            level = len(heading.group(1))
            if skip_level is not None and level <= skip_level:
                skip_level = None
            if skip_level is None and "migration notes" in line.lower():
                skip_level = level
        if skip_level is None:
            kept.append(line)
    return "\n".join(kept)


def _code(text):
    """Each line of every fenced block (continuation lines joined) and
    every inline code span."""
    pieces, fenced, block = [], False, []
    for line in text.splitlines():
        if line.startswith("```"):
            if fenced:
                pieces += " ".join(block).replace("\\ ", " ").split("\n")
                block = []
            fenced = not fenced
        elif fenced:
            block.append(line + ("\n" if not line.endswith("\\") else ""))
        else:
            pieces += re.findall(r"`([^`\n]+)`", line)
    return pieces


def _commands(name):
    """Every ``(subcommands, words)`` a document shows as a command; in
    the CLI docstring every line counts as code."""
    text = _current_text(name)
    return _parse_commands(
        text.splitlines() if name == CLI_DOC else _code(text)
    )


def _parse_commands(pieces):
    """Every ``(subcommands, words)`` in code pieces."""
    found = []
    for piece in pieces:
        for match in _COMMAND.finditer(piece):
            words = []
            for word in match.group(2).split():
                if word in _SHELL_END or word.startswith(("#", "2>")):
                    break
                words.append(word)
            found.append((match.group(1).split("/"), words))
    return found


def _resolves(dotted):
    """True if ``dotted`` names a module, or an attribute reached from
    the longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.fixture(scope="module")
def code_text():
    """Every Python source under :data:`CODE_DIRS`, concatenated."""
    return "\n".join(
        path.read_text()
        for directory in CODE_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
    )


def _subparsers(parser):
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class TestDocumentedSurface:
    """The docs name only commands, flags and routes that exist, so a
    removed one cannot linger in them (history and migration notes
    aside)."""

    @pytest.mark.parametrize("name", USER_DOCS)
    def test_commands_parse(self, name):
        from repro.cli import build_parser

        top = build_parser()
        for subcommands, words in _commands(name):
            for subcommand in subcommands:
                assert subcommand in _subparsers(top), (name, subcommand)
                parser = _subparsers(top)[subcommand]
                rest = list(words)
                nested = _subparsers(parser)
                if nested and rest and not rest[0].startswith(("-", "<")):
                    assert rest[0] in nested, (name, subcommand, rest[0])
                    parser = nested[rest.pop(0)]
                for word in rest:
                    if not word.startswith("-") or word == "-":
                        continue
                    for flag in word.split("/"):
                        flag = flag.split("=", 1)[0]
                        assert flag in parser._option_string_actions or (
                            flag in top._option_string_actions
                        ), (name, subcommand, flag)

    def test_every_document_shows_a_command(self):
        assert all(_commands(name) for name in ("README.md",
                                                "docs/serving.md",
                                                CLI_DOC))

    def test_readme_shows_every_command(self):
        """README's CLI block runs each subcommand at least once."""
        from repro.cli import build_parser

        readme = _current_text("README.md")
        start = readme.index("```", readme.index("drive everything from"))
        block = readme[start:readme.index("\n```\n", start) + 5]
        shown = {
            subcommand
            for subcommands, _ in _parse_commands(_code(block))
            for subcommand in subcommands
        }
        assert shown == set(_subparsers(build_parser()))

    def test_cli_docstring_lists_every_command(self):
        """``repro.cli``'s command list names each subcommand, in the
        order ``repro --help`` shows them."""
        from repro.cli import build_parser

        listed = re.findall(r"^``([a-z]+)``\s", _current_text(CLI_DOC),
                            re.MULTILINE)
        assert listed == list(_subparsers(build_parser()))

    @pytest.mark.parametrize("name", USER_DOCS)
    def test_routes_exist(self, name):
        from repro.serve.daemon import _ROUTES

        routes = re.findall(r"/v1/[\w{}.*-]+(?:/[\w{}.*-]+)*",
                            _current_text(name))
        for route in routes:
            route = route.rstrip(".")
            prefix = route[:route.find("/", 4) + 1]
            assert route in _ROUTES or prefix in _ROUTES, (name, route)

    @pytest.mark.parametrize("name", USER_DOCS)
    def test_dotted_names_resolve(self, name):
        names = set(_DOTTED.findall(_current_text(name)))
        assert [dotted for dotted in sorted(names)
                if not _resolves(dotted)] == [], name

    @pytest.mark.parametrize("name", USER_DOCS)
    def test_environment_variables_are_read(self, name, code_text):
        """A documented ``REPRO_*`` variable is quoted somewhere in the
        code, so a setting nothing reads cannot linger in the docs."""
        variables = set(_ENV_VAR.findall(_current_text(name)))
        assert [variable for variable in sorted(variables)
                if f'"{variable}"' not in code_text
                and f"'{variable}'" not in code_text] == [], name

    def test_history_is_skipped_not_lost(self):
        """The skipped text exists: the api.md history paragraph and
        serving.md's migration notes still record every removal."""
        api = (REPO / "docs/api.md").read_text()
        assert API_HISTORY_START in api
        serving = (REPO / "docs/serving.md").read_text()
        assert "### API v8 migration notes" in serving
        assert "/v1/jobs" not in _current_text("docs/serving.md")
        assert "/v1/jobs" in serving
