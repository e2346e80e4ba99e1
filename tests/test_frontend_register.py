"""One registration, one parse; and the exact text of every rejection.

``execute(RegisterKernelRequest)`` parses its document once and builds
one :class:`~repro.isa.kernel.KernelGraph`, and none when the document
is already registered.  The summaries the API,
``repro kernel show`` and ``GET /v1/kernels/{ref}`` return read the
registry's graph instead of compiling the document again.

``tests/data/golden_register_errors.json`` holds the API's answer to
every invalid document of the frontend fuzz wall (its mutation corpus,
the liveness floors and sandbox limits, vandalized generated documents,
top-level junk) and to vandalized copies of the conformance corpus,
which itself holds only valid documents.  Each answer is the full
``invalid kernel document: <code> at <pointer>: <message>`` text (or
``ok`` when a vandalized document stays valid), captured before the
register path learned to parse once.  Regenerate (only when an error
text change is intended) with::

    PYTHONPATH=src python tests/test_frontend_register.py --write
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

from repro.api import ApiError, RegisterKernelRequest, execute
from repro.frontend import loader
from repro.frontend.registry import configure_default_registry
from repro.frontend.schema import SANDBOX_LIMITS
from repro.isa.kernel import KernelGraph

from test_frontend_conformance import CORPUS, corpus_document
from test_frontend_fuzz import (
    DOCS_PER_SEED,
    MUTATIONS,
    SEEDS,
    _JUNK,
    _vandalize,
    base_document,
    generate_document,
)

GOLDEN = Path(__file__).parent / "data" / "golden_register_errors.json"

#: Vandalized copies made of each conformance-corpus document.
CORPUS_VANDALS = 20


def invalid_documents():
    """``(label, document)`` for every document the golden covers."""
    for param in MUTATIONS:
        mutate = param.values[0]
        document = base_document()
        mutate(document)
        yield f"mutation/{param.id}", document
    no_alu = {"schema_version": 1, "name": "k", "nodes": [
        {"op": "sb_read", "stream": "x"},
        {"op": "sb_write", "args": [0], "stream": "out"},
    ]}
    no_output = {"schema_version": 1, "name": "k", "nodes": [
        {"op": "sb_read", "stream": "x"},
        {"op": "fabs", "args": [0]},
    ]}
    flood = base_document()
    flood["nodes"] = [{"op": "sb_read", "stream": "x"}] + [
        {"op": "fabs", "args": [0]}
    ] * SANDBOX_LIMITS.max_nodes
    streams = base_document()
    streams["nodes"] = [
        {"op": "sb_read", "stream": f"s{i}"}
        for i in range(SANDBOX_LIMITS.max_streams + 1)
    ] + [{"op": "fabs", "args": [0]}]
    yield "floor/no-alu", no_alu
    yield "floor/no-output", no_output
    yield "limit/nodes", flood
    yield "limit/streams", streams
    rng = random.Random(2003)
    count = 0
    for seed in SEEDS:
        doc_rng = random.Random(seed)
        for _ in range(DOCS_PER_SEED):
            document = generate_document(doc_rng)
            for _ in range(rng.randint(1, 3)):
                _vandalize(document, rng)
            yield f"vandal/{count}", document
            count += 1
    for junk in _JUNK:
        yield f"junk/{junk!r}", junk
    rng = random.Random(19)
    for name in CORPUS:
        for index in range(CORPUS_VANDALS):
            document = copy.deepcopy(corpus_document(name))
            for _ in range(rng.randint(1, 3)):
                _vandalize(document, rng)
            yield f"corpus/{name}/{index}", document


def register_outcomes():
    """``[label, API error text or "ok"]`` per invalid document."""
    configure_default_registry(enabled=False)
    outcomes = []
    for label, document in invalid_documents():
        try:
            execute(RegisterKernelRequest(document=document))
            text = "ok"
        except ApiError as exc:
            text = str(exc)
        outcomes.append([label, text])
    return outcomes


@pytest.fixture()
def registry():
    registry = configure_default_registry(enabled=False)
    yield registry
    configure_default_registry(enabled=False)


@pytest.fixture()
def counts(monkeypatch):
    """Count :func:`parse_document` calls and KernelGraph builds."""
    counts = {"parse_document": 0, "KernelGraph": 0}
    parse = loader.parse_document
    init = KernelGraph.__init__

    def counting_parse(*args, **kwargs):
        counts["parse_document"] += 1
        return parse(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["KernelGraph"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(loader, "parse_document", counting_parse)
    monkeypatch.setattr(KernelGraph, "__init__", counting_init)
    return counts


class TestOneParse:
    def test_register_parses_once_and_builds_one_graph(self, registry,
                                                       counts):
        result = execute(RegisterKernelRequest(document=base_document()))
        assert result.name == "saxpy" and result.nodes == 4
        assert counts == {"parse_document": 1, "KernelGraph": 1}

    def test_reregistration_parses_once_too(self, registry, counts):
        first = execute(RegisterKernelRequest(document=base_document()))
        second = execute(RegisterKernelRequest(document=base_document()))
        assert second == first
        # The second call derives the id and finds it registered: it
        # builds no graph.
        assert counts == {"parse_document": 2, "KernelGraph": 1}

    def test_rejection_parses_once(self, registry, counts):
        document = base_document()
        document["nodes"][2]["op"] = "nope"
        with pytest.raises(ApiError, match="E_OP_UNKNOWN"):
            execute(RegisterKernelRequest(document=document))
        assert counts == {"parse_document": 1, "KernelGraph": 0}

    def test_cli_show_reuses_the_registry_graph(self, registry, counts,
                                                capsys):
        from repro.cli import main

        ref = execute(RegisterKernelRequest(document=base_document())).ref
        before = dict(counts)
        assert main(["kernel", "show", ref, "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)["data"]
        assert shown["nodes"] == 4 and shown["input_streams"] == ["x"]
        assert counts == before

    def test_daemon_lookup_reuses_the_registry_graph(self, registry,
                                                     counts):
        from repro.serve import ServeClient
        from test_frontend_serve import running_server

        ref = execute(RegisterKernelRequest(document=base_document())).ref
        before = dict(counts)
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                fetched = client.get_kernel(ref)
        assert fetched.status == 200
        assert fetched.data["alu_ops"] == 1
        assert fetched.data["document"]["name"] == "saxpy"
        assert counts == before


class TestRejectionText:
    def test_every_rejection_keeps_its_text(self, registry):
        golden = json.loads(GOLDEN.read_text())
        got = register_outcomes()
        assert [label for label, _ in got] == [label for label, _ in golden]
        for (label, text), (_, want) in zip(got, golden):
            assert text == want, label

    def test_golden_covers_rejections_of_every_kind(self):
        golden = json.loads(GOLDEN.read_text())
        texts = [text for _, text in golden]
        assert sum(t.startswith("invalid kernel document: E_")
                   for t in texts) >= 200
        assert any(label.startswith("corpus/") and text != "ok"
                   for label, text in golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_frontend_register.py --write")
    lines = ",\n".join(
        json.dumps(entry, ensure_ascii=True) for entry in register_outcomes()
    )
    GOLDEN.write_text(f"[\n{lines}\n]\n")


class TestResolveOncePerSweep:
    def test_cold_table5_resolves_the_reference_three_times(
        self, registry, monkeypatch
    ):
        """The request check, the row label and the one compile pass
        each resolve the reference once; the 20 cold points share the
        pass's resolution."""
        from repro.analysis.sweep import clear_sweep_cache
        from repro.api import SweepRequest
        from repro.frontend.registry import KernelRegistry

        ref = execute(RegisterKernelRequest(document=base_document())).ref
        clear_sweep_cache()
        resolved = []
        resolve = KernelRegistry.resolve

        def counting_resolve(self, name):
            resolved.append(name)
            return resolve(self, name)

        monkeypatch.setattr(KernelRegistry, "resolve", counting_resolve)
        result = execute(SweepRequest(target="table5", kernel=ref))
        assert len(result.rows) == 20
        assert resolved and set(resolved) == {ref}
        assert len(resolved) <= 3
