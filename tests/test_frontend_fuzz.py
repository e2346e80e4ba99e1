"""Fuzz wall for the kernel-document frontend.

Three layers of pressure on :mod:`repro.frontend`:

* a seeded **generator** produces hundreds of structurally valid
  documents; every one must load without error and compile
  deterministically (in-process and across interpreter processes);
* a **mutation corpus** takes a known-good document and applies one
  targeted corruption at a time, asserting the exact stable error code
  and JSON pointer the loader reports;
* **arbitrary mutations** (random structural vandalism plus outright
  junk) must never escape as anything other than
  :class:`KernelValidationError` — the loader's "never raises anything
  else for any JSON-shaped input" contract.

Hypothesis drives the canonical-form properties at the end: canonical
serialization is a byte-level fixed point, and the content hash is
invariant to key order and whitespace.
"""

import copy
import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import (
    KernelValidationError,
    canonical_json,
    canonicalize_document,
    document_hash,
    graph_from_document,
    load_document,
)
from repro.frontend.schema import ERROR_CODES, SANDBOX_LIMITS

SRC_DIR = str(Path(__file__).parent.parent / "src")

# --- seeded document generator ------------------------------------------

#: ALU opcodes whose float semantics are total (no division, roots, or
#: bit tricks): generated kernels stay finite when they execute.
_BINARY_OPS = (
    "iadd", "isub", "imin", "imax", "icmp",
    "fadd", "fsub", "fmul", "fmin", "fmax", "fcmp", "select",
)
_UNARY_OPS = ("iabs", "fabs", "itof")

SEEDS = (1, 2, 3)
DOCS_PER_SEED = 70


def generate_document(rng):
    """One structurally valid kernel document, fully determined by ``rng``.

    Every document has at least one unconditional stream read, at least
    one ALU op, and at least one stream write — the loader's liveness
    floor — and sticks to total arithmetic so interpreter runs stay
    finite.  Constants are multiples of 0.25 (exact dyadic rationals).
    """
    streams = [f"in{i}" for i in range(rng.randint(1, 3))]
    nodes = []
    producers = []  # indices of nodes that yield a value

    for stream in streams:
        producers.append(len(nodes))
        nodes.append({"op": "sb_read", "stream": stream})
    for _ in range(rng.randint(0, 3)):
        producers.append(len(nodes))
        nodes.append(
            {"op": "const", "value": rng.randint(-16, 16) * 0.25}
        )

    unary_targets = []
    for _ in range(rng.randint(3, 24)):
        index = len(nodes)
        if rng.random() < 0.25:
            node = {"op": rng.choice(_UNARY_OPS),
                    "args": [rng.choice(producers)]}
            unary_targets.append(index)
        else:
            node = {
                "op": rng.choice(_BINARY_OPS),
                "args": [rng.choice(producers), rng.choice(producers)],
            }
        if rng.random() < 0.2:
            node["name"] = f"t{index}"
        producers.append(index)
        nodes.append(node)

    alu_indices = producers[len(streams):]
    for i in range(rng.randint(1, 2)):
        nodes.append({
            "op": "sb_write",
            "args": [rng.choice(alu_indices)],
            "stream": f"out{i}",
        })

    recurrences = []
    if unary_targets and rng.random() < 0.3:
        # The accumulator idiom: a unary ALU node folds in the value a
        # prior node produced ``distance`` iterations ago.
        target = rng.choice(unary_targets)
        recurrences.append({
            "source": rng.choice(alu_indices),
            "target": target,
            "distance": rng.randint(1, 4),
        })

    return {
        "schema_version": 1,
        "name": f"fuzz_{rng.randint(0, 10**9)}",
        "nodes": nodes,
        "recurrences": recurrences,
    }


def corpus():
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(DOCS_PER_SEED):
            yield generate_document(rng)


class TestGeneratedDocuments:
    def test_corpus_is_large_enough(self):
        assert sum(1 for _ in corpus()) >= 200

    def test_every_generated_document_loads(self):
        for document in corpus():
            loaded = load_document(document)
            assert len(loaded.kernel_id) == 64
            assert len(loaded.graph) >= 5

    def test_generation_is_deterministic(self):
        first = [generate_document(random.Random(s)) for s in SEEDS]
        second = [generate_document(random.Random(s)) for s in SEEDS]
        assert first == second

    def test_canonical_form_is_a_fixed_point(self):
        for document in corpus():
            once = canonicalize_document(document)
            twice = canonicalize_document(once)
            assert canonical_json(once) == canonical_json(twice)

    def test_loading_is_deterministic(self):
        for document in corpus():
            a = load_document(copy.deepcopy(document))
            b = load_document(copy.deepcopy(document))
            assert a.kernel_id == b.kernel_id
            assert a.canonical == b.canonical

    def test_compilation_is_deterministic_in_process(self):
        from repro.compiler.pipeline import compile_kernel
        from repro.core.config import ProcessorConfig

        config = ProcessorConfig(8, 5)
        rng = random.Random(7)
        documents = list(corpus())
        for document in rng.sample(documents, 30):
            kernel = graph_from_document(document)
            first = compile_kernel(kernel, config)
            second = compile_kernel(
                graph_from_document(document), config
            )
            assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_compilation_is_deterministic_across_processes(self):
        """Schedules hash identically in a fresh interpreter — no
        hidden dependence on dict ordering, PYTHONHASHSEED, or module
        state."""
        documents = [
            generate_document(random.Random(seed)) for seed in SEEDS
        ]
        script = (
            "import dataclasses, json, sys\n"
            "from repro.frontend import graph_from_document\n"
            "from repro.compiler.pipeline import compile_kernel\n"
            "from repro.core.config import ProcessorConfig\n"
            "docs = json.load(sys.stdin)\n"
            "out = [dataclasses.asdict(compile_kernel("
            "graph_from_document(d), ProcessorConfig(8, 5))) "
            "for d in docs]\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        runs = []
        for hash_seed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                input=json.dumps(documents),
                capture_output=True,
                text=True,
                env={
                    "PYTHONPATH": SRC_DIR,
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                },
                check=True,
            )
            runs.append(proc.stdout.strip())
        assert runs[0] == runs[1]

        import dataclasses as dc

        from repro.compiler.pipeline import compile_kernel
        from repro.core.config import ProcessorConfig

        local = json.dumps(
            [
                dc.asdict(
                    compile_kernel(
                        graph_from_document(d), ProcessorConfig(8, 5)
                    )
                )
                for d in documents
            ],
            sort_keys=True,
        )
        assert local == runs[0]


# --- mutation corpus ----------------------------------------------------


def base_document():
    """saxpy: out[i] = 2.0 * x[i] — the smallest legal document."""
    return {
        "schema_version": 1,
        "name": "saxpy",
        "nodes": [
            {"op": "sb_read", "stream": "x"},
            {"op": "const", "value": 2.0},
            {"op": "fmul", "args": [0, 1]},
            {"op": "sb_write", "args": [2], "stream": "out"},
        ],
        "recurrences": [],
    }


def _set(path, value):
    def mutate(doc):
        target = doc
        for token in path[:-1]:
            target = target[token]
        target[path[-1]] = value
    return mutate


def _delete(path):
    def mutate(doc):
        target = doc
        for token in path[:-1]:
            target = target[token]
        del target[path[-1]]
    return mutate


#: (mutation, expected error code, expected JSON pointer).
MUTATIONS = [
    pytest.param(_delete(["schema_version"]), "E_VERSION", "",
                 id="version-missing"),
    pytest.param(_set(["schema_version"], 99), "E_VERSION",
                 "/schema_version", id="version-unsupported"),
    pytest.param(_set(["schema_version"], "1"), "E_VERSION",
                 "/schema_version", id="version-string"),
    pytest.param(_delete(["name"]), "E_FIELD_MISSING", "",
                 id="name-missing"),
    pytest.param(_set(["name"], ""), "E_NAME_INVALID", "/name",
                 id="name-empty"),
    pytest.param(_set(["name"], "a\x00b"), "E_NAME_INVALID", "/name",
                 id="name-control-chars"),
    pytest.param(_set(["name"], "x" * 65), "E_NAME_INVALID", "/name",
                 id="name-too-long"),
    pytest.param(_set(["publisher"], "mallory"), "E_FIELD_UNKNOWN",
                 "/publisher", id="doc-unknown-field"),
    pytest.param(_delete(["nodes"]), "E_FIELD_MISSING", "",
                 id="nodes-missing"),
    pytest.param(_set(["nodes"], {}), "E_FIELD_TYPE", "/nodes",
                 id="nodes-not-array"),
    pytest.param(_set(["nodes"], []), "E_FIELD_MISSING", "/nodes",
                 id="nodes-empty"),
    pytest.param(_set(["nodes", 0], 5), "E_DOC_TYPE", "/nodes/0",
                 id="node-not-object"),
    pytest.param(_delete(["nodes", 2, "op"]), "E_FIELD_MISSING",
                 "/nodes/2", id="node-op-missing"),
    pytest.param(_set(["nodes", 2, "op"], 7), "E_FIELD_TYPE",
                 "/nodes/2/op", id="node-op-not-string"),
    pytest.param(_set(["nodes", 2, "op"], "launch_missiles"),
                 "E_OP_UNKNOWN", "/nodes/2/op", id="node-op-unknown"),
    pytest.param(_set(["nodes", 2, "shady"], 1), "E_FIELD_UNKNOWN",
                 "/nodes/2/shady", id="node-unknown-field"),
    pytest.param(_set(["nodes", 2, "args"], "01"), "E_FIELD_TYPE",
                 "/nodes/2/args", id="args-not-array"),
    pytest.param(_set(["nodes", 2, "args"], [0, 1.5]), "E_FIELD_TYPE",
                 "/nodes/2/args/1", id="arg-not-int"),
    pytest.param(_set(["nodes", 2, "args"], [0, True]), "E_FIELD_TYPE",
                 "/nodes/2/args/1", id="arg-bool"),
    pytest.param(_set(["nodes", 2, "args"], [0, 2]), "E_OPERAND_RANGE",
                 "/nodes/2/args/1", id="arg-self-reference"),
    pytest.param(_set(["nodes", 2, "args"], [0, -1]), "E_OPERAND_RANGE",
                 "/nodes/2/args/1", id="arg-negative"),
    pytest.param(_set(["nodes", 2, "args"], [0, 1, 0]), "E_ARITY",
                 "/nodes/2/args", id="alu-three-args"),
    pytest.param(_set(["nodes", 3, "args"], []), "E_ARITY",
                 "/nodes/3/args", id="write-zero-args"),
    pytest.param(_delete(["nodes", 1, "value"]), "E_CONST_VALUE",
                 "/nodes/1", id="const-value-missing"),
    pytest.param(_set(["nodes", 1, "value"], "2.0"), "E_CONST_VALUE",
                 "/nodes/1/value", id="const-value-string"),
    pytest.param(_set(["nodes", 1, "value"], 1e31), "E_CONST_VALUE",
                 "/nodes/1/value", id="const-value-huge"),
    pytest.param(_set(["nodes", 2, "value"], 1.0), "E_FIELD_UNKNOWN",
                 "/nodes/2/value", id="value-on-alu-node"),
    pytest.param(_delete(["nodes", 0, "stream"]), "E_STREAM_INVALID",
                 "/nodes/0", id="read-stream-missing"),
    pytest.param(_set(["nodes", 2, "stream"], "x"), "E_STREAM_INVALID",
                 "/nodes/2/stream", id="stream-on-alu-node"),
    pytest.param(_set(["nodes", 0, "name"], "n"), "E_FIELD_UNKNOWN",
                 "/nodes/0/name", id="name-on-stream-op"),
    pytest.param(_set(["recurrences"], {}), "E_FIELD_TYPE",
                 "/recurrences", id="recurrences-not-array"),
    pytest.param(_set(["recurrences"], [7]), "E_DOC_TYPE",
                 "/recurrences/0", id="recurrence-not-object"),
    pytest.param(_set(["recurrences"], [{"source": 2}]),
                 "E_FIELD_MISSING", "/recurrences/0",
                 id="recurrence-field-missing"),
    pytest.param(
        _set(["recurrences"], [{"source": 2, "target": 9, "distance": 1}]),
        "E_RECURRENCE_INVALID", "/recurrences/0/target",
        id="recurrence-target-out-of-range"),
    pytest.param(
        _set(["recurrences"], [{"source": 2, "target": 2, "distance": 0}]),
        "E_RECURRENCE_INVALID", "/recurrences/0/distance",
        id="recurrence-distance-zero"),
    pytest.param(
        _set(["recurrences"], [{"source": 2, "target": 2, "distance": 65}]),
        "E_LIMIT_DISTANCE", "/recurrences/0/distance",
        id="recurrence-distance-over-limit"),
]


class TestMutationCorpus:
    def test_base_document_is_valid(self):
        load_document(base_document())

    @pytest.mark.parametrize("mutate,code,pointer", MUTATIONS)
    def test_mutation_reports_code_and_pointer(self, mutate, code, pointer):
        document = base_document()
        mutate(document)
        with pytest.raises(KernelValidationError) as excinfo:
            load_document(document)
        assert excinfo.value.code == code
        assert excinfo.value.pointer == pointer
        assert excinfo.value.code in ERROR_CODES

    def test_liveness_floors(self):
        no_alu = {
            "schema_version": 1,
            "name": "k",
            "nodes": [
                {"op": "sb_read", "stream": "x"},
                {"op": "sb_write", "args": [0], "stream": "out"},
            ],
        }
        with pytest.raises(KernelValidationError) as excinfo:
            load_document(no_alu)
        assert (excinfo.value.code, excinfo.value.pointer) == (
            "E_NO_ALU", "/nodes"
        )
        no_output = {
            "schema_version": 1,
            "name": "k",
            "nodes": [
                {"op": "sb_read", "stream": "x"},
                {"op": "fabs", "args": [0]},
            ],
        }
        with pytest.raises(KernelValidationError) as excinfo:
            load_document(no_output)
        assert (excinfo.value.code, excinfo.value.pointer) == (
            "E_NO_OUTPUT", "/nodes"
        )

    def test_sandbox_limits_pre_scheduler(self):
        """Oversized documents die in validation, not in the compiler."""
        flood = base_document()
        flood["nodes"] = (
            [{"op": "sb_read", "stream": "x"}]
            + [{"op": "fabs", "args": [0]}]
            * (SANDBOX_LIMITS.max_nodes)
        )
        with pytest.raises(KernelValidationError) as excinfo:
            load_document(flood)
        assert excinfo.value.code == "E_LIMIT_OPS"

        many_streams = base_document()
        many_streams["nodes"] = [
            {"op": "sb_read", "stream": f"s{i}"}
            for i in range(SANDBOX_LIMITS.max_streams + 1)
        ] + [{"op": "fabs", "args": [0]}]
        with pytest.raises(KernelValidationError) as excinfo:
            load_document(many_streams)
        assert (excinfo.value.code, excinfo.value.pointer) == (
            "E_LIMIT_STREAMS", "/nodes"
        )


# --- arbitrary vandalism ------------------------------------------------

_JUNK = (
    None, True, False, -1, 0, 1.5, float("1e40"), "", "x", "fmul",
    [], [0], [[]], {}, {"op": "fmul"}, "\x00", 2 ** 80,
)


def _vandalize(document, rng):
    """Apply one random structural mutation in place."""
    nodes = document.get("nodes")
    nodes = nodes if isinstance(nodes, list) else []
    choice = rng.randrange(4)
    if choice == 0:  # replace a random top-level field
        key = rng.choice(sorted(document))
        document[key] = rng.choice(_JUNK)
    elif choice == 1:  # insert an unknown field somewhere
        target = rng.choice(
            [document] + [n for n in nodes if isinstance(n, dict)]
        )
        target[f"junk{rng.randrange(10)}"] = rng.choice(_JUNK)
    elif choice == 2 and nodes:  # corrupt a node field
        node = rng.choice(nodes)
        if isinstance(node, dict) and node:
            node[rng.choice(sorted(node))] = rng.choice(_JUNK)
    else:  # swap a whole node for junk
        if nodes:
            nodes[rng.randrange(len(nodes))] = rng.choice(_JUNK)


class TestArbitraryMutations:
    def test_vandalism_never_escapes_the_typed_error(self):
        rng = random.Random(2003)
        outcomes = {"ok": 0, "rejected": 0}
        for seed in SEEDS:
            doc_rng = random.Random(seed)
            for _ in range(DOCS_PER_SEED):
                document = generate_document(doc_rng)
                for _ in range(rng.randint(1, 3)):
                    _vandalize(document, rng)
                try:
                    load_document(document)
                    outcomes["ok"] += 1
                except KernelValidationError as exc:
                    assert exc.code in ERROR_CODES
                    assert isinstance(exc.pointer, str)
                    outcomes["rejected"] += 1
                # Anything else propagates and fails the test.
        assert sum(outcomes.values()) >= 200
        assert outcomes["rejected"] > 0

    @pytest.mark.parametrize("junk", _JUNK, ids=repr)
    def test_top_level_junk(self, junk):
        with pytest.raises(KernelValidationError) as excinfo:
            load_document(junk)
        assert excinfo.value.code in ERROR_CODES


# --- canonical-form properties (hypothesis) -----------------------------


def _reorder(value, rng):
    """Deep-copy ``value`` with every dict rebuilt in shuffled key
    order (Python dicts preserve insertion order, so this genuinely
    permutes the serialized form)."""
    if isinstance(value, dict):
        keys = sorted(value)
        rng.shuffle(keys)
        return {k: _reorder(value[k], rng) for k in keys}
    if isinstance(value, list):
        return [_reorder(v, rng) for v in value]
    return value


class TestCanonicalProperties:
    @given(seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_canonicalize_is_idempotent(self, seed):
        document = generate_document(random.Random(seed))
        once = canonical_json(canonicalize_document(document))
        assert canonical_json(
            canonicalize_document(json.loads(once))
        ) == once

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 31),
        shuffle_seed=st.integers(min_value=0, max_value=2 ** 31),
    )
    @settings(max_examples=50, deadline=None)
    def test_hash_invariant_to_key_order(self, seed, shuffle_seed):
        document = generate_document(random.Random(seed))
        shuffled = _reorder(document, random.Random(shuffle_seed))
        assert shuffled == document  # same content...
        assert document_hash(shuffled) == document_hash(document)
        assert load_document(shuffled).kernel_id == load_document(
            document
        ).kernel_id

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 31),
        indent=st.sampled_from([None, 0, 1, 2, 4, 8]),
    )
    @settings(max_examples=50, deadline=None)
    def test_hash_invariant_to_whitespace(self, seed, indent):
        document = generate_document(random.Random(seed))
        rewrapped = json.loads(json.dumps(document, indent=indent))
        assert document_hash(rewrapped) == document_hash(document)

    @given(seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_kernel_id_invariant_to_numeric_spelling(self, seed):
        """``2`` and ``2.0`` are the same constant after
        canonicalization, so they register under the same kernel id
        (the raw ``document_hash`` of the *uncanonicalized* spelling
        may differ — ids always come from the canonical form)."""
        document = generate_document(random.Random(seed))
        respelled = copy.deepcopy(document)
        for node in respelled["nodes"]:
            if node["op"] == "const" and node["value"] == int(node["value"]):
                node["value"] = int(node["value"])
        assert load_document(respelled).kernel_id == load_document(
            document
        ).kernel_id
