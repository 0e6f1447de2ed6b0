import contextlib
import copy
import hashlib
import io
import multiprocessing
import os
import random
import struct
import sys
import traceback
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hpyparse.cli import main
from hpyparse.config import RunConfig
from hpyparse.errors import ModelFormatError
from hpyparse.model import train_model
from hpyparse.serialize import MAGIC, load_model, save_model
from hpyparse.trees import read_treebank


def random_queries(model, rng, count=1000):
    grammar = model.grammar
    nts = len(grammar.nonterminals)
    out = []
    for _ in range(count):
        depth = int(rng.integers(0, 6))
        context = tuple(int(rng.integers(0, nts)) for _ in range(depth))
        out.append((context, int(rng.integers(0, grammar.num_rules))))
    return out


def test_round_trip_preserves_predictions(toy_model):
    blob = save_model(toy_model)
    again = load_model(blob)
    rng = np.random.default_rng(0)
    for context, rule in random_queries(toy_model, rng):
        assert again.trie.predictive_prob(context, rule, again.params, again.base) == (
            toy_model.trie.predictive_prob(context, rule, toy_model.params, toy_model.base)
        )
    assert again.task == toy_model.task
    assert again.context_mode == toy_model.context_mode
    assert again.mapper.known == toy_model.mapper.known
    assert again.trie.num_events == toy_model.trie.num_events
    assert again.trie.max_depth == toy_model.trie.max_depth


def test_round_trip_is_byte_stable(toy_model):
    blob = save_model(toy_model)
    assert save_model(load_model(blob)) == blob
    assert save_model(toy_model) == blob


def test_minimal_model_round_trips():
    corpus, _ = read_treebank("(S a)")
    model, _ = train_model(corpus, RunConfig())
    blob = save_model(model)
    again = load_model(blob)
    assert again.grammar.num_rules == 1
    assert again.trie.predictive_prob((), 0, again.params, again.base) == pytest.approx(
        model.trie.predictive_prob((), 0, model.params, model.base)
    )


def test_corruption_detected(toy_model):
    blob = bytearray(save_model(toy_model))
    # flip one payload byte; must fail the checksum, never load silently
    blob[len(MAGIC) + 10 + 37] ^= 0xFF
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(bytes(blob))


def test_truncation_detected(toy_model):
    blob = save_model(toy_model)
    with pytest.raises(ModelFormatError):
        load_model(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError):
        load_model(blob[:4])


def test_bad_magic_and_version(toy_model):
    blob = save_model(toy_model)
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(b"NOTAMODEL" + blob[9:])
    tampered = bytearray(blob)
    tampered[len(MAGIC)] = 0xEE  # version word
    with pytest.raises(ModelFormatError, match="version"):
        load_model(bytes(tampered))


def test_context_cap_round_trips(toy_model):
    import dataclasses

    capped = dataclasses.replace(toy_model, context_cap=2)
    again = load_model(save_model(capped))
    assert again.context_cap == 2


def _redigest(blob: bytes, payload: bytes) -> bytes:
    """``blob`` with its payload replaced and the length and digest fixed."""
    header = blob[: len(MAGIC) + 2]
    return header + struct.pack("<Q", len(payload)) + payload + hashlib.sha256(payload).digest()


@seed(20150309)
@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), min_size=1, max_size=3)
)
@example([(0, 7)])  # task flag out of range
def test_payload_corruption_raises_only_model_format_error(toy_model, mutations):
    # A valid digest over a mutated payload must load or be refused as a
    # model format error; any other exception is an internal error.
    blob = save_model(toy_model)
    payload = bytearray(blob[len(MAGIC) + 10 : -32])
    for pos, value in mutations:
        payload[pos % len(payload)] = value
    try:
        load_model(_redigest(blob, bytes(payload)))
    except ModelFormatError:
        pass


def test_base_draws_that_differ_from_the_top_restaurant_are_refused(toy_model):
    # each dish at the top restaurant has exactly one base draw; the last
    # four payload bytes are the last stored base count
    blob = save_model(toy_model)
    payload = bytearray(blob[len(MAGIC) + 10 : -32])
    assert struct.unpack("<I", payload[-4:]) == (1,)
    payload[-4:] = struct.pack("<I", 2)
    with pytest.raises(ModelFormatError, match="base draw"):
        load_model(_redigest(blob, bytes(payload)))


def _crafted(model, change):
    """The bytes of a copy of ``model`` altered by ``change``: a payload
    no trained model writes, under a valid digest. A change that
    ``save_model`` cannot write returns (old, new) payload bytes to swap."""
    crafted = copy.deepcopy(model)
    swap = change(crafted)
    blob = save_model(crafted)
    if swap is None:
        return blob
    old, new = swap
    payload = blob[len(MAGIC) + 10 : -32]
    assert payload.count(old) == 1
    return _redigest(blob, payload.replace(old, new))


def _foreign_top_dish(model):
    model.trie.root.customers[model.grammar.num_rules] = 1
    model.trie.root.total_customers += 1


def _too_few_depth_rows(model):
    model.trie.max_depth = model.params.depths


def _deeper_than_max_depth(model):
    model.trie.max_depth -= 1


def _discount_above_one(model):
    model.params.discount[0] = 1.5


def _discount_nan(model):
    model.params.discount[0] = np.nan


def _concentration_infinite(model):
    model.params.concentration[0] = np.inf


def _zero_dish_count(model):
    node = next(iter(model.trie.root.children.values()))
    node.customers[min(node.customers)] = 0


# counts no trained toy model holds, to find a spot in the payload by
_MARKS = (900_001, 900_002)


def _dish_listed_twice(model):
    # a depth-1 restaurant's first two (dish, count) pairs, the second
    # dish renamed to the first (at the top, the base draws would differ)
    customers = next(
        node.customers for node in model.trie.root.children.values() if len(node.customers) > 1
    )
    first, second = sorted(customers)[:2]
    customers[first], customers[second] = _MARKS
    old = struct.pack("<4I", first, _MARKS[0], second, _MARKS[1])
    return old, struct.pack("<4I", first, _MARKS[0], first, _MARKS[1])


def _edge_listed_twice(model):
    # the top restaurant's second child written under the first's edge label
    children = model.trie.root.children
    first, second = sorted(children)[:2]
    child = children[second]
    dish = min(child.customers)
    child.customers[dish] = _MARKS[0]
    tail = struct.pack("<3I", len(child.customers), dish, _MARKS[0])
    return struct.pack("<I", second) + tail, struct.pack("<I", first) + tail


def _dish_missing_at_parent(model):
    # a depth-2 restaurant serving a dish its depth-1 parent does not
    parent, child = next(
        (node, child)
        for node in model.trie.root.children.values()
        for child in node.children.values()
        if len(node.customers) < model.grammar.num_rules
    )
    dish = min(set(range(model.grammar.num_rules)) - set(parent.customers))
    child.customers[dish] = 1
    child.total_customers += 1


def _parent_short_of_proxies(model):
    # a restaurant with one customer of a dish that two children serve
    parent, dish = next(
        (node, dish)
        for _, _, node in model.trie.iter_restaurants()
        for dish, count in Counter(
            d for child in node.children.values() for d in child.customers
        ).items()
        if count > 1
    )
    parent.total_customers -= parent.customers[dish] - 1
    parent.customers[dish] = 1


def _suffix_link_missing(model):
    # a depth-2 leaf moved under an edge label no depth-1 context ends in,
    # so its context without its newest element has no restaurant
    parent, edge = next(
        (node, edge)
        for node in model.trie.root.children.values()
        for edge, child in node.children.items()
        if not child.children
    )
    parent.children[_MARKS[0]] = parent.children.pop(edge)


def _gamma_rate_zero(model):
    model.params.gamma_rate[0] = 0.0


def _beta_a_negative(model):
    model.params.beta_a[0] = -1.0


def _gamma_shape_zero(model):
    model.params.gamma_shape[0] = 0.0


def _leaf_count_inflated(model):
    # the customers then exceed the stored event count by 10**8, and
    # reading the seating statistics would allocate arrays that long
    leaf = next(node for _, _, node in model.trie.iter_restaurants() if not node.children)
    dish = min(leaf.customers)
    leaf.customers[dish] += 10**8
    leaf.total_customers += 10**8


CRAFTED = [
    (_foreign_top_dish, "dish"),
    (_too_few_depth_rows, "depth rows"),
    (_deeper_than_max_depth, "deeper"),
    (_discount_above_one, "discount"),
    (_discount_nan, "discount"),
    (_concentration_infinite, "concentration"),
    (_zero_dish_count, "0 customers"),
    (_dish_listed_twice, "dish id twice"),
    (_edge_listed_twice, "edge .* twice"),
    (_dish_missing_at_parent, "children serve dish"),
    (_parent_short_of_proxies, "children serve dish"),
    (_suffix_link_missing, "without its newest element"),
    (_gamma_rate_zero, "hyperprior"),
    (_beta_a_negative, "hyperprior"),
    (_gamma_shape_zero, "hyperprior"),
    (_leaf_count_inflated, "seat .* events"),
]
CRAFTED_IDS = [change.__name__[1:] for change, _ in CRAFTED]


@pytest.mark.parametrize("change, message", CRAFTED, ids=CRAFTED_IDS)
def test_crafted_payloads_are_refused(toy_model, change, message):
    with pytest.raises(ModelFormatError, match=message):
        load_model(_crafted(toy_model, change))


@pytest.mark.parametrize("change", [change for change, _ in CRAFTED], ids=CRAFTED_IDS)
def test_diagnose_on_a_crafted_model_is_a_data_error(toy_model, tmp_path, capsys, change):
    path = tmp_path / "crafted.model"
    path.write_bytes(_crafted(toy_model, change))
    assert main(["diagnose", "--model", str(path), "--out", str(tmp_path / "diag")]) == 2
    assert capsys.readouterr().err.startswith("data error:")


DATA = os.path.join(os.path.dirname(__file__), "..", "data")
FUZZ_MUTANTS = 1000
FUZZ_SEED = 20150309
FUZZ_HEADROOM = 1 << 30  # address space the fuzzing child may add to its own


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    """(name, model bytes, sentences file, one sentence) for the toy parse
    and tag models in both context modes."""
    root = tmp_path_factory.mktemp("fuzz")
    models = []
    for task, corpus, sentences in [
        ("parse", "toy_parse_train.mrg", "toy_parse_test_sentences.txt"),
        ("tag", "toy_tag_train.txt", "toy_tag_test_sentences.txt"),
    ]:
        sentences = os.path.join(DATA, sentences)
        with open(sentences, encoding="utf-8") as fh:
            sentence = fh.readline().strip()
        for mode in ("nonterminal", "rule"):
            path = root / f"{task}-{mode}.model"
            argv = ["train", os.path.join(DATA, corpus), "--model", str(path)]
            assert main(argv + ["--task", task, "--context-mode", mode]) == 0
            models.append((f"{task}-{mode}", path.read_bytes(), sentences, sentence))
    return models


def _run_mutants(models, workdir, count, rng):
    """Each of ``count`` re-digested single-byte mutants, through ``load_model``
    and, when it loads, through ``main`` for ``diagnose --sentence`` and
    ``predict`` with the A* and MH decoders. Returns (loaded, internal
    errors), an internal error being a load that raises anything but
    ``ModelFormatError`` or a run that exits 3."""
    path = os.path.join(workdir, "mutant.model")
    small = ["--iters", "12", "--burn-in", "2", "--seed", "3"]
    loaded, errors = 0, []
    for i in range(count):
        name, blob, sentences, sentence = models[i % len(models)]
        payload = bytearray(blob[len(MAGIC) + 10 : -32])
        pos = rng.randrange(len(payload))
        payload[pos] ^= rng.randrange(1, 256)
        mutant = _redigest(blob, bytes(payload))
        where = f"{name} byte {pos} -> {payload[pos]}"
        try:
            load_model(mutant)
        except ModelFormatError:
            continue
        except Exception:  # noqa: BLE001 - recorded as the failure
            errors.append(f"{where}: load_model: {traceback.format_exc(limit=-1)}")
            continue
        loaded += 1
        with open(path, "wb") as fh:
            fh.write(mutant)
        for command, argv in [
            ("diagnose", ["diagnose", "--model", path, "--sentence", sentence, "--out", workdir, *small]),
            ("astar-full", ["predict", sentences, "--model", path, "--decoder", "astar-full"]),
            ("mcmc", ["predict", sentences, "--model", path, "--decoder", "mcmc", *small]),
        ]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 3:
                errors.append(f"{where}: {command}: {err.getvalue().strip()}")
    return loaded, errors


def _fuzz_child(models, workdir, conn):
    # Cap this process alone: a mutant that makes the program allocate
    # past the cap raises MemoryError, which ``main`` reports as exit 3.
    import resource

    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        resource.setrlimit(resource.RLIMIT_AS, (size + FUZZ_HEADROOM, size + FUZZ_HEADROOM))
        conn.send(_run_mutants(models, workdir, FUZZ_MUTANTS, random.Random(FUZZ_SEED)))
    except BaseException:  # noqa: BLE001 - reported to the parent
        conn.send((0, [traceback.format_exc()]))
    finally:
        conn.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs fork and /proc")
def test_byte_mutated_models_never_exit_3(fuzz_models, tmp_path):
    # Seeded single-byte mutations of the toy models, each under a valid
    # digest: the reader refuses a mutant (exit 2), or the commands that
    # use it run to a data error or a result; none is an internal error.
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_fuzz_child, args=(fuzz_models, str(tmp_path), writer))
    child.start()
    writer.close()
    try:
        loaded, errors = reader.recv()
    finally:
        child.join()
    assert child.exitcode == 0
    assert errors == []
    assert loaded > 50  # the commands ran on a fair share of the mutants
