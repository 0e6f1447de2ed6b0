"""Binary model persistence.

Layout (all integers little-endian, documented in docs/model_format.md):

    magic   8 bytes  b"HPYPM1\\n\\0"
    version u16
    length  u64      payload byte count
    payload ...      sections below
    digest  32 bytes SHA-256 of the payload

Payload sections, in order: task/context-mode/base-variant flags, rare
threshold, context cap, root id, symbol tables, known vocabulary, rules,
PCFG tables, depth parameters, the context trie (preorder, children
sorted by edge label, dishes sorted by id), and base draw counts. Table
counts are not stored: under the minimal seating assumption a dish has a
table exactly when it has a customer. All map iterations are sorted, so
serialization is deterministic: equal models produce equal bytes.
"""

from __future__ import annotations

import hashlib
import io
import struct

import numpy as np

from .errors import GrammarError, ModelFormatError
from .grammar import Grammar, Sym
from .hpyp import ContextTrie, DepthParams, Restaurant
from .model import TASK_PARSE, TASK_TAG, TrainedModel, make_base
from .pcfg import Pcfg
from .signatures import SignatureMapper

MAGIC = b"HPYPM1\n\x00"
VERSION = 1

_TASKS = (TASK_PARSE, TASK_TAG)
_MODES = ("nonterminal", "rule")
_BASES = ("uniform", "mle")


class _Writer:
    def __init__(self) -> None:
        self.buf = io.BytesIO()

    def u8(self, v: int) -> None:
        self.buf.write(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self.buf.write(struct.pack("<I", v))

    def i32(self, v: int) -> None:
        self.buf.write(struct.pack("<i", v))

    def u64(self, v: int) -> None:
        self.buf.write(struct.pack("<Q", v))

    def f64(self, v: float) -> None:
        self.buf.write(struct.pack("<d", v))

    def text(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self.buf.write(raw)


class _Reader:
    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise ModelFormatError("truncated model payload")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def text(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def _write_trie(w: _Writer, trie: ContextTrie) -> None:
    w.u64(trie.num_events)
    w.u32(trie.max_depth)
    tasks: list[tuple[str, object]] = [("node", trie.root)]
    while tasks:
        kind, payload = tasks.pop()
        if kind == "edge":
            w.u32(payload)  # type: ignore[arg-type]
            continue
        node: Restaurant = payload  # type: ignore[assignment]
        w.u32(len(node.customers))
        for dish in sorted(node.customers):
            w.u32(dish)
            w.u32(node.customers[dish])
        children = sorted(node.children.items())
        w.u32(len(children))
        for edge, child in reversed(children):
            tasks.append(("node", child))
            tasks.append(("edge", edge))
    w.u32(len(trie.base_counts))
    for dish in sorted(trie.base_counts):
        w.u32(dish)
        w.u32(trie.base_counts[dish])


def _read_restaurant_payload(r: _Reader, node: Restaurant) -> int:
    for _ in range(r.u32()):
        dish = r.u32()
        count = r.u32()
        node.customers[dish] = count
        node.total_customers += count
    return r.u32()


def _read_trie(r: _Reader, num_dishes: int) -> ContextTrie:
    num_events = r.u64()
    max_depth = r.u32()
    root = Restaurant()
    stack = [(root, _read_restaurant_payload(r, root))]
    while stack:
        parent, remaining = stack[-1]
        if remaining == 0:
            stack.pop()
            continue
        stack[-1] = (parent, remaining - 1)
        edge = r.u32()
        child = Restaurant()
        parent.children[edge] = child
        stack.append((child, _read_restaurant_payload(r, child)))
    base_counts = {}
    for _ in range(r.u32()):
        dish = r.u32()
        base_counts[dish] = r.u32()
    return ContextTrie(
        num_dishes=num_dishes,
        root=root,
        base_counts=base_counts,
        num_events=num_events,
        max_depth=max_depth,
    )


def save_model(model: TrainedModel) -> bytes:
    w = _Writer()
    w.u8(_TASKS.index(model.task))
    w.u8(_MODES.index(model.context_mode))
    w.u8(_BASES.index(model.base.variant))
    w.u32(model.mapper.threshold)
    w.i32(-1 if model.context_cap is None else model.context_cap)
    assert model.grammar.root is not None
    w.u32(model.grammar.root)

    grammar = model.grammar
    w.u32(len(grammar.nonterminals))
    for text in grammar.nonterminals.texts():
        w.text(text)
    w.u32(len(grammar.terminals))
    for text in grammar.terminals.texts():
        w.text(text)

    known_ids = sorted(grammar.terminals.id(word) for word in model.mapper.known)
    w.u32(len(known_ids))
    for tid in known_ids:
        w.u32(tid)

    w.u32(grammar.num_rules)
    for rule in grammar.rules:
        w.u32(rule.lhs)
        w.u8(len(rule.rhs))
        for sym in rule.rhs:
            w.u8(int(sym.terminal))
            w.u32(sym.id)

    for p in model.pcfg.rule_probs:
        w.f64(float(p))
    for p in model.pcfg.lhs_freq:
        w.f64(float(p))

    w.u32(model.params.depths)
    for m in range(model.params.depths):
        w.f64(float(model.params.discount[m]))
        w.f64(float(model.params.concentration[m]))
        w.f64(float(model.params.beta_a[m]))
        w.f64(float(model.params.beta_b[m]))
        w.f64(float(model.params.gamma_shape[m]))
        w.f64(float(model.params.gamma_rate[m]))

    _write_trie(w, model.trie)

    payload = w.buf.getvalue()
    return MAGIC + struct.pack("<H", VERSION) + struct.pack("<Q", len(payload)) + payload + hashlib.sha256(payload).digest()


def load_model(raw: bytes) -> TrainedModel:
    if len(raw) < len(MAGIC) + 10:
        raise ModelFormatError("file too short to be a model")
    if raw[: len(MAGIC)] != MAGIC:
        raise ModelFormatError("bad magic; not a model file")
    offset = len(MAGIC)
    (version,) = struct.unpack_from("<H", raw, offset)
    if version != VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    (length,) = struct.unpack_from("<Q", raw, offset + 2)
    start = offset + 10
    if len(raw) != start + length + 32:
        raise ModelFormatError("truncated or oversized model file")
    payload = raw[start : start + length]
    digest = raw[start + length :]
    if hashlib.sha256(payload).digest() != digest:
        raise ModelFormatError("checksum mismatch; model file is corrupted")
    try:
        return _read_payload(payload)
    except (IndexError, ValueError, GrammarError) as exc:
        # out-of-range ids and flags, bad UTF-8, an inconsistent grammar
        # or base distribution: a payload written by no valid model
        raise ModelFormatError(f"invalid model payload: {exc}") from exc


def _read_payload(payload: bytes) -> TrainedModel:
    r = _Reader(payload)
    task = _TASKS[r.u8()]
    mode = _MODES[r.u8()]
    base_variant = _BASES[r.u8()]
    threshold = r.u32()
    cap = r.i32()
    root = r.u32()

    grammar = Grammar()
    for _ in range(r.u32()):
        grammar.nonterminal(r.text())
    for _ in range(r.u32()):
        grammar.terminal(r.text())
    known = {grammar.terminals.text(r.u32()) for _ in range(r.u32())}
    for _ in range(r.u32()):
        lhs = r.u32()
        rhs = tuple(Sym(bool(r.u8()), r.u32()) for _ in range(r.u8()))
        grammar.add_rule(lhs, rhs)
    grammar.set_root(root)
    grammar.validate()

    rule_probs = np.array([r.f64() for _ in range(grammar.num_rules)])
    lhs_freq = np.array([r.f64() for _ in range(len(grammar.nonterminals))])
    pcfg = Pcfg(grammar, rule_probs, lhs_freq)

    depths = r.u32()
    fields = np.array([[r.f64() for _ in range(6)] for _ in range(depths)])
    params = DepthParams(
        discount=fields[:, 0].copy(),
        concentration=fields[:, 1].copy(),
        beta_a=fields[:, 2].copy(),
        beta_b=fields[:, 3].copy(),
        gamma_shape=fields[:, 4].copy(),
        gamma_rate=fields[:, 5].copy(),
    )

    trie = _read_trie(r, grammar.num_rules)
    if r.pos != len(payload):
        raise ModelFormatError("trailing bytes in model payload")

    return TrainedModel(
        grammar=grammar,
        context_mode=mode,
        task=task,
        trie=trie,
        params=params,
        base=make_base(base_variant, pcfg),
        pcfg=pcfg,
        mapper=SignatureMapper(known, threshold, frozenset(grammar.terminals.texts())),
        context_cap=None if cap < 0 else cap,
    )


def save_model_file(model: TrainedModel, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(save_model(model))


def load_model_file(path: str) -> TrainedModel:
    with open(path, "rb") as fh:
        return load_model(fh.read())
