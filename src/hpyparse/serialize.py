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
table exactly when it has a customer. The base draws (one per dish at the
top restaurant) are stored, and checked against the trie on load. All map
iterations are sorted, so serialization is deterministic: equal models
produce equal bytes.
"""

from __future__ import annotations

import hashlib
import io
import struct

import numpy as np

from .errors import GrammarError, ModelFormatError, file_errors
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
# the six values of a depth row, in the order they are stored
_DEPTH_FIELDS = ("discount", "concentration", "beta_a", "beta_b", "gamma_shape", "gamma_rate")


class _Writer:
    def __init__(self) -> None:
        self.buf = io.BytesIO()

    def pack(self, fmt: str, *values) -> None:
        """Write ``values`` in the little-endian ``struct`` format ``fmt``."""
        self.buf.write(struct.pack("<" + fmt, *values))

    def text(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.pack(f"I{len(raw)}s", len(raw), raw)

    def pairs(self, counts: dict[int, int]) -> None:
        """A count, then the (key, value) pairs sorted by key."""
        flat = [v for key in sorted(counts) for v in (key, counts[key])]
        self.pack(f"I{len(flat)}I", len(counts), *flat)


class _Reader:
    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.pos = 0

    def unpack(self, fmt: str) -> tuple:
        """Read the values of the little-endian ``struct`` format ``fmt``."""
        fmt = "<" + fmt
        end = self.pos + struct.calcsize(fmt)
        if end > len(self.raw):
            raise ModelFormatError("truncated model payload")
        values = struct.unpack_from(fmt, self.raw, self.pos)
        self.pos = end
        return values

    def text(self) -> str:
        (size,) = self.unpack("I")
        return self.unpack(f"{size}s")[0].decode("utf-8")

    def pairs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The keys and the values a ``_Writer.pairs`` call wrote."""
        (count,) = self.unpack("I")
        flat = self.unpack(f"{2 * count}I")
        return flat[::2], flat[1::2]


def _write_trie(w: _Writer, trie: ContextTrie) -> None:
    w.pack("QI", trie.num_events, trie.max_depth)
    for _, key, node in trie.iter_restaurants():
        if key:
            w.pack("I", key[-1])
        w.pairs(node.customers)
        w.pack("I", len(node.children))
    w.pairs(trie.base_counts)


def _read_restaurant_payload(r: _Reader, node: Restaurant, num_dishes: int) -> int:
    dishes, counts = r.pairs()
    if dishes and max(dishes) >= num_dishes:
        raise ModelFormatError(f"dish {max(dishes)} outside the {num_dishes} rules")
    if 0 in counts:
        raise ModelFormatError("restaurant lists a dish with 0 customers")
    node.customers = dict(zip(dishes, counts))
    if len(node.customers) < len(dishes):
        raise ModelFormatError("restaurant lists a dish id twice")
    node.total_customers = sum(counts)
    return r.unpack("I")[0]


def _own_customers(node: Restaurant) -> int:
    """The restaurant's customers less its children's proxies: the events
    seated at its own context. Refuses fewer customers of a dish than
    children serving it: under minimal seating each such child sends the
    restaurant one proxy."""
    served: dict[int, int] = {}
    for child in node.children.values():
        for dish in child.customers:
            served[dish] = count = served.get(dish, 0) + 1
            if node.customers.get(dish, 0) < count:
                raise ModelFormatError(f"{count} children serve dish {dish}, more than their parent seats")
    return node.total_customers - sum(served.values())


def _check_suffix_links(root: Restaurant) -> None:
    """Refuses a restaurant whose context without its newest element has
    none (``TrainedModel.step`` relies on it). That restaurant of a child
    is the child, under the same edge, of its parent's one."""
    stack = [(node, root) for node in root.children.values()]
    while stack:
        node, shorter = stack.pop()
        for edge, child in node.children.items():
            link = shorter.children.get(edge)
            if link is None:
                raise ModelFormatError(f"edge {edge} leads to a restaurant whose context without its newest element has none")
            stack.append((child, link))


def _read_trie(r: _Reader, num_dishes: int) -> ContextTrie:
    num_events, max_depth = r.unpack("QI")
    root = Restaurant()
    # the restaurant at stack position k has depth k
    stack = [(root, _read_restaurant_payload(r, root, num_dishes))]
    events = 0
    while stack:
        parent, remaining = stack[-1]
        if remaining == 0:
            stack.pop()
            events += _own_customers(parent)
            continue
        if len(stack) > max_depth:
            raise ModelFormatError(f"restaurant deeper than the maximum depth {max_depth}")
        stack[-1] = (parent, remaining - 1)
        (edge,) = r.unpack("I")
        if edge in parent.children:
            raise ModelFormatError(f"restaurant lists child edge {edge} twice")
        child = Restaurant()
        parent.children[edge] = child
        stack.append((child, _read_restaurant_payload(r, child, num_dishes)))
    if events != num_events:
        raise ModelFormatError(f"restaurants seat {events} events, not the {num_events} stored")
    _check_suffix_links(root)
    trie = ContextTrie(num_dishes=num_dishes, root=root, num_events=num_events, max_depth=max_depth)
    if dict(zip(*r.pairs())) != trie.base_counts:
        raise ModelFormatError("base draw counts do not match the top restaurant")
    return trie


def save_model(model: TrainedModel) -> bytes:
    w = _Writer()
    assert model.grammar.root is not None
    w.pack(
        "BBBIiI",
        _TASKS.index(model.task),
        _MODES.index(model.context_mode),
        _BASES.index(model.base.variant),
        model.mapper.threshold,
        -1 if model.context_cap is None else model.context_cap,
        model.grammar.root,
    )

    grammar = model.grammar
    w.pack("I", len(grammar.nonterminals))
    for text in grammar.nonterminals.texts():
        w.text(text)
    w.pack("I", len(grammar.terminals))
    for text in grammar.terminals.texts():
        w.text(text)

    known_ids = sorted(grammar.terminals.id(word) for word in model.mapper.known)
    w.pack(f"I{len(known_ids)}I", len(known_ids), *known_ids)

    w.pack("I", grammar.num_rules)
    for rule in grammar.rules:
        w.pack("IB", rule.lhs, len(rule.rhs))
        for sym in rule.rhs:
            w.pack("BI", int(sym.terminal), sym.id)

    w.pack(f"{len(model.pcfg.rule_probs)}d", *model.pcfg.rule_probs.tolist())
    w.pack(f"{len(model.pcfg.lhs_freq)}d", *model.pcfg.lhs_freq.tolist())

    w.pack("I", model.params.depths)
    for m in range(model.params.depths):
        w.pack("6d", *(float(getattr(model.params, name)[m]) for name in _DEPTH_FIELDS))

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
    task, mode, base_variant, threshold, cap, root = r.unpack("BBBIiI")
    task, mode, base_variant = _TASKS[task], _MODES[mode], _BASES[base_variant]

    grammar = Grammar()
    for _ in range(r.unpack("I")[0]):
        grammar.nonterminal(r.text())
    for _ in range(r.unpack("I")[0]):
        grammar.terminal(r.text())
    (count,) = r.unpack("I")
    known = {grammar.terminals.text(tid) for tid in r.unpack(f"{count}I")}
    for _ in range(r.unpack("I")[0]):
        lhs, arity = r.unpack("IB")
        rhs = tuple(Sym(bool(flag), sid) for flag, sid in (r.unpack("BI") for _ in range(arity)))
        grammar.add_rule(lhs, rhs)
    grammar.set_root(root)
    grammar.validate()

    rule_probs = np.array(r.unpack(f"{grammar.num_rules}d"))
    lhs_freq = np.array(r.unpack(f"{len(grammar.nonterminals)}d"))
    pcfg = Pcfg(grammar, rule_probs, lhs_freq)

    rows = np.array([r.unpack("6d") for _ in range(r.unpack("I")[0])])
    params = DepthParams(**{name: rows[:, k].copy() for k, name in enumerate(_DEPTH_FIELDS)})
    params.check_box()
    if not np.all((rows[:, 2:] > 0) & np.isfinite(rows[:, 2:])):
        raise ModelFormatError("hyperprior parameters must be positive and finite")

    trie = _read_trie(r, grammar.num_rules)
    if r.pos != len(payload):
        raise ModelFormatError("trailing bytes in model payload")
    if params.depths < trie.depth_count():
        raise ModelFormatError(f"{params.depths} depth rows for {trie.depth_count()} trie depths")

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
    with file_errors("write", path), open(path, "wb") as fh:
        fh.write(save_model(model))


def load_model_file(path: str) -> TrainedModel:
    with file_errors("read", path), open(path, "rb") as fh:
        data = fh.read()
    return load_model(data)
