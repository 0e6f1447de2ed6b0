import pytest

from hpyparse.errors import GrammarError
from hpyparse.grammar import Grammar, Rule, Sym
from hpyparse.hypergraph import build_hypergraph


def toy_grammar() -> Grammar:
    g = Grammar()
    s, a, b = g.nonterminal("S"), g.nonterminal("A"), g.nonterminal("B")
    x, y = g.terminal("x"), g.terminal("y")
    g.add_rule(s, (Sym(False, a), Sym(False, b)))
    g.add_rule(a, (Sym(True, x),))
    g.add_rule(b, (Sym(True, y),))
    g.set_root(s)
    return g


def test_symbol_interning_is_dense_and_bijective():
    g = Grammar()
    ids = [g.nonterminal(t) for t in ["S", "NP", "VP", "NP"]]
    assert ids == [0, 1, 2, 1]
    assert g.nonterminals.text(2) == "VP"
    assert g.nonterminals.id("NP") == 1
    # separate id space per kind
    assert g.terminal("NP") == 0
    assert g.terminals.text(0) == "NP"


def test_unknown_symbol_raises():
    g = Grammar()
    with pytest.raises(KeyError):
        g.nonterminals.id("missing")


def test_empty_symbol_rejected():
    g = Grammar()
    with pytest.raises(GrammarError):
        g.nonterminal("")


def test_rules_deduplicate_and_index_by_lhs():
    g = toy_grammar()
    s = g.nonterminals.id("S")
    a, b = g.nonterminals.id("A"), g.nonterminals.id("B")
    rid = g.add_rule(s, (Sym(False, a), Sym(False, b)))
    assert rid == 0  # same rule, same id
    assert g.num_rules == 3
    assert g.rules_for(s) == [0]
    assert {g.rules[r].lhs for r in g.rules_for(a)} == {a}
    g.validate()


def test_rule_tables_see_a_rule_added_after_they_are_built():
    g = toy_grammar()
    s, a, b = (g.nonterminals.id(t) for t in "SAB")
    assert build_hypergraph(g, ["y", "x"]).empty  # builds the tables
    assert g.unary_rule_order() == []
    swapped = g.add_rule(s, (Sym(False, b), Sym(False, a)))
    c = g.nonterminal("C")
    g.add_rule(c, (Sym(True, g.terminals.id("x")),))
    unary = g.add_rule(a, (Sym(False, c),))
    assert g.rules_for(s) == [0, swapped]
    assert g.rules_for(a) == [1, unary]
    assert g.lhs_position[swapped] == 1 and g.lhs_position[unary] == 1
    assert g.unary_rule_order() == [unary]
    hg = build_hypergraph(g, ["y", "x"])
    assert hg.edges[hg.root] == [(swapped, 1)]
    assert hg.edges[(a, 1, 2)] == [(1, -1), (unary, -1)]
    # S has only ever spanned a whole sentence; as a left child it can
    # end early, and the rebuilt tables must let it
    assert build_hypergraph(g, ["y", "x", "x"]).empty
    left_s = g.add_rule(s, (Sym(False, s), Sym(False, a)))
    hg = build_hypergraph(g, ["y", "x", "x"])
    assert hg.edges[hg.root] == [(left_s, 2)]
    assert hg.edges[(s, 0, 2)] == [(swapped, 1)]
    g.validate()


def test_rule_shape_flags():
    g = toy_grammar()
    s = g.nonterminals.id("S")
    x = g.terminals.id("x")
    mixed = g.add_rule(s, (Sym(False, g.nonterminals.id("A")), Sym(True, x)))
    assert g.rules[mixed].is_binary
    lex = g.rules[g.rules_for(g.nonterminals.id("A"))[0]]
    assert lex.is_lexical and not lex.is_unary
    unary = Rule(s, (Sym(False, g.nonterminals.id("A")),))
    assert unary.is_unary and not unary.is_lexical


def test_rule_arity_bounds():
    g = toy_grammar()
    with pytest.raises(GrammarError):
        g.add_rule(0, ())
    with pytest.raises(GrammarError):
        g.add_rule(0, (Sym(True, 0),) * 3)


def test_unary_order_children_first():
    g = Grammar()
    a, b, c = g.nonterminal("A"), g.nonterminal("B"), g.nonterminal("C")
    x = g.terminal("x")
    r_ab = g.add_rule(a, (Sym(False, b),))
    r_bc = g.add_rule(b, (Sym(False, c),))
    g.add_rule(c, (Sym(True, x),))
    order = g.unary_rule_order()
    assert order.index(r_bc) < order.index(r_ab)


def test_unary_cycle_rejected():
    g = Grammar()
    a, b = g.nonterminal("A"), g.nonterminal("B")
    g.add_rule(a, (Sym(False, b),))
    g.add_rule(b, (Sym(False, a),))
    with pytest.raises(GrammarError):
        g.unary_rule_order()


def test_validate_requires_root():
    g = Grammar()
    g.nonterminal("S")
    with pytest.raises(GrammarError):
        g.validate()
