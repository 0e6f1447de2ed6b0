"""Tree transformations: right binarization and the tag-sequence encoding.

Binarization, its inverse and tag read-back are ``rebuild_tree`` folds;
the encoding builds its tree with spans set.

Reserved label markers (inputs may not already use them where noted):
  * ``|``   suffix on intermediate nodes introduced by right binarization
  * ``'``   suffix on twin tags introduced by the tag-sequence encoding
  * ``<S>`` the distinguished start tag rooting encoded tag sequences
"""

from __future__ import annotations

from .errors import DataError
from .trees import Sentence, Tree, annotate_spans, rebuild_tree

BAR_SUFFIX = "|"
TWIN_SUFFIX = "'"
START_TAG = "<S>"


def bar_label(label: str) -> str:
    return label + BAR_SUFFIX


def is_bar_label(label: str) -> bool:
    return label.endswith(BAR_SUFFIX)


def twin_label(tag: str) -> str:
    return tag + TWIN_SUFFIX


def is_twin_label(label: str) -> bool:
    return label.endswith(TWIN_SUFFIX)


def binarize_right(tree: Tree) -> Tree:
    """Split n-ary nodes down the right spine with ``label|`` intermediates.

    A node ``A -> c1 c2 ... cn`` (n > 2) becomes ``A -> c1 A|`` with
    ``A| -> c2 A|``, ..., ending in ``A| -> c(n-1) cn``. The intermediate
    carries no sibling history, so unbinarize_right inverts it exactly.
    """

    def build(node: Tree, children: list[Tree | str]) -> Tree:
        if is_bar_label(node.label):
            raise DataError(
                f"label {node.label!r} uses the reserved binarization marker"
            )
        if len(children) <= 2:
            return Tree(node.label, children)
        tail = Tree(bar_label(node.label), children[-2:])
        for child in reversed(children[1:-2]):
            tail = Tree(bar_label(node.label), [child, tail])
        return Tree(node.label, [children[0], tail])

    out = rebuild_tree(tree, lambda word: word, build)
    annotate_spans(out)
    return out


def unbinarize_right(tree: Tree) -> Tree:
    """Splice out ``label|`` intermediates; exact inverse of binarize_right."""
    if is_bar_label(tree.label):
        raise DataError("cannot unbinarize a tree rooted at an intermediate node")

    def build(node: Tree, children: list) -> Tree | list:
        # an intermediate returns its children for its parent to splice in
        spliced: list[Tree | str] = []
        for child in children:
            spliced.extend(child if isinstance(child, list) else [child])
        return spliced if is_bar_label(node.label) else Tree(node.label, spliced)

    out = rebuild_tree(tree, lambda word: word, build)
    annotate_spans(out)
    return out


def pos_to_tree(tags: list[str], words: Sentence) -> Tree:
    """Encode a tag sequence as a right-branching tree rooted at <S>.

    Each non-final position k contributes a transition node labeled with
    the previous tag (or <S>) whose children are the twin preterminal
    emitting word k and the node for the rest of the sentence; the final
    transition has the twin child only, so the last emission terminates
    the branch.
    """
    if len(tags) != len(words):
        raise DataError(f"{len(tags)} tags for {len(words)} words")
    if not tags:
        raise DataError("empty tag sequence")
    for tag in tags:
        if is_twin_label(tag) or tag == START_TAG:
            raise DataError(f"tag {tag!r} collides with a reserved marker")
    n = len(tags)
    tail: Tree | None = None
    for k in range(n - 1, -1, -1):
        emit = Tree(twin_label(tags[k]), [words[k]], (k, k + 1))
        label = tags[k - 1] if k >= 1 else START_TAG
        tail = Tree(label, [emit] if tail is None else [emit, tail], (k, n))
    assert tail is not None
    return tail


def tree_to_pos(tree: Tree) -> tuple[list[str], Sentence]:
    """Recover (tags, words) from a tree over twin-emission rules.

    Works for any tree in which every word is emitted by a twin
    preterminal, which covers both canonical encodings and decoder
    output over an encoded-tag grammar.
    """
    tags: list[str] = []
    words: Sentence = []

    # a preterminal is folded right after its words, so in yield order
    def node(current: Tree, _: list[None]) -> None:
        for child in current.children:
            if isinstance(child, str):
                if not is_twin_label(current.label) or len(current.children) != 1:
                    raise DataError(f"word {child!r} is not emitted by a twin preterminal")
                tags.append(current.label[: -len(TWIN_SUFFIX)])
                words.append(child)

    rebuild_tree(tree, lambda _: None, node)
    return tags, words
