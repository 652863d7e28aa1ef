"""Frozen outputs of the bundled examples, and the hash identity that keeps
set and dict iteration orders of nodes and edges fixed.

Each digest is a sha256 over every named literal of an example, each
explained in the polarity that holds: the root, the exit code, stdout and
stderr of one ``explain`` run.  A change in any graph, label or edge order
shows here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from aspexplain import cli, nodes, oracle
from aspexplain.aspif import parse_aspif
from aspexplain.egraph import EEdge
from aspexplain.ground import reconstruct

DATA = Path(__file__).parent / "data"

EXAMPLES = {
    "p1": ("p1.aspif", "p1_answer.txt"),
    "coloring": ("coloring.aspif", "coloring_answer.txt"),
}

FORMATS = {
    "dot": ("--format", "dot"),
    "dot_ascii": ("--format", "dot", "--ascii"),
    "json": ("--format", "json"),
}

GOLDEN = {
    ("p1", "dot"):
        "869b6ba2a07efd1017624b8b33bef7851180374fe76c2169e0257cefa2e5e0b1",
    ("p1", "dot_ascii"):
        "c8f579370cae97da529100e714ccda35eb48cd6502f86308249a1c1e3380e429",
    ("p1", "json"):
        "1a2dba9fcb8a3d87e4cca4a547a590bcb0e8e7b916a8d1a7ebd8c8dc5c5bed90",
    ("coloring", "dot"):
        "bb1d1539081146c53661b9771faa393de46df7b5305953c026b291be94e0fc55",
    ("coloring", "dot_ascii"):
        "08d4b9418911250ea06eb2c34da5efec07e202154a74dcf088248432727c6a82",
    ("coloring", "json"):
        "4b2829ee11ddb3a27b32b49ade7e93978a6d5524c73663b5d98c7565a8ed4219",
}

# --format text for one root of each example: both tables, U, the graph.
GOLDEN_TEXT = {
    ("p1", "m(1)"):
        "7c0aecb8d4a69209399cc5483aac955ac57fd2cdd81a1682c4554b4a2df080c4",
    ("coloring", "colored(1,red)"):
        "ba02cfa80d3a2790f7019b1092f6d5492fb3eee6f8b6409f46d31f89cf4b1320",
}


def _roots(example: str) -> list[str]:
    program, answer = EXAMPLES[example]
    g = reconstruct(parse_aspif((DATA / program).read_text()))
    holding = set((DATA / answer).read_text().split())
    names = sorted(g.display_atom(aid) for aid in g.named_ids())
    return [name if name in holding else "~" + name for name in names]


def _run(capsys, example: str, root: str, *extra: str) -> bytes:
    program, answer = EXAMPLES[example]
    code = cli.main(["explain", str(DATA / program),
                     "--answer-set", str(DATA / answer),
                     "--root", root, *extra])
    captured = capsys.readouterr()
    return "\x00".join((root, str(code), captured.out,
                        captured.err)).encode() + b"\x01"


@pytest.mark.parametrize("example, fmt", sorted(GOLDEN))
def test_explain_every_literal_matches_golden_digest(capsys, example, fmt):
    digest = hashlib.sha256()
    for root in _roots(example):
        digest.update(_run(capsys, example, root, *FORMATS[fmt]))
    assert digest.hexdigest() == GOLDEN[example, fmt]


@pytest.mark.parametrize("example, root", sorted(GOLDEN_TEXT))
def test_text_report_matches_golden_digest(capsys, example, root):
    out = _run(capsys, example, root, "--format", "text")
    assert hashlib.sha256(out).hexdigest() == GOLDEN_TEXT[example, root]


EVERY_KIND = [
    nodes.atom_node("a"),
    nodes.neg_atom_node("a"),
    nodes.top_node(),
    nodes.bottom_node(),
    nodes.assume_node(),
    nodes.plus_choice_node(),
    nodes.minus_choice_node(),
    nodes.star_true_node(),
    nodes.star_empty_node(),
    nodes.tuple_node((("a", True), ("b", False))),
    nodes.choice_node(1, 2, ((("a", True),), (("b", True), ("c", False)))),
    nodes.choice_node(0, None, ((("a", True),),), positive=False),
    nodes.constraint_node("a", False),
    nodes.ENode(nodes.ATOM, (), label_override="a"),
]


def test_every_node_kind_is_covered():
    assert {n.kind for n in EVERY_KIND} == set(nodes.EDGE_LABEL)


@pytest.mark.parametrize("node", EVERY_KIND, ids=lambda n: n.render())
def test_node_hashes_as_its_field_tuple(node):
    fields = (node.kind, node.payload, node.label_override)
    assert tuple(node) == fields
    assert hash(node) == hash(tuple(node)) == hash(fields)
    assert node == fields


def test_edge_hashes_as_its_field_tuple():
    source, target = nodes.atom_node("a"), nodes.choice_node(0, None, ())
    edge = EEdge(source, target, nodes.edge_label(target))
    fields = (source, target, "plus")
    assert tuple(edge) == fields
    assert hash(edge) == hash(tuple(edge)) == hash(fields)


# sha256 of `aspexplain parse` stdout: the reconstructed rules, the symbol
# table and NANT.
GOLDEN_PARSE = {
    "p1": "bad85e3947dacf2601d67583e248d813a53085819e892d87df8861a0cdcb3006",
    "coloring":
        "05f6111d03a792bf77db80beef107b1390ea7dc9106df2c97b6cbd767e131e78",
}

# One sha256 over the reconstruction of random_program seeds 0..199 with
# 6, 8 and 10 atoms: every rule's text, kind, heads, statement index and
# element conditions, then NANT and the warnings of each program.
GOLDEN_RECONSTRUCTION = \
    "7c217fc0546aaffee8f1e80fda5a14ed73d6dfc7b81f6ea6e5df4d6ef1f7db50"


@pytest.mark.parametrize("example", sorted(GOLDEN_PARSE))
def test_parse_output_matches_golden_digest(capsys, example):
    code = cli.main(["parse", str(DATA / EXAMPLES[example][0])])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == GOLDEN_PARSE[example]


def test_random_reconstructions_match_golden_digest():
    digest = hashlib.sha256()
    for seed in range(200):
        for n_atoms in (6, 8, 10):
            g = oracle.random_program(seed, n_atoms=n_atoms, p_choice=0.5)
            for rule in g.rules:
                digest.update(repr((
                    g.rule_text(rule), rule.kind, rule.heads,
                    rule.statement_index,
                    sorted(rule.element_conditions.items()))).encode())
            digest.update(repr((g.nant_names(), g.warnings)).encode())
    assert digest.hexdigest() == GOLDEN_RECONSTRUCTION
