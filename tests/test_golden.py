"""Frozen outputs of the bundled examples, and the hash identity that keeps
set and dict iteration orders of nodes and edges fixed.

Each digest is a sha256 over every named literal of an example, each
explained in the polarity that holds: the root, the exit code, stdout and
stderr of one ``explain`` run.  A change in any graph, label or edge order
shows here.  Further digests pin the reconstruction of random programs, their
support tables, U and graphs, and the graph of a long positive chain.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from aspexplain import cli, nodes, oracle
from aspexplain.aspif import parse_aspif
from aspexplain.assumptions import minimal_assumption_sets
from aspexplain.constraints import constraint_preprocessing
from aspexplain.egraph import (
    EEdge,
    SupportTable,
    build_egraph,
    merge_supports,
    to_dot,
)
from aspexplain.errors import AspExplainError
from aspexplain.ground import reconstruct
from aspexplain.support import build_er, dump_table

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
    nodes.TOP_NODE,
    nodes.BOTTOM_NODE,
    nodes.ASSUME_NODE,
    nodes.PLUS_CHOICE_NODE,
    nodes.MINUS_CHOICE_NODE,
    nodes.STAR_TRUE_NODE,
    nodes.STAR_EMPTY_NODE,
    nodes.tuple_node((("a", True), ("b", False))),
    nodes.choice_node(1, 2, ((("a", True),), (("b", True), ("c", False)))),
    nodes.choice_node(0, None, ((("a", True),),), positive=False),
    nodes.constraint_node("a", False),
    nodes.ENode(nodes.ATOM, (), "a"),
]


def test_every_node_kind_is_covered():
    assert {n.kind for n in EVERY_KIND} == set(nodes.EDGE_LABEL)


@pytest.mark.parametrize("node", EVERY_KIND, ids=lambda n: n.render())
def test_node_hashes_as_its_field_tuple(node):
    fields = (node.kind, node.payload, node.label)
    assert tuple(node) == fields
    assert hash(node) == hash(tuple(node)) == hash(fields)
    assert node == fields


def reference_render(node: nodes.ENode, ascii_only: bool) -> str:
    """A node's label rebuilt from its kind and payload."""
    fixed = {
        nodes.ASSUME: ("assume", "assume"),
        nodes.PLUS_CHOICE: ("+choice", "+choice"),
        nodes.MINUS_CHOICE: ("-choice", "-choice"),
        nodes.STAR_TRUE: ("*True", "*True"),
        nodes.STAR_EMPTY: ("*Empty", "*Empty"),
        nodes.TOP: ("⊤", "T"),
        nodes.BOTTOM: ("⊥", "F"),
    }

    def tuple_text(items):
        parts = [name if positive else "not " + name
                 for name, positive in items]
        return parts[0] if len(parts) == 1 else "(" + ", ".join(parts) + ")"

    def bounds_text(payload):
        lower, upper, tuples = payload
        inner = "{" + ", ".join(tuple_text(t) for t in tuples) + "}"
        if upper is None:
            return f"{lower}<={inner}"
        return f"{lower}<={inner}<={upper}"

    kind = node.kind
    if kind in fixed:
        pretty, plain = fixed[kind]
        return plain if ascii_only else pretty
    if kind == nodes.ATOM:
        return node.payload[0]
    if kind == nodes.NEG_ATOM:
        return "~" + node.payload[0]
    if kind == nodes.TUPLE:
        return tuple_text(node.payload)
    if kind == nodes.CHOICE:
        return bounds_text(node.payload)
    if kind == nodes.NEG_CHOICE:
        return "~(" + bounds_text(node.payload) + ")"
    if kind == nodes.CONSTRAINT:
        name, positive = node.payload[0]
        return "triggered_constraint(%s)" % (name if positive else "~" + name)
    raise ValueError(f"unknown node kind {kind!r}")


def _table_nodes(g, A):
    """Every key and every member of a set of the merged support table."""
    table = merge_supports(build_er(g, A), constraint_preprocessing(g, A))
    for key, row in table.items():
        yield key
        for support in row:
            yield from support


def test_constructors_label_as_the_reference_renders(p1, p1_answer, coloring,
                                                      coloring_answer):
    made = [*_table_nodes(p1, p1_answer),
            *_table_nodes(coloring, coloring_answer)]
    for seed in range(200):
        g = oracle.random_program(seed)
        for model in oracle.enumerate_answer_sets(g)[:3]:
            try:
                made += _table_nodes(g, g.answer_from_names(model))
            except AspExplainError:
                continue
    # Only a graph holds the assume node.
    assert {node.kind for node in made} == set(nodes.EDGE_LABEL) - {
        nodes.ASSUME}
    # The last node of EVERY_KIND is rebuilt from JSON: it has no payload.
    for node in {*made, *EVERY_KIND[:-1]}:
        for ascii_only in (False, True):
            assert node.render(ascii_only) == reference_render(node,
                                                               ascii_only)


def test_edge_hashes_as_its_field_tuple():
    source, target = nodes.atom_node("a"), nodes.choice_node(0, None, ())
    edge = EEdge(source, target, nodes.EDGE_LABEL[target.kind])
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
# 6, 8 and 10 atoms: every rule's text, kind, heads and statement index,
# then NANT and the warnings of each program.
GOLDEN_RECONSTRUCTION = \
    "556b204789cffd6f0e8b6da70c4462b7bfd596e664c694eb81f8d1e6d019f9ae"


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
                    rule.statement_index)).encode())
            digest.update(repr((g.nant_names(), g.warnings)).encode())
    assert digest.hexdigest() == GOLDEN_RECONSTRUCTION


# One sha256 over the tables and graphs of random_program seeds 0..299 with
# 6 and 8 atoms, for the first three answer sets of each (see _explained).
GOLDEN_TABLES = \
    "7f553c446b4bc55bf0524ef05194fa9ae94ca132f0969a53d88a41174cc2177a"

# sha256 of the DOT that explains the tip of a 300-link positive chain; the
# rules listed forward and in reverse give the same graph.
GOLDEN_CHAIN = \
    "180790c1368dc4192db52a555dbc883d51a05a17d928ef6f86f09f8541a39f0a"


def _explained(g, A) -> bytes:
    """E_r and E_c as ``dump_table`` prints them, U, and the DOT of up to
    four graphs of every named literal in the polarity that holds, each
    error by its class and message."""
    parts: list[str] = []
    try:
        parts.append(dump_table(build_er(g, A)))
        parts.append(dump_table(constraint_preprocessing(g, A)))
        table = SupportTable(g, A)
        u = minimal_assumption_sets(g, A, table=table).chosen_u
    except AspExplainError as err:
        return repr((type(err).__name__, str(err))).encode()
    parts.append(repr(sorted(u)))
    for aid in sorted(g.named_ids()):
        root = nodes.literal_node(g.display_atom(aid), aid in A)
        try:
            graphs = build_egraph(table, u, root, max_graphs=4)
        except AspExplainError as err:
            parts.append(repr((type(err).__name__, str(err))))
        else:
            parts.extend(to_dot(graph) for graph in graphs)
    return "\x00".join(parts).encode() + b"\x01"


def test_random_tables_and_graphs_match_golden_digest():
    digest = hashlib.sha256()
    for seed in range(300):
        for n_atoms in (6, 8):
            g = oracle.random_program(seed, n_atoms=n_atoms)
            for model in oracle.enumerate_answer_sets(g)[:3]:
                digest.update(_explained(g, g.answer_from_names(model)))
    assert digest.hexdigest() == GOLDEN_TABLES


def positive_chain(n: int, reverse: bool) -> str:
    """x(1).  x(i) :- x(i-1) for 1 < i <= n, the rules forward or in
    reverse."""
    rules = [f"1 0 1 {i} 0 1 {i - 1}" for i in range(2, n + 1)]
    if reverse:
        rules.reverse()
    lines = ["asp 1 0 0", "1 0 1 1 0 0", *rules]
    lines += [f"4 {len(f'x({i})')} x({i}) 1 {i}" for i in range(1, n + 1)]
    return "\n".join(lines + ["0\n"])


@pytest.mark.parametrize("reverse", [False, True])
def test_chain_tip_matches_golden_digest(capsys, tmp_path, reverse):
    path = tmp_path / "chain.aspif"
    path.write_text(positive_chain(300, reverse))
    answer = " ".join(f"x({i})" for i in range(1, 301))
    code = cli.main(["explain", str(path), "--answer", answer,
                     "--root", "x(300)"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == GOLDEN_CHAIN


# sha256 of the stdout of `explain --root "~d"` and of `assumptions` on
# bench/families.loops(n, k), recorded before a false atom's row was kept
# as its factors.  ~d has k rules, so its row stands for 2^k sets; at
# k = 13 it is cut at 4096 of 8192, which stderr says once.
GOLDEN_LOOPS = {
    ((24, 12), "dot"):
        "61461036bf0f2bad42450a975d352fb348ba40d455ecc307d5be747d4cbaa664",
    ((24, 12), "json"):
        "4e046fe4d3de552157b59ce71768c8c86b345ec1676557c24dc2d75f3d79f896",
    ((24, 12), "text"):
        "12c0246ecfe59ffbd7afa40d5420bd2a2ca4cc8543630d348264dc596983072c",
    ((24, 12), "assumptions"):
        "d38ab084277c370b7b5bc16d3c2476595a6a319a1ba6e59f32e8993fed93e761",
    ((26, 13), "dot"):
        "9b5b2c5d157e5d145d7c2b32b2f75f19f56e8d81c7ff341b5821ce5c6e00cbbd",
    ((26, 13), "json"):
        "db20d8904672139c9582218766b9d5ef099f81a19bd1bbba1f125b66caa8f2f1",
    ((26, 13), "text"):
        "9662850c5e21fec9de908365f21ca68a7d30de17fac44a634e71aa999b10b029",
    ((26, 13), "assumptions"):
        "420fdd4272320e2cec7093adfdd56a312e7e4e358f5a279dd22b319bffcf6c5e",
}


@pytest.mark.parametrize("size, command", sorted(GOLDEN_LOOPS))
def test_loops_false_atom_matches_golden_digest(capsys, tmp_path, size,
                                                command):
    from test_shrink import families

    inst = families.loops(*size)
    path = tmp_path / "loops.aspif"
    path.write_text(inst.text)
    answered = [str(path), "--answer", " ".join(inst.answer)]
    if command == "assumptions":
        code = cli.main(["assumptions", *answered])
    else:
        code = cli.main(["explain", *answered, "--root", "~d",
                         "--format", command])
    captured = capsys.readouterr()
    cut = size == (26, 13)
    assert code == 0
    assert captured.err == ("warning: the supported sets of ~d are cut at "
                            "4096 of 8192\n" if cut else "")
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == GOLDEN_LOOPS[size, command]
