"""Tests for cut-set computation and the large-block encoding."""


from repro.linexpr.expr import var
from repro.linexpr.transform import formula_variables, prime_suffix
from repro.metrics import recording
from repro.program.builder import AutomatonBuilder
from repro.program.cutset import compute_cutset, is_cutset
from repro.program.large_block import large_block_encoding
from repro.smt.solver import SmtSolver

x, y = var("x"), var("y")


def nested_loops():
    builder = AutomatonBuilder(["i", "j"], initial="start")
    i, j = var("i"), var("j")
    builder.transition("start", "outer", updates={"i": 0})
    builder.transition("outer", "inner", guard=[i <= 9], updates={"j": 0})
    builder.transition("inner", "inner", guard=[j <= 9], updates={"j": j + 1})
    builder.transition("inner", "outer", guard=[j >= 10], updates={"i": i + 1})
    return builder.build()


def joined_diamond_loop():
    """A loop body whose two branches meet at a join before the head."""
    builder = AutomatonBuilder(["x", "y"], initial="head")
    builder.transition("head", "left", guard=[x >= 1])
    builder.transition("head", "right", guard=[x >= 1])
    builder.transition("left", "join", updates={"x": x - 1})
    builder.transition("right", "join", updates={"x": x - 2})
    builder.transition("join", "head", guard=[y >= x])
    return builder.build()


def diamond_loop():
    """A loop whose body has two paths through a diamond."""
    builder = AutomatonBuilder(["x"], initial="head")
    builder.transition("head", "left", guard=[x >= 1])
    builder.transition("head", "right", guard=[x >= 1])
    builder.transition("left", "head", updates={"x": x - 1})
    builder.transition("right", "head", updates={"x": x - 2})
    return builder.build()


class TestCutset:
    def test_loop_headers_found(self):
        cutset = compute_cutset(nested_loops())
        assert set(cutset) == {"outer", "inner"}

    def test_is_cutset(self):
        cfa = nested_loops()
        assert is_cutset(cfa, ["outer", "inner"])
        assert not is_cutset(cfa, ["outer"])

    def test_acyclic_graph_has_empty_cutset(self):
        builder = AutomatonBuilder(["x"], initial="a")
        builder.transition("a", "b")
        builder.transition("b", "c")
        assert compute_cutset(builder.build()) == []

    def test_self_loop(self):
        builder = AutomatonBuilder(["x"], initial="a")
        builder.transition("a", "a", guard=[x >= 0], updates={"x": x - 1})
        assert compute_cutset(builder.build()) == ["a"]


class TestLargeBlocks:
    def test_diamond_becomes_one_block_with_two_paths(self):
        cfa = diamond_loop()
        blocks = large_block_encoding(cfa, ["head"])
        assert len(blocks) == 1
        assert blocks[0].path_count == 2

    def test_block_relation_is_correct(self):
        cfa = diamond_loop()
        (block,) = large_block_encoding(cfa, ["head"])
        solver = SmtSolver()
        solver.assert_formula(block.formula)
        solver.assert_formula(var("x").eq(5))
        solver.assert_formula(var(prime_suffix("x")).eq(4))
        assert solver.check().is_sat
        # x' = 5 is not reachable in one body execution from x = 5.
        solver2 = SmtSolver()
        solver2.assert_formula(block.formula)
        solver2.assert_formula(var("x").eq(5))
        solver2.assert_formula(var(prime_suffix("x")).eq(5))
        assert solver2.check().is_unsat

    def test_guard_excludes_models(self):
        cfa = diamond_loop()
        (block,) = large_block_encoding(cfa, ["head"])
        solver = SmtSolver()
        solver.assert_formula(block.formula)
        solver.assert_formula(var("x").eq(0))
        assert solver.check().is_unsat

    def test_nested_loop_block_structure(self):
        cfa = nested_loops()
        blocks = large_block_encoding(cfa)
        pairs = {(block.source, block.target) for block in blocks}
        assert ("inner", "inner") in pairs
        assert ("outer", "inner") in pairs
        assert ("inner", "outer") in pairs
        assert ("outer", "outer") not in pairs

    def test_only_disagreeing_variables_get_a_join_copy(self):
        with recording() as counters:
            (block,) = large_block_encoding(joined_diamond_loop(), ["head"])
        assert block.path_count == 2
        names = formula_variables(block.formula)
        copies = names - {"x", "y", "x'", "y'"}
        assert len(copies) == 1 and next(iter(copies)).startswith("x@join!b")
        assert counters["program.large_block.join_copies"] == 1
        # x >= 1, the two join equalities, y >= copy, x' = copy, y' = y.
        assert counters["program.large_block.atoms"] == 6

    def test_havoc_on_the_last_edge_leaves_the_primed_value_free(self):
        builder = AutomatonBuilder(["x", "y"], initial="head")
        builder.transition("head", "head", guard=[x >= 1], updates={"y": None})
        (block,) = large_block_encoding(builder.build(), ["head"])
        assert formula_variables(block.formula) == {"x", "x'"}
