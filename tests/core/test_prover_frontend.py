"""End-to-end tests going through the mini-language front-end."""


from repro import Analysis, analyze, compile_program


class TestFrontendPrograms:
    def test_simple_countdown(self):
        result = analyze(
            compile_program("var x; while (x > 0) { x = x - 1; }")
        )
        assert result.proved and result.certificate_checked

    def test_multipath_listing1(self):
        source = """
        var x, c;
        assume(x >= 0);
        while (x >= 0) {
            c = nondet();
            if (c >= 1) { x = x - 1; }
            if (c <= 0) { x = x - 1; }
        }
        """
        result = analyze(compile_program(source, "listing1"))
        assert result.proved
        assert result.certificate_checked

    def test_parametric_decrement(self):
        source = """
        var x, y;
        assume(y >= 1);
        while (x > 0) { x = x - y; }
        """
        result = analyze(compile_program(source))
        assert result.proved

    def test_non_terminating_not_proved(self):
        source = """
        var x;
        assume(x >= 1);
        while (x > 0) { x = x + 1; }
        """
        result = analyze(compile_program(source))
        assert not result.proved

    def test_acyclic_program_trivially_terminating(self):
        result = analyze(
            compile_program("var x; x = 1; if (x > 0) { x = 2; }")
        )
        assert result.proved
        assert result.dimension == 0

    def test_statistics_available(self):
        result = analyze(
            compile_program("var x; while (x > 0) { x = x - 1; }")
        )
        assert result.iterations >= 1
        assert result.lp_statistics.instances >= 1
        assert result.time_seconds > 0

    def test_prover_reuses_given_cutset(self):
        automaton = compile_program("var x; while (x > 0) { x = x - 1; }")
        from repro.program.cutset import compute_cutset

        cutset = compute_cutset(automaton)
        result = Analysis(automaton, cutset=cutset).run("termite")
        assert result.proved
